"""Flood golden fixture: exact metrics and trace digests of the flood cells.

Flooding, Zone, Biswas and Wedde receive data the way the relay family
does -- ignore control frames, drop duplicates, deliver at the destination,
drop at TTL, forward -- but check for duplicates *before* the destination
test, so a destination delivers only the first copy it hears.  The summary
counts first deliveries only, so it cannot see that order; the trace's
``delivered`` records can.  ``data/flood_golden.json`` holds, per cell, the
``summary`` and ``extra`` of a traced run and uid-free digests of its
``rx``/``collision`` and ``delivered`` records:

* Flooding, Zone, Biswas and DSDV on ``highway-2km-normal`` and
  ``manhattan-800m-normal`` at seeds 1 and 2;
* Wedde on ``manhattan-800m-normal`` at seeds 1 and 2 (its highway cells are
  in ``tests/radio/data/neighbor_frame_golden.json``).

Regenerate (only for a deliberate, explained behaviour change) with::

    PYTHONPATH=src python -m tests.protocols.test_flood_golden
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.harness.runner import ExperimentRunner
from repro.harness.scenarios import scenario_from_name
from tests.radio.test_neighbor_frame_golden import _CELL, record_digest

GOLDEN_PATH = Path(__file__).parent / "data" / "flood_golden.json"

_PRESETS = ("highway-2km-normal", "manhattan-800m-normal")

#: (protocol, scenario preset, seeds)
CELLS = [
    (protocol, preset, (1, 2))
    for protocol in ("Flooding", "Zone", "Biswas", "DSDV")
    for preset in _PRESETS
] + [("Wedde", "manhattan-800m-normal", (1, 2))]

PARAMS = [(protocol, preset, seed) for protocol, preset, seeds in CELLS for seed in seeds]


def _key(protocol: str, preset: str, seed: int) -> str:
    return f"{protocol}/{preset}/seed{seed}"


class _TracedRunner(ExperimentRunner):
    """A traced runner that keeps the last scenario it built."""

    def build(self, *args, **kwargs):
        self.built = super().build(*args, **kwargs)
        return self.built


def _run(protocol: str, preset: str, seed: int) -> dict:
    runner = _TracedRunner(trace_enabled=True, trace_max_records=None)
    result = runner.run(scenario_from_name(preset, seed=seed, **_CELL), protocol)
    trace = runner.built.trace
    assert trace.dropped == 0
    return {
        "summary": result.summary,
        "extra": result.extra,
        "trace": record_digest(trace),
        "delivered": record_digest(trace, ("delivered",)),
    }


@pytest.mark.parametrize(
    "protocol,preset,seed", PARAMS, ids=[_key(*params) for params in PARAMS]
)
def test_flood_cell_matches_golden(protocol, preset, seed):
    golden = json.loads(GOLDEN_PATH.read_text())[_key(protocol, preset, seed)]
    assert _run(protocol, preset, seed) == golden


def test_pinned_cells_deliver_data():
    """Every pinned cell delivers, so a change in the delivery order would show."""
    golden = json.loads(GOLDEN_PATH.read_text())
    assert set(golden) == {_key(*params) for params in PARAMS}
    for cell in golden.values():
        assert cell["delivered"]["records"] > 0


def _regenerate() -> None:
    cells = {_key(*params): _run(*params) for params in PARAMS}
    GOLDEN_PATH.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cells)} cells to {GOLDEN_PATH}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
