"""In-range table golden fixture: exact metrics of cells that reuse disk scans.

Between two mobility steps no position changes, so the medium serves the
receivers of a frame and every ``nodes_within`` reachability set from a
table of in-range nodes built once per ``(position, radius)``.  That reuse
is tuned for speed under the same contract as the frame path: no cell may
change by a single bit.  ``data/range_table_golden.json`` holds the
``summary`` and ``extra`` of cells recorded by the code *before* the table
existed, chosen because they hit it hardest:

* the end-to-end benchmark's 10 Hz safety-beacon storm at seeds 1 and 2
  (many frames per sender per step, one reachability set per beacon);
* a 2 Hz safety-beacon cell on the sparse city grid;
* ``event-burst-storm`` (reachability sets at the event positions, then
  rebroadcasts from the same positions);
* the storm under ``dsrc-urban-nlos``, whose shadowing draws a random
  received power per receiver over cached distances.

Regenerate (only for a deliberate, explained behaviour change) with::

    PYTHONPATH=src python tests/radio/test_range_table_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.harness.runner import ExperimentRunner
from repro.harness.scenarios import scenario_from_name

GOLDEN_PATH = Path(__file__).parent / "data" / "range_table_golden.json"

#: The end-to-end benchmark's storm cell: 150 vehicles in the 1 km
#: congested core, 300-byte BSMs at 10 Hz for 0.5 s.
_STORM = {
    "duration_s": 1.0,
    "drain_s": 0.2,
    "max_vehicles": 150,
    "workload": "safety-beacon-10hz",
    "workload_params": {"start_time_s": 0.5, "size_bytes": 300},
}
_BEACON_2HZ = {
    "duration_s": 4.0,
    "drain_s": 1.0,
    "max_vehicles": 60,
    "workload": "safety-beacon-2hz",
}
_EVENT_BURST = {
    "duration_s": 4.0,
    "drain_s": 1.0,
    "max_vehicles": 60,
    "workload": "event-burst-storm",
}

#: (label, protocol, scenario preset, overrides, seeds)
CELLS = [
    ("bsm-storm", "Greedy", "city-core-1km-congested", _STORM, (1, 2)),
    ("safety-beacon-2hz", "Greedy", "city-grid-2km-sparse", _BEACON_2HZ, (1,)),
    ("event-burst-storm", "Greedy", "highway-2km-normal", _EVENT_BURST, (1,)),
    (
        "storm-dsrc-urban-nlos",
        "Greedy",
        "city-core-1km-congested",
        {**_STORM, "radio_stack": "dsrc-urban-nlos"},
        (1,),
    ),
]

PARAMS = [
    (label, protocol, preset, overrides, seed)
    for label, protocol, preset, overrides, seeds in CELLS
    for seed in seeds
]


def _key(label: str, seed: int) -> str:
    return f"{label}/seed{seed}"


def _run(protocol: str, preset: str, overrides: dict, seed: int) -> dict:
    scenario = scenario_from_name(preset, seed=seed, **overrides)
    result = ExperimentRunner().run(scenario, protocol)
    return {"summary": result.summary, "extra": result.extra}


@pytest.mark.parametrize(
    "label,protocol,preset,overrides,seed",
    PARAMS,
    ids=[_key(p[0], p[4]) for p in PARAMS],
)
def test_range_table_cell_matches_golden(label, protocol, preset, overrides, seed):
    golden = json.loads(GOLDEN_PATH.read_text())[_key(label, seed)]
    assert _run(protocol, preset, overrides, seed) == golden


def test_pinned_cells_carry_traffic():
    """Every pinned cell really delivers frames, so a regression would show."""
    golden = json.loads(GOLDEN_PATH.read_text())
    assert set(golden) == {_key(p[0], p[4]) for p in PARAMS}
    for cell in golden.values():
        assert cell["summary"]["data_delivered"] > 0


def _regenerate() -> None:
    cells = {}
    for label, protocol, preset, overrides, seed in PARAMS:
        cells[_key(label, seed)] = _run(protocol, preset, overrides, seed)
    GOLDEN_PATH.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cells)} cells to {GOLDEN_PATH}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
