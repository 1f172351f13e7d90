"""Frame-path golden fixture: exact metrics of the benchmark-shaped cells.

The per-receiver delivery path (packet views, the reception cutoff, the
received-power and SINR evaluation) is tuned for speed under a strict
contract: no cell may change by a single bit.  ``data/frame_path_golden.json``
holds the ``summary`` and ``extra`` of each cell below, recorded by the
code *before* that path was last reworked:

* one full-stack cell per protocol category of the paper and the 10 Hz
  safety-beacon storm, on the same presets and overrides the end-to-end
  benchmark runs, at seeds 1 and 2;
* one grid cell for each non-default radio preset and the ``nakagami``
  kind, so hard-edge and soft-edge channels, deterministic and random,
  are all pinned;
* one 10 s highway cell per on-demand protocol (and GVGrid) at seeds 1
  and 2, long enough that discovery retries, give-ups, multipath
  failovers and preemptive rebuilds all happen;
* CAR on two road grids at seeds 1 and 2: its anchor paths are
  shortest paths over the road graph, several with equal-cost
  alternatives, so the path search's tie-breaking is pinned too.

Regenerate (only for a deliberate, explained behaviour change) with::

    PYTHONPATH=src python tests/radio/test_frame_path_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.harness.runner import ExperimentRunner
from repro.harness.scenarios import scenario_from_name

GOLDEN_PATH = Path(__file__).parent / "data" / "frame_path_golden.json"

#: Short CBR flows: 8 flows x 6 packets at 2 Hz.
_CBR = {"flow_count": 8, "start_time_s": 1.0, "interval_s": 0.5, "packet_count": 6}
_SMALL_CELL = {
    "duration_s": 4.0,
    "drain_s": 1.0,
    "max_vehicles": 40,
    "workload_params": _CBR,
}
#: Ten seconds of sparse traffic on the highway preset: long enough for every
#: on-demand protocol to retry, give up, fail over and rebuild routes.
_REPAIR_CELL = {
    "duration_s": 10.0,
    "max_vehicles": 40,
    "workload_params": {"flow_count": 4, "packet_count": 6},
}
#: The on-demand protocols, plus GVGrid (the one beaconing protocol not
#: pinned above).
_REPAIR_PROTOCOLS = (
    "AODV",
    "ROVER",
    "DSR",
    "DisjLi",
    "PBR",
    "Taleb",
    "Abedi",
    "NiuDe",
    "Yan-TBP",
    "GVGrid",
)
_STORM = {
    "duration_s": 1.0,
    "drain_s": 0.2,
    "max_vehicles": 150,
    "workload": "safety-beacon-10hz",
    "workload_params": {"start_time_s": 0.5, "size_bytes": 300},
}

#: (label, protocol, scenario preset, overrides, seeds)
CELLS = [
    ("connectivity", "AODV", "highway-2km-normal", _SMALL_CELL, (1, 2)),
    ("mobility", "PBR", "highway-2km-normal", _SMALL_CELL, (1, 2)),
    ("infrastructure", "RSU-Relay", "city-grid-2km-sparse", _SMALL_CELL, (1, 2)),
    ("geographic", "Greedy", "manhattan-800m-normal", _SMALL_CELL, (1, 2)),
    ("probability", "REAR", "highway-2km-normal", _SMALL_CELL, (1, 2)),
    ("bsm-storm", "Greedy", "city-core-1km-congested", _STORM, (1, 2)),
    (
        "radio-dsrc-highway-los",
        "AODV",
        "highway-2km-normal",
        {**_SMALL_CELL, "radio_stack": "dsrc-highway-los"},
        (1,),
    ),
    (
        "radio-dsrc-urban-nlos",
        "REAR",
        "manhattan-800m-normal",
        {**_SMALL_CELL, "radio_stack": "dsrc-urban-nlos"},
        (1,),
    ),
    (
        "radio-dsrc-congested",
        "Greedy",
        "city-core-1km-congested",
        {**_STORM, "radio_stack": "dsrc-congested"},
        (1,),
    ),
    (
        "radio-nakagami",
        "PBR",
        "highway-2km-normal",
        {**_SMALL_CELL, "radio_stack": "nakagami"},
        (1,),
    ),
] + [
    (f"repairs-{protocol}", protocol, "highway-2km-normal", _REPAIR_CELL, (1, 2))
    for protocol in _REPAIR_PROTOCOLS
] + [
    (f"car-{preset}", "CAR", preset, _REPAIR_CELL, (1, 2))
    for preset in ("manhattan-800m-normal", "city-grid-2km-sparse")
]

PARAMS = [
    (label, protocol, preset, overrides, seed)
    for label, protocol, preset, overrides, seeds in CELLS
    for seed in seeds
]


def _key(label: str, seed: int) -> str:
    return f"{label}/seed{seed}"


def _run(protocol: str, preset: str, overrides: dict, seed: int):
    scenario = scenario_from_name(preset, seed=seed, **overrides)
    return ExperimentRunner().run(scenario, protocol)


@pytest.mark.parametrize(
    "label,protocol,preset,overrides,seed",
    PARAMS,
    ids=[_key(p[0], p[4]) for p in PARAMS],
)
def test_frame_path_cell_matches_golden(label, protocol, preset, overrides, seed):
    golden = json.loads(GOLDEN_PATH.read_text())[_key(label, seed)]
    result = _run(protocol, preset, overrides, seed)
    assert result.summary == golden["summary"]
    assert result.extra == golden["extra"]


def _regenerate() -> None:
    cells = {}
    for label, protocol, preset, overrides, seed in PARAMS:
        result = _run(protocol, preset, overrides, seed)
        cells[_key(label, seed)] = {"summary": result.summary, "extra": result.extra}
    GOLDEN_PATH.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cells)} cells to {GOLDEN_PATH}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
