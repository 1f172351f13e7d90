"""Neighbour-awareness golden fixture: exact metrics of beacon-heavy cells.

HELLO reception (the medium's claim on HELLO frames, one header parse per
frame and ``BeaconService.accept`` per receiver) and the per-receiver
reception decision are tuned for speed under the same contract as the
frame path: no cell may change by a single bit.
``data/neighbor_frame_golden.json`` holds cells recorded by the code
*before* that path was first reworked (every rework since keeps them):

* the ``summary`` and ``extra`` of protocols whose HELLO beacons carry
  protocol-specific fields -- Wedde (``rating``) and Bus-Ferry
  (``is_bus``) -- and of Grid-Gateway and CAR, on their presets;
* one cell run with an enabled :class:`~repro.sim.trace.EventTrace`, pinned
  by a digest of its ``rx``/``collision`` records, so the trace-guarded
  delivery path is covered as well as the untraced one, and by a digest of
  its ``delivered`` records, which count every copy a destination delivers
  (the summary counts first deliveries only).

Regenerate (only for a deliberate, explained behaviour change) with::

    PYTHONPATH=src python tests/radio/test_neighbor_frame_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.harness.runner import ExperimentRunner
from repro.harness.scenarios import scenario_from_name
from repro.protocols.location import LocationService
from repro.protocols.registry import make_protocol_factory
from repro.workloads import WORKLOADS

GOLDEN_PATH = Path(__file__).parent / "data" / "neighbor_frame_golden.json"

#: 8 CBR flows x 6 packets at 2 Hz over an 8 s run: long enough for the
#: bus ferries to pick up and carry packets.
_CELL = {
    "duration_s": 8.0,
    "drain_s": 2.0,
    "max_vehicles": 60,
    "workload_params": {
        "flow_count": 8,
        "start_time_s": 1.0,
        "interval_s": 0.5,
        "packet_count": 6,
    },
}

#: (label, protocol, scenario preset, overrides, seeds)
CELLS = [
    ("wedde", "Wedde", "highway-2km-normal", _CELL, (1, 2)),
    ("bus-ferry", "Bus-Ferry", "city-grid-2km-sparse", {**_CELL, "bus_count": 4}, (1, 2)),
    ("grid-gateway", "Grid-Gateway", "manhattan-800m-normal", _CELL, (1,)),
    ("car", "CAR", "city-grid-2km-sparse", _CELL, (1,)),
]

PARAMS = [
    (label, protocol, preset, overrides, seed)
    for label, protocol, preset, overrides, seeds in CELLS
    for seed in seeds
]

#: The traced cell: (label, protocol, preset, overrides, seed).
TRACED = ("traced-wedde", "Wedde", "highway-2km-normal", _CELL, 1)


def _key(label: str, seed: int) -> str:
    return f"{label}/seed{seed}"


def _scenario(preset: str, overrides: dict, seed: int):
    scenario = scenario_from_name(preset, seed=seed, **overrides)
    return scenario


def _run(protocol: str, preset: str, overrides: dict, seed: int) -> dict:
    result = ExperimentRunner().run(_scenario(preset, overrides, seed), protocol)
    return {"summary": result.summary, "extra": result.extra}


def record_digest(trace, categories=("rx", "collision")) -> dict:
    """Digest of the trace records in ``categories``, modulo packet uids.

    Packet uids come from a process-global counter, so they depend on what
    ran earlier in the process; everything else in a record is pinned.
    """
    digest = hashlib.sha256()
    count = 0
    for record in trace:
        if record.category not in categories:
            continue
        detail = sorted((k, v) for k, v in record.detail.items() if k != "uid")
        digest.update(repr((record.time, record.category, record.node_id, detail)).encode())
        count += 1
    return {"records": count, "sha256": digest.hexdigest()}


def _run_traced(protocol: str, preset: str, overrides: dict, seed: int) -> dict:
    scenario = _scenario(preset, overrides, seed)
    runner = ExperimentRunner(trace_enabled=True, trace_max_records=None)
    built = runner.build(scenario)
    location_service = LocationService(built.network, rng=built.sim.rng.stream("location"))
    factory = make_protocol_factory(
        protocol, location_service=location_service, road_graph=built.road_graph
    )
    built.network.attach_protocols(factory)
    workload = WORKLOADS.resolve(scenario.workload, **dict(scenario.workload_params))
    workload.build(scenario, built, built.sim.rng.stream("traffic"))
    built.network.start()
    built.sim.run(until=scenario.duration_s + scenario.drain_s)
    assert built.trace.dropped == 0
    return {
        "summary": built.stats.summary(),
        "trace": record_digest(built.trace),
        "delivered": record_digest(built.trace, ("delivered",)),
    }


@pytest.mark.parametrize(
    "label,protocol,preset,overrides,seed",
    PARAMS,
    ids=[_key(p[0], p[4]) for p in PARAMS],
)
def test_neighbor_cell_matches_golden(label, protocol, preset, overrides, seed):
    golden = json.loads(GOLDEN_PATH.read_text())[_key(label, seed)]
    assert _run(protocol, preset, overrides, seed) == golden


def test_traced_cell_matches_golden():
    label, protocol, preset, overrides, seed = TRACED
    golden = json.loads(GOLDEN_PATH.read_text())[_key(label, seed)]
    replay = _run_traced(protocol, preset, overrides, seed)
    assert replay["trace"]["records"] > 0
    assert replay["delivered"]["records"] > 0
    assert replay == golden


def test_beacon_extras_are_exercised():
    """The pinned cells really carry protocol-specific HELLO fields."""
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden[_key("bus-ferry", 1)]["summary"]["store_carry_events"] > 0
    for key in (_key("wedde", 1), _key("bus-ferry", 1)):
        assert golden[key]["summary"]["beacon_transmissions"] > 0


def _regenerate() -> None:
    cells = {}
    for label, protocol, preset, overrides, seed in PARAMS:
        cells[_key(label, seed)] = _run(protocol, preset, overrides, seed)
    label, protocol, preset, overrides, seed = TRACED
    cells[_key(label, seed)] = _run_traced(protocol, preset, overrides, seed)
    GOLDEN_PATH.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cells)} cells to {GOLDEN_PATH}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
