"""Default-radio trace equivalence against pre-redesign seed metrics.

The radio-registry redesign must be a pure refactor for the default channel:
a scenario that never names a radio (and one that explicitly names the
``ideal-disk-250m`` preset) has to reproduce the pre-registry runner's
metrics byte-for-byte per (scenario, protocol, seed).  The golden fixture
``data/seed_golden_metrics.json`` was generated by the pre-redesign runner
(the ``_build_propagation`` if/elif chain) on the same scenarios.

Regenerate (only for a deliberate, explained behaviour change) with::

    PYTHONPATH=src python -m tests.radio.test_trace_equivalence
"""

import json
import sys
from pathlib import Path

import pytest

from repro.harness.runner import ExperimentRunner
from repro.harness.scenario import Scenario, highway_scenario, manhattan_scenario
from repro.mobility.generator import TrafficDensity
from repro.radio.registry import DEFAULT_RADIO

GOLDEN_PATH = Path(__file__).parent / "data" / "seed_golden_metrics.json"

#: (constructor, label, protocol, seed) cells of the fixture -- every
#: combination of scenario kind, protocol category and seed.
CELLS = [
    (make, label, protocol, seed)
    for make, label in ((highway_scenario, "highway"), (manhattan_scenario, "manhattan"))
    for protocol in ("AODV", "Greedy")
    for seed in (3, 7)
]


def _golden_scenario(make, label: str, seed: int) -> Scenario:
    return make(
        TrafficDensity.SPARSE,
        duration_s=10.0,
        max_vehicles=18,
        workload_params={"flow_count": 2},
        seed=seed,
        name=f"{label}-golden",
    )


@pytest.mark.parametrize(
    "make,label,protocol,seed", CELLS, ids=[f"{c[1]}-{c[2]}-s{c[3]}" for c in CELLS]
)
def test_default_stack_reproduces_pre_registry_metrics(make, label, protocol, seed):
    """Acceptance: the default stack is byte-identical to the seed runner."""
    golden = json.loads(GOLDEN_PATH.read_text())[f"{label}/{protocol}/seed{seed}"]
    result = ExperimentRunner().run(_golden_scenario(make, label, seed), protocol)
    assert result.radio == DEFAULT_RADIO
    assert result.summary == golden["summary"]
    assert result.extra == golden["extra"]


def test_explicit_default_preset_event_trace_matches_shim():
    """Naming ``ideal-disk-250m`` explicitly and leaving the radio unset must
    produce identical *event traces*, not merely identical summaries."""
    from repro.protocols.registry import make_protocol_factory
    from repro.workloads import WORKLOADS

    runner = ExperimentRunner(trace_enabled=True)
    base = _golden_scenario(highway_scenario, "highway", 3)

    def trace_of(scenario):
        built = runner.build(scenario)
        built.network.attach_protocols(make_protocol_factory("Flooding"))
        workload = WORKLOADS.resolve(scenario.workload)
        workload.build(scenario, built, built.sim.rng.stream("traffic"))
        built.network.start()
        built.sim.run(until=scenario.duration_s + scenario.drain_s)
        # Packet uids come from a process-global counter, so they differ
        # between any two in-process runs; the trace is compared modulo uid.
        return [
            (
                record.time,
                record.category,
                record.node_id,
                {k: v for k, v in record.detail.items() if k != "uid"},
            )
            for record in built.trace.records()
        ]

    implicit = trace_of(base)
    explicit = trace_of(base.with_overrides(radio_stack=DEFAULT_RADIO))
    assert implicit and implicit == explicit


def _regenerate() -> None:
    cells = {}
    for make, label, protocol, seed in CELLS:
        result = ExperimentRunner().run(_golden_scenario(make, label, seed), protocol)
        cells[f"{label}/{protocol}/seed{seed}"] = {"summary": result.summary, "extra": result.extra}
    GOLDEN_PATH.write_text(json.dumps(cells, indent=2, sort_keys=True))
    print(f"wrote {len(cells)} cells to {GOLDEN_PATH}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
