"""Property-based tests: workload schedules are deterministic per seed.

Every registered workload must produce a byte-identical send schedule when
built twice from equal seeds -- the invariant the replicated-sweep layer
(serial or parallel, any worker count) rests on.  The schedule is compared
*before* the simulation runs, straight off the event queue, so the property
covers the workload's own draws rather than downstream protocol behaviour
(which tests/harness/test_sweep.py covers end-to-end).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.runner import ExperimentRunner
from repro.harness.scenario import Scenario, highway_scenario
from repro.mobility.generator import TrafficDensity
from repro.sim.node import Node
from repro.workloads import WORKLOADS
from repro.workloads.registry import with_traffic


def _tiny_scenario(workload: str, seed: int) -> Scenario:
    scenario = highway_scenario(
        TrafficDensity.SPARSE,
        name="workload-prop",
        duration_s=6.0,
        max_vehicles=10,
        seed=seed,
        rsu_spacing_m=600.0,  # so the v2i workload has infrastructure
        workload=workload,
    )
    return with_traffic(scenario, {"flows": 2})


def _describe(arg: object) -> object:
    """A stable, comparable description of one scheduled-callback argument."""
    if isinstance(arg, Node):
        return f"node:{arg.node_id}"
    if isinstance(arg, (bool, int, float, str)) or arg is None:
        return arg
    return type(arg).__name__


def _schedule_signature(scenario: Scenario) -> str:
    """Build the workload and serialise the resulting event schedule."""
    built = ExperimentRunner().build(scenario)
    workload = WORKLOADS.resolve(scenario.workload, **dict(scenario.workload_params))
    flows = workload.build(scenario, built, built.sim.rng.stream("traffic"))
    events = [
        (
            event.time,
            event.priority,
            event.seq,
            getattr(event.callback, "__qualname__", str(event.callback)),
            [_describe(arg) for arg in event.args],
        )
        for event in built.sim._queue.snapshot()
        if not event.cancelled
    ]
    return json.dumps({"flows": flows, "events": events}, sort_keys=True)


@pytest.mark.parametrize("workload", WORKLOADS.names())
class TestWorkloadScheduleDeterminism:
    @given(seed=st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=8, deadline=None)
    def test_equal_seeds_give_byte_identical_schedules(self, workload, seed):
        first = _schedule_signature(_tiny_scenario(workload, seed))
        second = _schedule_signature(_tiny_scenario(workload, seed))
        assert first == second

    def test_seeds_differentiate_randomised_schedules(self, workload):
        """A sanity complement: across several seeds the schedule must not
        be constant (every built-in workload draws timing or endpoints)."""
        signatures = {
            _schedule_signature(_tiny_scenario(workload, seed)) for seed in (1, 2, 3, 4)
        }
        assert len(signatures) > 1
