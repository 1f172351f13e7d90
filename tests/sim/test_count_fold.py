"""The medium's count-fold: interference by interferer count on hard-edge channels.

On a hard-edge channel every overlapping frame that shares one transmit
power contributes one level inside its disk and nothing outside it, so a
receiver's interference is ``combine([level] * count)``.  The fold, one
decision per count and the bulk broadcast settlement are shortcuts:
for every scenario kind, radio stack and workload, a run with them must
reproduce the run without them (``tests.helpers.caches_off``) and the
linear-scan oracle byte for byte.
"""

import random

import pytest

from repro.harness.runner import ExperimentRunner
from repro.harness.scenario import Scenario, city_scenario
from repro.protocols.location import LocationService
from repro.protocols.registry import make_protocol_factory
from repro.radio.interference import NO_SIGNAL_DBM, AdditiveInterference, combine_dbm
from repro.radio.propagation import (
    FreeSpacePropagation,
    PropagationModel,
    UnitDiskPropagation,
)
from repro.radio.reception import ReceptionDecision
from repro.sim.engine import Simulator
from repro.sim.medium import WirelessMedium
from repro.workloads import WORKLOADS as WORKLOAD_REGISTRY
from tests.helpers import build_static_network, caches_off, run_data_flow, use_linear_scan
from tests.sim.test_medium_backends import normalized_records, run_seeded_scenario

#: ideal-disk is the hard edge the fold applies to; dsrc-highway-los
#: (two-ray) and nakagami (stochastic) never fold.
RADIOS = ["ideal-disk-250m", "dsrc-highway-los", "nakagami"]
FOLDING_RADIOS = {"ideal-disk-250m"}
WORKLOADS = ["cbr", "safety-beacon"]


def count_folds(medium):
    """Count the frames the medium count-folds from here on (a one-cell list)."""
    count = [0]
    count_fold = medium._count_fold

    def counting(transmission, interferers):
        fold = count_fold(transmission, interferers)
        if fold is not None:
            count[0] += 1
        return fold

    medium._count_fold = counting
    return count


def run_workload_scenario(kind, radio, workload, seed=9, oracle=False):
    """A small traced run of ``kind`` under the given radio and workload.

    With ``oracle`` the medium scans exhaustively (see
    :func:`~tests.helpers.use_linear_scan`); ``built.folds`` counts the
    frames completed by interferer count.
    """
    runner = ExperimentRunner(trace_enabled=True, trace_max_records=500_000)
    common = dict(
        max_vehicles=30,
        duration_s=5.0,
        drain_s=1.0,
        seed=seed,
        radio_stack=radio,
        workload=workload,
    )
    if kind == "city":
        scenario = city_scenario(**common)
    else:
        scenario = Scenario(name=kind, kind=kind, **common)
    built = runner.build(scenario)
    if oracle:
        use_linear_scan(built.network.medium)
    built.folds = count_folds(built.network.medium)
    factory = make_protocol_factory(
        "Greedy",
        location_service=LocationService(built.network),
        road_graph=built.road_graph,
    )
    built.network.attach_protocols(factory)
    wl = WORKLOAD_REGISTRY.resolve(scenario.workload, **dict(scenario.workload_params))
    wl.build(scenario, built, built.sim.rng.stream("traffic"))
    built.network.start()
    built.sim.run(until=scenario.duration_s + scenario.drain_s)
    return built


def assert_same_run(a, b):
    assert normalized_records(a.trace) == normalized_records(b.trace)
    assert a.stats.summary() == b.stats.summary()


def assert_folded(built, radio):
    """The run folded frames exactly when its radio has a hard edge."""
    if radio in FOLDING_RADIOS:
        assert built.folds[0] > 0
    else:
        assert built.folds == [0]


class TestShortcutsMatchTheReference:
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("radio", RADIOS)
    def test_city_shortcuts_match_reference(self, radio, workload):
        fast = run_workload_scenario("city", radio, workload)
        with caches_off():
            reference = run_workload_scenario("city", radio, workload)
        assert_same_run(fast, reference)
        assert_folded(fast, radio)
        assert reference.folds == [0]

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("radio", RADIOS)
    def test_random_waypoint_shortcuts_match_reference(self, radio, workload):
        fast = run_workload_scenario("random_waypoint", radio, workload)
        with caches_off():
            reference = run_workload_scenario("random_waypoint", radio, workload)
        assert_same_run(fast, reference)
        assert_folded(fast, radio)

    def test_city_matches_linear_oracle(self):
        # The exhaustive O(N) scan is the ground-truth oracle.
        linear = run_workload_scenario("city", "ideal-disk-250m", "cbr", oracle=True)
        fast = run_workload_scenario("city", "ideal-disk-250m", "cbr")
        assert_same_run(fast, linear)
        assert fast.folds[0] > 0

    def test_highway_seeded_scenario_shortcuts_match_reference(self):
        fast = run_seeded_scenario()
        with caches_off():
            reference = run_seeded_scenario()
        assert_same_run(fast, reference)


class TestConstantRxProfile:
    def test_unit_disk_reports_its_single_level(self):
        model = UnitDiskPropagation(communication_range=250.0)
        level, cutoff = model.constant_rx_profile(23.0)
        assert (level, cutoff) == (23.0, 250.0)
        # The profile agrees with the model itself: in range the power is
        # exactly the advertised level, beyond it exactly silence.
        assert model.rx_power_dbm_from_distance(23.0, 100.0) == level
        assert model.rx_power_dbm_from_distance(23.0, cutoff) == level
        assert model.rx_power_dbm_from_distance(23.0, cutoff + 1e-9) == NO_SIGNAL_DBM

    def test_non_constant_models_decline(self):
        model = FreeSpacePropagation()
        assert model.constant_rx_profile(20.0) is None
        assert PropagationModel.constant_rx_profile(model, 20.0) is None


class TestFoldTables:
    def _medium(self):
        return WirelessMedium(Simulator(seed=1))

    def test_levels_match_combine_dbm(self):
        medium = self._medium()
        # 23 dBm is a non-integer number of mW: every sum rounds.
        levels = medium._interference_levels(23.0, 12)
        assert levels[0] == NO_SIGNAL_DBM
        for count in range(1, 13):
            assert levels[count] == combine_dbm([23.0] * count)
            assert levels[count] == AdditiveInterference().combine([23.0] * count)

    def test_levels_grow_and_are_kept(self):
        medium = self._medium()
        small = medium._interference_levels(17.0, 3)
        assert len(small) == 4
        # A smaller count reads the kept table without growing it.
        assert medium._interference_levels(17.0, 2) == small[:3]
        assert len(medium._interference_by_count[17.0]) == 4
        grown = medium._interference_levels(17.0, 10)
        assert len(grown) == 11 and grown[:4] == small
        assert medium._interference_by_count[17.0] == grown


def _flooded_medium(positions_seed=4):
    """The medium of an untraced Flooding storm on 40 random static nodes."""
    rng = random.Random(positions_seed)
    positions = [(rng.uniform(0, 1200), rng.uniform(0, 1200)) for _ in range(40)]
    sim, network, stats, nodes = build_static_network(
        positions, protocol="Flooding", seed=positions_seed
    )
    network.start()
    run_data_flow(sim, stats, nodes[0], nodes[-1], packets=3, start=1.0, until=5.0)
    return network.medium, stats


def _bulk_limit(outcomes):
    """The longest count up to which a frame is received alone and lost with company."""
    if not outcomes[0].ok:
        return -1
    limit = 0
    for outcome in outcomes[1:]:
        if outcome.decision is not ReceptionDecision.COLLISION:
            break
        limit += 1
    return limit


class TestDecisionMemo:
    def test_memoized_outcomes_equal_decide_for_every_level_and_count_used(self):
        medium, stats = _flooded_medium()
        assert stats.mac_collisions > 0, "the storm overlapped no frames"
        memo = medium._decisions_by_level
        assert memo, "no frame was decided through the memo"
        assert max(len(outcomes) for outcomes, _ in memo.values()) > 1
        decide = medium.reception.decide
        combine = medium.interference.combine
        for (rx_level, level), (outcomes, limit) in memo.items():
            for count, outcome in enumerate(outcomes):
                interference = combine([level] * count) if count else NO_SIGNAL_DBM
                assert outcome == decide(rx_level, interference, None)
            assert limit == _bulk_limit(outcomes)

    def test_outcomes_are_decided_once_and_grow_on_demand(self):
        medium = WirelessMedium(Simulator(seed=1))
        calls = []
        decide = medium.reception.decide
        medium.reception.decide = lambda *args: calls.append(args) or decide(*args)
        outcomes, limit = medium._decisions(-60.0, -60.0, 2)
        assert len(outcomes) == 3 and len(calls) == 3
        again, _ = medium._decisions(-60.0, -60.0, 1)
        assert again is outcomes and len(calls) == 3
        grown, grown_limit = medium._decisions(-60.0, -60.0, 5)
        assert len(grown) == 6 and len(calls) == 6
        assert (limit, grown_limit) == (_bulk_limit(outcomes[:3]), _bulk_limit(grown))

    def test_a_frame_too_weak_alone_never_settles_in_bulk(self):
        medium = WirelessMedium(Simulator(seed=1))
        sensitivity = medium.reception.sensitivity_dbm
        outcomes, limit = medium._decisions(sensitivity - 1.0, NO_SIGNAL_DBM, 0)
        assert not outcomes[0].ok and limit == -1

    def test_caches_off_bypasses_the_memo(self):
        with caches_off():
            medium, _ = _flooded_medium()
        assert medium._decisions_by_level == {}
