"""Vectorized-backend equivalence tests and position-store unit tests.

The struct-of-arrays fast path is an invisible optimisation: for every
scenario kind, radio stack and workload it must reproduce the grid
backend's event traces byte for byte -- identical per-frame decisions and
identical RNG consumption.  Stochastic radios exercise the scalar fallback
inside the vectorized backend (same requirement, trivially met); the
deterministic radios exercise the array fast path proper.
"""

import pytest

from repro.geometry import Vec2
from repro.harness.runner import ExperimentRunner
from repro.harness.scenario import Scenario, city_scenario
from repro.protocols.location import LocationService
from repro.protocols.registry import make_protocol_factory
from repro.sim import position_store
from repro.sim.position_store import PositionStore, require_numpy
from repro.workloads import WORKLOADS as WORKLOAD_REGISTRY
from tests.helpers import use_linear_scan
from tests.sim.test_medium_backends import (
    count_array_completions,
    normalized_records,
    run_seeded_scenario,
)

np = pytest.importorskip("numpy")

#: Radio stacks crossing the fast-path gate: ideal-disk (the disk fold
#: table) and dsrc-highway-los (two-ray, the general mW fold) are
#: deterministic and take the array path; nakagami is stochastic and falls
#: back to the scalar loop inside the vectorized backend.
RADIOS = ["ideal-disk-250m", "dsrc-highway-los", "nakagami"]
ARRAY_PATH_RADIOS = {"ideal-disk-250m", "dsrc-highway-los"}
WORKLOADS = ["cbr", "safety-beacon"]


def run_workload_scenario(kind, spatial_backend, radio, workload, seed=9, oracle=False):
    """A small traced run of ``kind`` under the given radio and workload.

    With ``oracle`` the medium scans exhaustively (see
    :func:`~tests.helpers.use_linear_scan`).

    The cells hold far fewer nodes than ``VECTORIZED_MIN_ROWS``, so the
    vectorized leg drops the row threshold to 0 to reach the array path;
    ``built.array_completions`` counts the frames it completed there.
    """
    runner = ExperimentRunner(trace_enabled=True, trace_max_records=500_000)
    if kind == "city":
        scenario = city_scenario(
            max_vehicles=30,
            duration_s=5.0,
            drain_s=1.0,
            seed=seed,
            spatial_backend=spatial_backend,
            radio_stack=radio,
            workload=workload,
        )
    else:
        scenario = Scenario(
            name=kind,
            kind=kind,
            max_vehicles=30,
            duration_s=5.0,
            drain_s=1.0,
            seed=seed,
            spatial_backend=spatial_backend,
            radio_stack=radio,
            workload=workload,
        )
    built = runner.build(scenario)
    if oracle:
        use_linear_scan(built.network.medium)
    if spatial_backend == "vectorized":
        built.network.medium.vectorized_min_rows = 0
    built.array_completions = count_array_completions(built.network.medium)
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


def assert_array_path(grid, vec, radio):
    """The vectorized leg took the array path exactly when the radio allows."""
    assert grid.array_completions == [0]
    if radio in ARRAY_PATH_RADIOS:
        assert vec.array_completions[0] > 0
    else:
        assert vec.array_completions == [0]


class TestCrossBackendTraces:
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("radio", RADIOS)
    def test_city_vectorized_matches_grid(self, radio, workload):
        # City runs drive GraphWalkMobility's array placement through the
        # store; per (radio, workload) the trace must be byte-identical.
        grid = run_workload_scenario("city", "grid", radio, workload)
        vec = run_workload_scenario("city", "vectorized", radio, workload)
        assert normalized_records(vec.trace) == normalized_records(grid.trace)
        assert vec.stats.summary() == grid.stats.summary()
        assert_array_path(grid, vec, radio)

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("radio", RADIOS)
    def test_random_waypoint_vectorized_matches_grid(self, radio, workload):
        grid = run_workload_scenario("random_waypoint", "grid", radio, workload)
        vec = run_workload_scenario("random_waypoint", "vectorized", radio, workload)
        assert normalized_records(vec.trace) == normalized_records(grid.trace)
        assert vec.stats.summary() == grid.stats.summary()
        assert_array_path(grid, vec, radio)

    def test_city_vectorized_matches_linear_oracle(self):
        # The exhaustive O(N) scan is the ground-truth oracle; one cell
        # suffices because grid-vs-linear equivalence is covered elsewhere.
        linear = run_workload_scenario("city", "grid", "ideal-disk-250m", "cbr", oracle=True)
        vec = run_workload_scenario("city", "vectorized", "ideal-disk-250m", "cbr")
        assert normalized_records(vec.trace) == normalized_records(linear.trace)
        assert vec.stats.summary() == linear.stats.summary()

    def test_highway_seeded_scenario_vectorized_matches_grid(self):
        # The 50-vehicle highway acceptance scenario of the grid backend,
        # now with IDM/MOBIL integration running in array mode.
        grid = run_seeded_scenario("grid")
        vec = run_seeded_scenario("vectorized", vectorized_min_rows=0)
        assert normalized_records(vec.trace) == normalized_records(grid.trace)
        assert vec.stats.summary() == grid.stats.summary()
        assert_array_path(grid, vec, "ideal-disk-250m")


class TestPositionStore:
    def test_add_remove_swaps_last_row(self):
        store = PositionStore()
        store.add(10, Vec2(1.0, 2.0))
        store.add(20, Vec2(3.0, 4.0))
        store.add(30, Vec2(5.0, 6.0))
        assert len(store) == 3
        store.remove(10)
        # Last row (node 30) swapped into the vacated slot 0.
        assert len(store) == 2
        assert store.row_of(30) == 0
        assert store.position_of(30) == Vec2(5.0, 6.0)
        assert store.position_of(20) == Vec2(3.0, 4.0)
        assert 10 not in store

    def test_values_round_trip_bit_exactly(self):
        store = PositionStore()
        x, y = 0.1 + 0.2, 1e308 * 1e-5
        store.add(1, Vec2(x, y), tx_power_dbm=23.5)
        assert store.xs[store.row_of(1)] == x
        assert store.ys[store.row_of(1)] == y
        assert store.tx_power_dbm[store.row_of(1)] == 23.5
        assert store.position_of(1) == Vec2(x, y)

    def test_growth_preserves_rows(self):
        store = PositionStore()
        for i in range(200):  # force several capacity doublings
            store.add(i, Vec2(float(i), float(-i)))
        for i in range(200):
            assert store.position_of(i) == Vec2(float(i), float(-i))
        assert store.ids() == list(range(200))

    def test_managed_rows_excluded_from_pull_list(self):
        store = PositionStore()
        store.add(1, Vec2(0, 0))
        store.add(2, Vec2(0, 0), static=True)
        store.add(3, Vec2(0, 0))
        store.set_managed(3)
        assert store.unmanaged_dynamic_ids() == [1]

    def test_rows_for_preserves_order(self):
        store = PositionStore()
        for i in (5, 7, 9):
            store.add(i, Vec2(0, 0))
        rows = store.rows_for([9, 5, 7])
        assert list(rows) == [store.row_of(9), store.row_of(5), store.row_of(7)]


class TestTxPowerWriteThrough:
    def test_node_tx_power_setter_updates_store(self):
        from repro.sim.node import Node, StaticPositionProvider

        node = Node(node_id=1, position_provider=StaticPositionProvider(Vec2(0, 0)))
        store = PositionStore()
        store.add(1, Vec2(0, 0), tx_power_dbm=node.tx_power_dbm)
        node.bind_position_store(store)
        node.tx_power_dbm = 17.0
        assert store.tx_power_dbm[store.row_of(1)] == 17.0


class TestNumpyGate:
    def test_require_numpy_raises_actionable_error_when_missing(self, monkeypatch):
        monkeypatch.setattr(position_store, "np", None)
        with pytest.raises(RuntimeError, match="requires numpy"):
            require_numpy()

    def test_vectorized_medium_fails_fast_without_numpy(self, monkeypatch):
        monkeypatch.setattr(position_store, "np", None)
        from repro.sim.engine import Simulator
        from repro.sim.medium import WirelessMedium

        with pytest.raises(RuntimeError, match="numpy"):
            WirelessMedium(Simulator(seed=1), spatial_backend="vectorized")
