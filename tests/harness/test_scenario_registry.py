"""Tests for the scenario registry: builders, presets and trace replay."""

import pytest

from repro.harness.runner import ExperimentRunner
from repro.harness.scenario import Scenario, highway_scenario, trace_scenario
from repro.harness.scenarios import (
    SCENARIOS,
    BuiltMobility,
    build_mobility,
    scenario_from_name,
)
from repro.mobility.fcd_trace import record_fcd_trace, write_fcd_trace
from repro.mobility.generator import TrafficDensity, make_highway_scenario
from repro.sim.rng import RandomStreams


class TestRegistry:
    def test_builtin_kinds_registered(self):
        kinds = SCENARIOS.names()
        for expected in ("highway", "manhattan", "random_waypoint", "city", "trace"):
            assert expected in kinds

    def test_unknown_kind_raises_listing_available(self):
        scenario = Scenario(kind="hovercraft")
        with pytest.raises(KeyError) as excinfo:
            build_mobility(scenario, RandomStreams(1).stream("mobility"))
        message = str(excinfo.value)
        assert "hovercraft" in message
        for kind in SCENARIOS.names():
            assert kind in message

    def test_register_and_unregister_scenario(self):
        captured = {}

        class _StubMobility:
            vehicles = []

            def step(self, dt, now=0.0):
                pass

        @SCENARIOS.register("probe-kind")
        def _probe(scenario, rng):
            captured["rng"] = rng
            return BuiltMobility(_StubMobility())

        try:
            with pytest.raises(ValueError):
                SCENARIOS.register("probe-kind")(_probe)
            built = ExperimentRunner().build(Scenario(kind="probe-kind", seed=17))
            # The builder must receive the simulator's seeded "mobility"
            # stream, not some private RNG.
            assert captured["rng"] is built.sim.rng.stream("mobility")
        finally:
            SCENARIOS.unregister("probe-kind")
        assert "probe-kind" not in SCENARIOS

    def test_builders_draw_from_scenario_seed(self):
        def positions(seed):
            built = ExperimentRunner().build(
                highway_scenario(TrafficDensity.SPARSE, max_vehicles=8, seed=seed)
            )
            return [(v.position.x, v.position.y) for v in built.network.mobility.vehicles]

        assert positions(9) == positions(9)
        assert positions(9) != positions(10)

    def test_highway_builder_matches_direct_stream_seeding(self):
        """The registry builder is a pure re-wiring: the same density/config
        populated directly from the scenario's derived "mobility" stream must
        produce identical vehicles."""
        scenario = highway_scenario(TrafficDensity.SPARSE, max_vehicles=8, seed=9)
        built = ExperimentRunner().build(scenario)
        expected = make_highway_scenario(
            TrafficDensity.SPARSE,
            config=scenario.highway,
            max_vehicles=8,
            rng=RandomStreams(9).stream("mobility"),
        )
        got = [(v.position.x, v.position.y) for v in built.network.mobility.vehicles]
        want = [(v.position.x, v.position.y) for v in expected.vehicles]
        assert got == want


class TestPresets:
    def test_unknown_preset_raises_listing_presets(self):
        with pytest.raises(KeyError) as excinfo:
            scenario_from_name("atlantis")
        message = str(excinfo.value)
        assert "atlantis" in message
        assert "city-grid-2km-sparse" in message
        assert "trace:<path>" in message

    def test_bare_kind_resolves(self):
        scenario = scenario_from_name("city")
        assert scenario.kind == "city"

    def test_overrides_apply_on_top(self):
        scenario = scenario_from_name("highway-2km-sparse", duration_s=7.5, seed=42)
        assert scenario.duration_s == 7.5
        assert scenario.seed == 42
        assert scenario.density is TrafficDensity.SPARSE

    def test_every_preset_builds_and_steps(self):
        """Each preset must instantiate into a live network and survive one
        simulated second of mobility stepping."""
        runner = ExperimentRunner()
        for name in SCENARIOS.preset_names():
            scenario = scenario_from_name(name, max_vehicles=10, seed=2)
            built = runner.build(scenario)
            assert built.network.mobility is not None, name
            assert len(built.vehicle_nodes) > 0, name
            built.network.start()
            built.sim.run(until=1.1)

    def test_preset_and_kind_rows_cover_registries(self):
        assert {row["preset"] for row in SCENARIOS.preset_rows()} == set(SCENARIOS.presets)
        assert {row["kind"] for row in SCENARIOS.kind_rows()} == set(SCENARIOS.kinds)
        for row in SCENARIOS.preset_rows():
            assert row["description"]

    def test_city_preset_deploys_rsus(self):
        built = ExperimentRunner().build(
            scenario_from_name("city-grid-2km-sparse", max_vehicles=10)
        )
        assert len(built.network.rsus) > 0
        assert built.road_graph is not None


class TestTraceReplayScenario:
    def _record(self, tmp_path, seed=11, vehicles=10, duration=12.0, dt=0.5):
        source = make_highway_scenario(
            TrafficDensity.SPARSE, seed=seed, max_vehicles=vehicles
        )
        samples = record_fcd_trace(source, duration=duration, dt=dt)
        path = tmp_path / "trace.csv"
        write_fcd_trace(path, samples)
        return path, samples

    def test_trace_prefix_resolution(self, tmp_path):
        path, _ = self._record(tmp_path)
        scenario = scenario_from_name(f"trace:{path}")
        assert scenario.kind == "trace"
        assert scenario.trace_path == str(path)

    def test_trace_prefix_requires_path(self):
        with pytest.raises(ValueError):
            scenario_from_name("trace:")

    def test_trace_kind_requires_trace_path(self):
        with pytest.raises(ValueError):
            build_mobility(Scenario(kind="trace"), RandomStreams(1).stream("mobility"))

    def test_round_trip_reproduces_recorded_positions(self, tmp_path):
        """Record FCD from a highway model, replay it as a scenario, and the
        simulated nodes must sit exactly on the recorded samples."""
        path, samples = self._record(tmp_path)
        scenario = trace_scenario(str(path), duration_s=8.0)
        built = ExperimentRunner().build(scenario)
        built.network.start()
        built.sim.run(until=6.0)
        mobility = built.network.mobility
        # The mobility step cadence (0.5 s, unjittered) matches the recording
        # grid, so the replay clock must land on a recorded sample time...
        assert mobility.time == 6.0
        by_key = {(s.vid, s.time): s for s in samples}
        # ...and every node's position must equal the recorded sample.
        assert len(built.vehicle_nodes) == 10
        for node, vehicle in zip(built.vehicle_nodes, mobility.vehicles):
            sample = by_key[(vehicle.vid, mobility.time)]
            assert node.position.x == sample.x
            assert node.position.y == sample.y
            assert vehicle.speed == sample.speed

    def test_trace_scenario_runs_a_protocol(self, tmp_path):
        path, _ = self._record(tmp_path)
        scenario = trace_scenario(str(path), duration_s=8.0, workload_params={"flow_count": 2})
        result = ExperimentRunner().run(scenario, "Greedy")
        assert result.summary["data_sent"] > 0
        assert result.vehicle_count == 10
