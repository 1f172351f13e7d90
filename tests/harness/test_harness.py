"""Tests for the experiment harness (scenarios, runner, sweeps, comparison, reporting)."""

import pytest

from repro.core.taxonomy import PROTOCOLS, Category
from repro.harness.compare import (
    DEFAULT_REPRESENTATIVES,
    best_in_metric,
    category_comparison,
    category_representatives,
)
from repro.harness.reporting import format_table, rows_to_csv, summarize_results
from repro.harness.runner import ExperimentRunner, RunResult
from repro.harness.scenario import Scenario, highway_scenario, manhattan_scenario
from repro.harness.sweep import sweep_replications
from repro.mobility.generator import TrafficDensity
from repro.sim.statistics import StatsCollector
from repro.workloads.cbr import CbrFlow, CbrWorkload


def _small_scenario(**overrides) -> Scenario:
    base = highway_scenario(
        TrafficDensity.SPARSE,
        duration_s=12.0,
        max_vehicles=25,
        workload_params={"flow_count": 2},
        seed=3,
    )
    return base.with_overrides(**overrides) if overrides else base


class TestScenario:
    def test_highway_and_manhattan_constructors(self):
        highway = highway_scenario(TrafficDensity.CONGESTED)
        urban = manhattan_scenario(TrafficDensity.SPARSE)
        assert highway.kind == "highway"
        assert urban.kind == "manhattan"
        assert "congested" in highway.name
        assert "sparse" in urban.name

    def test_with_overrides_returns_modified_copy(self):
        scenario = _small_scenario()
        other = scenario.with_overrides(duration_s=99.0, name="changed")
        assert other.duration_s == 99.0
        assert scenario.duration_s == 12.0
        assert other.name == "changed"

    def test_nan_duration_rejected_by_name(self):
        from repro.harness.scenarios import scenario_from_name

        with pytest.raises(ValueError, match="duration_s"):
            scenario_from_name("highway-2km-normal", duration_s=float("nan"))

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration_s"):
            _small_scenario(duration_s=-1.0)

    def test_negative_drain_rejected(self):
        with pytest.raises(ValueError, match="drain_s"):
            _small_scenario(drain_s=-1.0)

    def test_negative_max_vehicles_rejected(self):
        with pytest.raises(ValueError, match="max_vehicles"):
            _small_scenario(max_vehicles=-5)

    @pytest.mark.parametrize("backend", ["grid", "vectorized", "linear"])
    def test_retired_spatial_backend_is_a_named_error(self, backend):
        """One delivery path: the backend field fails by name, whatever its value."""
        with pytest.raises(TypeError, match="spatial_backend"):
            Scenario(spatial_backend=backend)

    def test_zero_horizon_and_fleet_stay_legal(self):
        scenario = _small_scenario(duration_s=0.0, drain_s=0.0, max_vehicles=0)
        assert (scenario.duration_s, scenario.drain_s, scenario.max_vehicles) == (0.0, 0.0, 0)

    @pytest.mark.parametrize("retired", ["flows", "default_flow_count", "flow_template"])
    def test_retired_traffic_fields_are_named_errors(self, retired):
        """Traffic moved to the workloads; the old fields fail by name."""
        from repro.harness.scenarios import scenario_from_name

        for make in (
            lambda: Scenario(**{retired: None}),
            lambda: _small_scenario(**{retired: None}),
            lambda: scenario_from_name("highway-2km-normal", **{retired: None}),
        ):
            with pytest.raises(TypeError, match=retired):
                make()

    def test_cbr_traffic_defaults(self):
        workload = CbrWorkload()
        assert workload.packet_count > 0
        assert workload.interval_s > 0


class TestRunner:
    def test_build_creates_vehicles_and_rsus(self):
        runner = ExperimentRunner()
        scenario = _small_scenario(rsu_spacing_m=500.0)
        built = runner.build(scenario)
        assert len(built.vehicle_nodes) > 0
        assert len(built.network.rsus) == 4
        assert built.road_graph is not None

    def test_run_produces_summary_and_flows(self):
        runner = ExperimentRunner()
        result = runner.run(_small_scenario(), "Greedy")
        assert isinstance(result, RunResult)
        assert result.protocol == "Greedy"
        assert 0.0 <= result.delivery_ratio <= 1.0
        assert result.summary["data_sent"] > 0
        assert result.flow_details
        assert result.vehicle_count > 0
        assert "path_stretch" in result.extra
        row = result.row()
        assert row["scenario"] == result.scenario_name

    def test_same_seed_is_reproducible(self):
        runner = ExperimentRunner()
        first = runner.run(_small_scenario(), "Greedy")
        second = runner.run(_small_scenario(), "Greedy")
        assert first.summary == second.summary

    def test_different_seeds_differ(self):
        runner = ExperimentRunner()
        first = runner.run(_small_scenario(), "Greedy")
        second = runner.run(_small_scenario(seed=77), "Greedy")
        assert first.summary != second.summary

    def test_explicit_flows_are_used(self):
        flow = CbrFlow(source_index=0, destination_index=1, start_time_s=2.0, packet_count=3)
        scenario = _small_scenario(workload_params={"flows": [flow]})
        runner = ExperimentRunner()
        result = runner.run(scenario, "Flooding")
        assert result.summary["data_sent"] == 3.0

    def test_manhattan_scenario_runs(self):
        scenario = manhattan_scenario(
            TrafficDensity.SPARSE,
            duration_s=10.0,
            max_vehicles=20,
            workload_params={"flow_count": 2},
        )
        runner = ExperimentRunner()
        result = runner.run(scenario, "Greedy")
        assert result.summary["data_sent"] > 0

    def test_unknown_radio_stack_rejected(self):
        scenario = _small_scenario(radio_stack="warp-drive")
        runner = ExperimentRunner()
        with pytest.raises(KeyError):
            runner.run(scenario, "Greedy")

    def test_shadowing_propagation_runs(self):
        scenario = _small_scenario(radio_stack="shadowing")
        runner = ExperimentRunner()
        result = runner.run(scenario, "Flooding")
        assert result.summary["data_sent"] > 0

    def _waypoint_scenario(self, seed: int) -> Scenario:
        return Scenario(
            name="rwp",
            kind="random_waypoint",
            duration_s=10.0,
            max_vehicles=12,
            workload_params={"flow_count": 2},
            seed=seed,
        )

    def _waypoint_positions(self, seed: int):
        built = ExperimentRunner().build(self._waypoint_scenario(seed))
        mobility = built.network.mobility
        for _ in range(10):
            mobility.step(0.5)
        return [(v.position.x, v.position.y) for v in mobility.vehicles]

    def test_random_waypoint_trajectories_follow_scenario_seed(self):
        """Regression: random-waypoint mobility used a fixed Random(0)
        regardless of ``scenario.seed``, so every seed produced the same
        trajectories."""
        assert self._waypoint_positions(3) == self._waypoint_positions(3)
        assert self._waypoint_positions(3) != self._waypoint_positions(77)

    def test_random_waypoint_runs_differ_across_seeds(self):
        runner = ExperimentRunner()
        first = runner.run(self._waypoint_scenario(3), "Flooding")
        second = runner.run(self._waypoint_scenario(77), "Flooding")
        assert first.summary != second.summary

    def test_ideal_hop_samples_do_not_leak_across_runs(self):
        """Regression: the ideal-hop samples lived on the runner and were not
        reset on the <2-vehicle early return, so a reused runner carried the
        previous run's samples around."""
        runner = ExperimentRunner()
        first = runner.run(_small_scenario(), "Greedy")
        assert "mean_ideal_hops" in first.extra
        # A run with a single vehicle schedules no flows; it must neither
        # report path metrics nor retain samples from the previous run.
        lonely = runner.run(_small_scenario(max_vehicles=1), "Greedy")
        assert "mean_ideal_hops" not in lonely.extra
        assert "path_stretch" not in lonely.extra
        assert not getattr(runner, "_ideal_hop_samples", [])
        # And the fix must not disturb a following normal run.
        second = runner.run(_small_scenario(), "Greedy")
        assert second.extra["mean_ideal_hops"] == pytest.approx(
            first.extra["mean_ideal_hops"]
        )

    def test_run_result_to_record_round_trip(self):
        runner = ExperimentRunner()
        result = runner.run(_small_scenario(), "Greedy")
        record = result.to_record()
        assert record.seed == 3
        assert record.scenario_name == result.scenario_name
        assert record.summary == result.summary
        assert record.extra == result.extra
        assert record.metrics["delivery_ratio"] == result.summary["delivery_ratio"]
        rebuilt = type(record).from_dict(record.to_dict())
        assert rebuilt == record


class TestSweeps:
    def test_density_sweep_covers_requested_densities(self):
        base = _small_scenario()
        scenarios = [
            base.with_overrides(density=density, name=f"{base.name}-{density.value}")
            for density in (TrafficDensity.SPARSE, TrafficDensity.NORMAL)
        ]
        result = sweep_replications(scenarios, ["Greedy"], seeds=[base.seed])
        names = {record.scenario_name for record in result.records}
        assert len(result.records) == 2
        assert any("sparse" in name for name in names)
        assert any("normal" in name for name in names)


class TestComparison:
    def _fake_result(self, protocol, scenario="s", pdr=0.5):
        stats = StatsCollector()
        summary = {
            "delivery_ratio": pdr,
            "mean_delay_s": 0.1,
            "overhead_ratio": 2.0,
            "transmissions_per_delivery": 4.0,
            "mean_route_lifetime_s": 3.0,
            "mac_collisions": 10.0,
        }
        return RunResult(scenario, protocol, summary, stats, extra={"path_stretch": 1.2})

    def test_default_representatives_cover_all_categories(self):
        assert set(DEFAULT_REPRESENTATIVES) == set(Category)
        chosen = category_representatives({Category.GEOGRAPHIC: "Zone"})
        assert chosen[Category.GEOGRAPHIC] == "Zone"
        assert chosen[Category.MOBILITY] == DEFAULT_REPRESENTATIVES[Category.MOBILITY]

    def test_protocol_categories(self):
        assert PROTOCOLS["AODV"].category is Category.CONNECTIVITY
        assert PROTOCOLS["Greedy"].category is Category.GEOGRAPHIC

    def test_category_comparison_groups_and_averages(self):
        results = [
            self._fake_result("AODV", pdr=0.4),
            self._fake_result("DSR", pdr=0.6),
            self._fake_result("Greedy", pdr=0.8),
        ]
        rows = category_comparison(results)
        by_category = {row["category"]: row for row in rows}
        assert by_category["connectivity"]["delivery_ratio"] == pytest.approx(0.5)
        assert by_category["geographic"]["delivery_ratio"] == pytest.approx(0.8)
        assert "broadcasting storm" in by_category["connectivity"]["paper_cons"]

    def test_best_in_metric(self):
        results = [self._fake_result("AODV", pdr=0.4), self._fake_result("Greedy", pdr=0.9)]
        best = best_in_metric(results, "delivery_ratio")
        assert best.protocol == "Greedy"
        worst = best_in_metric(results, "delivery_ratio", largest=False)
        assert worst.protocol == "AODV"
        assert best_in_metric([], "delivery_ratio") is None


class TestReporting:
    ROWS = [
        {"protocol": "AODV", "pdr": 0.51234, "hops": 3},
        {"protocol": "Greedy", "pdr": 0.76543, "hops": 2},
    ]

    def test_format_table_alignment_and_precision(self):
        table = format_table(self.ROWS, precision=2, title="Results")
        lines = table.splitlines()
        assert lines[0] == "Results"
        assert "protocol" in lines[1]
        assert "0.51" in table and "0.77" in table

    def test_format_table_empty(self):
        assert format_table([], title="empty") == "empty"

    def test_format_table_column_selection(self):
        table = format_table(self.ROWS, columns=["protocol"])
        assert "pdr" not in table

    def test_rows_to_csv_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        rows_to_csv(path, self.ROWS)
        text = path.read_text()
        assert text.splitlines()[0] == "protocol,pdr,hops"
        assert "Greedy" in text

    def test_summarize_results_groups_and_averages(self):
        rows = [
            {"protocol": "AODV", "pdr": 0.4},
            {"protocol": "AODV", "pdr": 0.6},
            {"protocol": "Greedy", "pdr": 0.8},
        ]
        summary = {row["protocol"]: row for row in summarize_results(rows, "protocol")}
        assert summary["AODV"]["pdr"] == pytest.approx(0.5)
        assert summary["AODV"]["runs"] == 2
