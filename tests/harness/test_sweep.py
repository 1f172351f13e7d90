"""Tests for the replication-aware parallel sweep layer."""

import json
import multiprocessing
import pickle
import sys
import time

import pytest

from repro.harness.reporting import (
    rows_from_json,
    rows_to_json,
    sweep_from_json,
    sweep_to_csv,
    sweep_to_json,
)
from repro.harness.runner import ExperimentRunner, RunRecord
from repro.harness.scenario import Scenario, highway_scenario
from repro.harness.sweep import (
    MetricAggregate,
    ReplicatedResult,
    SweepCell,
    SweepResult,
    aggregate_records,
    build_matrix,
    execute_cells,
    run_cell,
    sweep_replications,
    t_critical_95,
)
from repro.mobility.generator import TrafficDensity
from repro.store.schema import KNOWN_RECORD_SCHEMA_VERSIONS, RECORD_SCHEMA_VERSION

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="process-pool tests assume a POSIX fork context"
)


def _tiny_scenario(name: str = "tiny") -> Scenario:
    return highway_scenario(
        TrafficDensity.SPARSE,
        name=name,
        duration_s=6.0,
        max_vehicles=15,
        workload_params={"flow_count": 2},
    )


def _record(scenario="s", protocol="P", seed=1, **metrics):
    return RunRecord(
        scenario_name=scenario, protocol=protocol, seed=seed, summary=dict(metrics)
    )


# ----------------------------------------------------------------- workers
def _double(value: int) -> int:
    """Module-level so it can be pickled into pool workers."""
    return value * 2


def _sleep_cell(seconds: float) -> float:
    """Module-level sleep worker used by the wall-clock speedup test."""
    time.sleep(seconds)
    return seconds


class TestMatrix:
    def test_matrix_is_scenario_major_then_protocol_then_seed(self):
        cells = build_matrix(
            [_tiny_scenario("a"), _tiny_scenario("b")], ["P1", "P2"], [1, 2]
        )
        assert len(cells) == 8
        assert [(c.scenario.name, c.protocol, c.scenario.seed) for c in cells[:4]] == [
            ("a", "P1", 1),
            ("a", "P1", 2),
            ("a", "P2", 1),
            ("a", "P2", 2),
        ]

    def test_matrix_overrides_scenario_seed(self):
        base = _tiny_scenario().with_overrides(seed=999)
        cells = build_matrix([base], ["P"], [5, 6])
        assert [c.scenario.seed for c in cells] == [5, 6]
        assert base.seed == 999  # the input scenario is untouched

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            build_matrix([_tiny_scenario()], ["P"], [])

    @pytest.mark.parametrize(
        "scenario_names, protocols, seeds, axes",
        [
            # A repeated seed reruns an identical deterministic cell, faking
            # replications with zero added variance; a repeated protocol,
            # workload or radio does the same to every one of its cells.
            (["a"], ["P"], [5, 5], {}),
            (["a"], ["Greedy", "Greedy"], [1, 2], {}),
            (["a"], ["P"], [1], {"workloads": ["cbr", "cbr"]}),
            (["a"], ["P"], [1], {"radios": ["nakagami", "nakagami"]}),
            # Aggregation keys on the scenario name; two scenarios sharing
            # one would be merged into a single corrupted cell.
            (["dup", "dup"], ["P"], [1], {}),
        ],
        ids=["seeds", "protocols", "workloads", "radios", "scenario-names"],
    )
    def test_duplicate_axis_entries_rejected(self, scenario_names, protocols, seeds, axes):
        scenarios = [_tiny_scenario(name) for name in scenario_names]
        with pytest.raises(ValueError, match="unique"):
            build_matrix(scenarios, protocols, seeds, **axes)

    def test_cells_are_picklable(self):
        cells = build_matrix([_tiny_scenario()], ["Greedy"], [1])
        clone = pickle.loads(pickle.dumps(cells[0]))
        assert isinstance(clone, SweepCell)
        assert clone.scenario.name == cells[0].scenario.name

    def test_workload_axis_expands_between_protocol_and_seed(self):
        cells = build_matrix(
            [_tiny_scenario()], ["P1", "P2"], [1, 2], workloads=["cbr", "safety-beacon"]
        )
        assert len(cells) == 8
        assert [(c.protocol, c.scenario.workload, c.scenario.seed) for c in cells[:4]] == [
            ("P1", "cbr", 1),
            ("P1", "cbr", 2),
            ("P1", "safety-beacon", 1),
            ("P1", "safety-beacon", 2),
        ]

    def test_without_workload_axis_scenario_workload_is_kept(self):
        base = _tiny_scenario().with_overrides(workload="poisson")
        cells = build_matrix([base], ["P"], [1])
        assert cells[0].scenario.workload == "poisson"

    def test_workload_axis_resets_foreign_workload_params(self):
        """The scenario's own workload_params belong to its workload; axis
        cells naming other kinds must not inherit them (they would be passed
        as unknown constructor keywords)."""
        base = _tiny_scenario().with_overrides(
            workload="safety-beacon", workload_params={"interval_s": 0.1}
        )
        cells = build_matrix([base], ["P"], [1], workloads=["cbr", "v2i"])
        assert all(c.scenario.workload_params == {} for c in cells)
        # Without the axis the parameters survive untouched.
        (kept,) = build_matrix([base], ["P"], [1])
        assert kept.scenario.workload_params == {"interval_s": 0.1}

    def test_traffic_applies_per_cell_after_the_axis_reset(self):
        """Each axis entry takes the traffic settings its own kind reads,
        below its preset's and its params' values."""
        cells = build_matrix(
            [_tiny_scenario()],
            ["P"],
            [1],
            workloads=["cbr", "safety-beacon", "poisson-bursty", "v2i"],
            traffic={"flows": 3, "packet_interval": 0.5},
        )
        assert [c.scenario.workload_params for c in cells] == [
            {"flow_count": 3, "interval_s": 0.5},
            {},
            {"flow_count": 3},  # the preset fixes mean_interval_s
            {"session_count": 3, "request_interval_s": 0.5},
        ]
        # Without an axis the scenario's own params win over the settings.
        (kept,) = build_matrix([_tiny_scenario()], ["P"], [1], traffic={"flows": 7})
        assert kept.scenario.workload_params == {"flow_count": 2}

    def test_radio_axis_expands_between_workload_and_seed(self):
        cells = build_matrix(
            [_tiny_scenario()],
            ["P1"],
            [1, 2],
            workloads=["cbr", "safety-beacon"],
            radios=["ideal-disk-250m", "dsrc-urban-nlos"],
        )
        assert len(cells) == 8
        combos = [
            (c.scenario.workload, c.scenario.radio_stack, c.scenario.seed) for c in cells
        ]
        assert combos[:4] == [
            ("cbr", "ideal-disk-250m", 1),
            ("cbr", "ideal-disk-250m", 2),
            ("cbr", "dsrc-urban-nlos", 1),
            ("cbr", "dsrc-urban-nlos", 2),
        ]
        assert combos[4][0] == "safety-beacon"

    def test_retired_backend_axis_rejected_before_any_cell(self):
        with pytest.raises(TypeError, match="spatial_backends"):
            build_matrix([_tiny_scenario()], ["P"], [1], spatial_backends=["grid"])

    def test_radio_axis_resets_foreign_radio_params(self):
        """Same reset logic as the workload axis: radio_params parameterise
        the scenario's own stack, not the axis entries."""
        base = _tiny_scenario().with_overrides(
            radio_stack="nakagami", radio_params={"m": 1.0}
        )
        cells = build_matrix(
            [base], ["P"], [1], radios=["ideal-disk-250m", "dsrc-highway-los"]
        )
        assert all(c.scenario.radio_params == {} for c in cells)
        # Without the axis the scenario keeps its own stack and parameters.
        (kept,) = build_matrix([base], ["P"], [1])
        assert kept.scenario.radio_stack == "nakagami"
        assert kept.scenario.radio_params == {"m": 1.0}


class TestExecuteCells:
    def test_serial_execution_preserves_order(self):
        assert execute_cells([3, 1, 2], _double, workers=1) == [6, 2, 4]

    def test_parallel_execution_matches_serial(self):
        items = list(range(10))
        assert execute_cells(items, _double, workers=4) == execute_cells(
            items, _double, workers=1
        )

    def test_four_workers_give_2x_speedup_on_four_cells(self):
        """Acceptance: wall-clock speedup >= 2x at 4 workers on a 4-cell matrix.

        The cells sleep rather than spin so the test measures executor
        concurrency (the property under test) instead of core count, and the
        0.5 s cells leave ~1 s of pool-startup/scheduling headroom inside
        the 2x bound on a loaded CI runner.  The fork context makes worker
        startup cheap and lets the pool pickle this test module's worker on
        platforms whose default start method is spawn/forkserver.
        """
        fork = multiprocessing.get_context("fork")
        cells = [0.5] * 4
        started = time.perf_counter()
        execute_cells(cells, _sleep_cell, workers=1)
        serial_s = time.perf_counter() - started
        started = time.perf_counter()
        execute_cells(cells, _sleep_cell, workers=4, mp_context=fork)
        parallel_s = time.perf_counter() - started
        assert serial_s / parallel_s >= 2.0


class TestAggregation:
    def test_t_critical_values(self):
        assert t_critical_95(1) == 0.0
        assert t_critical_95(2) == pytest.approx(12.706)
        assert t_critical_95(4) == pytest.approx(3.182)
        assert t_critical_95(1000) == pytest.approx(1.960)

    def test_metric_aggregate_against_hand_computed_values(self):
        # values 1, 2, 3: mean 2, sample stddev 1, CI95 = 4.303 * 1 / sqrt(3)
        aggregate = MetricAggregate.of([1.0, 2.0, 3.0])
        assert aggregate.n == 3
        assert aggregate.mean == pytest.approx(2.0)
        assert aggregate.stddev == pytest.approx(1.0)
        assert aggregate.ci95 == pytest.approx(4.303 / 3**0.5, rel=1e-6)

    def test_single_sample_has_zero_spread(self):
        aggregate = MetricAggregate.of([0.75])
        assert aggregate.mean == pytest.approx(0.75)
        assert aggregate.stddev == 0.0
        assert aggregate.ci95 == 0.0

    def test_empty_sample(self):
        assert MetricAggregate.of([]) == MetricAggregate(0.0, 0.0, 0.0, 0)

    def test_aggregate_records_groups_by_cell(self):
        records = [
            _record(protocol="A", seed=1, delivery_ratio=0.4),
            _record(protocol="A", seed=2, delivery_ratio=0.6),
            _record(protocol="B", seed=1, delivery_ratio=0.9),
        ]
        replicated = aggregate_records(records)
        assert [(r.protocol, r.seeds) for r in replicated] == [("A", (1, 2)), ("B", (1,))]
        a = replicated[0]
        assert a.metric("delivery_ratio").mean == pytest.approx(0.5)
        assert a.metric("delivery_ratio").n == 2
        assert a.replications == 2

    def test_metrics_present_in_only_some_seeds_use_available_values(self):
        first = _record(seed=1, delivery_ratio=0.4)
        second = RunRecord(
            scenario_name="s",
            protocol="P",
            seed=2,
            summary={"delivery_ratio": 0.6},
            extra={"path_stretch": 1.5},
        )
        (replicated,) = aggregate_records([first, second])
        assert replicated.metric("path_stretch").n == 1
        assert replicated.metric("path_stretch").mean == pytest.approx(1.5)

    def test_row_flattens_mean_and_ci(self):
        (replicated,) = aggregate_records(
            [_record(seed=s, delivery_ratio=v) for s, v in ((1, 0.4), (2, 0.6))]
        )
        row = replicated.row(["delivery_ratio"])
        assert row["scenario"] == "s"
        assert row["replications"] == 2
        assert row["delivery_ratio_mean"] == pytest.approx(0.5)
        assert row["delivery_ratio_ci95"] > 0.0
        assert row["delivery_ratio_n"] == 2

    def test_row_exposes_per_metric_sample_size(self):
        """A metric absent from some seeds must not masquerade as aggregated
        over all replications."""
        first = _record(seed=1, delivery_ratio=0.4)
        second = RunRecord(
            scenario_name="s",
            protocol="P",
            seed=2,
            summary={"delivery_ratio": 0.6},
            extra={"path_stretch": 1.5},
        )
        (replicated,) = aggregate_records([first, second])
        row = replicated.row(["path_stretch"])
        assert row["replications"] == 2
        assert row["path_stretch_n"] == 1


class TestSweepReplications:
    def test_parallel_and_serial_sweeps_are_byte_identical(self):
        """Acceptance: workers=4 and workers=1 must aggregate identically."""
        scenarios = [_tiny_scenario()]
        protocols = ["Greedy", "Flooding"]
        seeds = [1, 2]
        serial = sweep_replications(scenarios, protocols, seeds, workers=1)
        parallel = sweep_replications(scenarios, protocols, seeds, workers=4)
        serial_json = json.dumps(
            [r.to_dict() for r in serial.replicated], sort_keys=True
        )
        parallel_json = json.dumps(
            [r.to_dict() for r in parallel.replicated], sort_keys=True
        )
        assert serial_json == parallel_json
        # Per-run records agree as well, apart from host wall-clock timing.
        strip = lambda record: dict(record.to_dict(), wall_clock_s=0.0)  # noqa: E731
        assert list(map(strip, serial.records)) == list(map(strip, parallel.records))

    def test_sweep_runs_every_cell_and_aggregates_seeds(self):
        result = sweep_replications([_tiny_scenario()], ["Greedy"], [1, 2, 3])
        assert [r.seed for r in result.records] == [1, 2, 3]
        (replicated,) = result.replicated
        assert replicated.seeds == (1, 2, 3)
        assert replicated.metric("delivery_ratio").n == 3

    @pytest.mark.parametrize("workers", [0, -2])
    def test_worker_counts_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            sweep_replications([_tiny_scenario()], ["Greedy"], [1], workers=workers)

    def test_retired_staging_keywords_are_named_errors(self):
        """Every cell builds its own mobility; the staging keywords fail by name."""
        scenario = _tiny_scenario()
        with pytest.raises(TypeError, match="shared_mobility"):
            sweep_replications([scenario], ["Greedy"], [1], shared_mobility=True)
        with pytest.raises(TypeError, match="prebuilt"):
            ExperimentRunner().run(scenario, "Greedy", prebuilt=None)

    def test_run_cell_uses_a_fresh_runner(self):
        cell = build_matrix([_tiny_scenario()], ["Greedy"], [1])[0]
        (first, first_lines), (second, second_lines) = run_cell(cell), run_cell(cell)
        assert first.summary == second.summary
        # Unmonitored cells emit no telemetry.
        assert first_lines == second_lines == []

    def test_workload_axis_aggregates_per_workload_cell(self):
        result = sweep_replications(
            [_tiny_scenario()],
            ["Greedy"],
            [1, 2],
            workloads=["cbr", "safety-beacon"],
            traffic={"flows": 2},
        )
        assert len(result.records) == 4
        assert [(r.workload, r.seed) for r in result.records] == [
            ("cbr", 1), ("cbr", 2), ("safety-beacon", 1), ("safety-beacon", 2),
        ]
        assert [(r.workload, r.seeds) for r in result.replicated] == [
            ("cbr", (1, 2)), ("safety-beacon", (1, 2)),
        ]
        for row in result.rows(["delivery_ratio"]):
            assert row["workload"] in ("cbr", "safety-beacon")

    def test_radio_axis_aggregates_per_radio_cell(self):
        result = sweep_replications(
            [_tiny_scenario()],
            ["Greedy"],
            [1, 2],
            radios=["ideal-disk-250m", "dsrc-congested"],
        )
        assert len(result.records) == 4
        assert [(r.radio, r.seed) for r in result.records] == [
            ("ideal-disk-250m", 1), ("ideal-disk-250m", 2),
            ("dsrc-congested", 1), ("dsrc-congested", 2),
        ]
        assert [(r.radio, r.seeds) for r in result.replicated] == [
            ("ideal-disk-250m", (1, 2)), ("dsrc-congested", (1, 2)),
        ]
        for row in result.rows(["delivery_ratio"]):
            assert row["radio"] in ("ideal-disk-250m", "dsrc-congested")

    def test_parallel_and_serial_radio_sweeps_are_byte_identical(self):
        """The PR 2 equivalence guarantee extends to non-default radios: the
        random channel models (shadowing, fading, probabilistic reception)
        must draw only from per-run seeded streams, never from schedule- or
        process-dependent state."""
        scenarios = [_tiny_scenario()]
        serial = sweep_replications(
            scenarios, ["Greedy"], [1, 2], workers=1,
            radios=["dsrc-urban-nlos", "nakagami"],
        )
        parallel = sweep_replications(
            scenarios, ["Greedy"], [1, 2], workers=2,
            radios=["dsrc-urban-nlos", "nakagami"],
        )
        strip = lambda record: dict(record.to_dict(), wall_clock_s=0.0)  # noqa: E731
        assert list(map(strip, serial.records)) == list(map(strip, parallel.records))
        assert [r.to_dict() for r in serial.replicated] == [
            r.to_dict() for r in parallel.replicated
        ]

    def test_parallel_and_serial_workload_sweeps_are_byte_identical(self):
        """The PR 2 equivalence guarantee extends to non-cbr workloads: the
        workload axis must not introduce schedule-dependent randomness."""
        scenarios = [_tiny_scenario().with_overrides(rsu_spacing_m=800.0)]
        kwargs = dict(workloads=["safety-beacon", "v2i"], traffic={"flows": 2})
        serial = sweep_replications(scenarios, ["Greedy"], [1, 2], workers=1, **kwargs)
        parallel = sweep_replications(scenarios, ["Greedy"], [1, 2], workers=2, **kwargs)
        strip = lambda record: dict(record.to_dict(), wall_clock_s=0.0)  # noqa: E731
        assert list(map(strip, serial.records)) == list(map(strip, parallel.records))
        assert [r.to_dict() for r in serial.replicated] == [
            r.to_dict() for r in parallel.replicated
        ]


def _mobility_scenario(**overrides) -> Scenario:
    base = dict(name="cell-mobility", kind="highway", duration_s=4.0, seed=11, max_vehicles=10)
    base.update(overrides)
    return Scenario(**base)


def _mobility_state(built):
    """The built substrate as plain numbers, plus the mobility stream's next draw."""
    vehicles = tuple(
        (v.position.x, v.position.y, v.velocity.x, v.velocity.y)
        for v in built.network.mobility.vehicles
    )
    return vehicles, built.sim.rng.stream("mobility").random()


class TestCellMobility:
    """Every sweep cell builds its own mobility from its own streams, so the
    substrate a cell sees depends only on the scenario's mobility axes."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"name": "renamed"},
            {"workload": "safety-beacon"},
            {"workload_params": {"interval_s": 0.5}},
            {"radio_stack": "dsrc-highway-los"},
            {"radio_params": {"communication_range_m": 100.0}},
            {"bus_count": 2},
        ],
        ids=["name", "workload", "workload-params", "radio", "radio-params", "buses"],
    )
    def test_non_mobility_axes_leave_the_build_unchanged(self, overrides):
        runner = ExperimentRunner()
        base = _mobility_state(runner.build(_mobility_scenario()))
        assert _mobility_state(runner.build(_mobility_scenario(**overrides))) == base

    @pytest.mark.parametrize(
        "overrides",
        [{"seed": 12}, {"max_vehicles": 11}, {"kind": "manhattan"}],
        ids=["seed", "max-vehicles", "kind"],
    )
    def test_mobility_axes_change_the_build(self, overrides):
        runner = ExperimentRunner()
        base = _mobility_state(runner.build(_mobility_scenario()))
        assert _mobility_state(runner.build(_mobility_scenario(**overrides))) != base

    def test_each_build_owns_its_mobility(self):
        runner = ExperimentRunner()
        first = runner.build(_mobility_scenario())
        second = runner.build(_mobility_scenario())
        assert first.network.mobility is not second.network.mobility
        first.sim.run(until=2.0)
        # Advancing one cell's vehicles leaves the other's untouched.
        assert _mobility_state(second) == _mobility_state(
            runner.build(_mobility_scenario())
        )
        assert _mobility_state(first) != _mobility_state(second)


class TestPersistence:
    def _sweep_result(self):
        records = [
            _record(seed=1, delivery_ratio=0.4, mean_delay_s=0.2),
            _record(seed=2, delivery_ratio=0.6, mean_delay_s=0.4),
        ]
        return SweepResult(records=records, replicated=aggregate_records(records))

    def test_sweep_json_round_trip(self, tmp_path):
        result = self._sweep_result()
        path = tmp_path / "sweep.json"
        sweep_to_json(path, result)
        loaded = sweep_from_json(path)
        assert loaded.records == result.records
        assert loaded.replicated == result.replicated

    def test_sweep_csv_contains_aggregate_columns(self, tmp_path):
        path = tmp_path / "sweep.csv"
        sweep_to_csv(path, self._sweep_result(), metric_names=["delivery_ratio"])
        header, row = path.read_text().strip().splitlines()
        assert header == (
            "scenario,protocol,workload,radio,replications,"
            "delivery_ratio_mean,delivery_ratio_ci95,delivery_ratio_n"
        )
        assert row.startswith("s,P,cbr,ideal-disk-250m,2,0.5")

    def test_rows_json_round_trip(self, tmp_path):
        rows = [{"vehicles": 100, "speedup": 5.9}, {"vehicles": 400, "speedup": 6.2}]
        path = tmp_path / "rows.json"
        rows_to_json(path, rows, metadata={"benchmark": "medium_scaling"})
        assert rows_from_json(path) == rows
        payload = json.loads(path.read_text())
        assert payload["metadata"]["benchmark"] == "medium_scaling"

    def test_replicated_result_dict_round_trip(self):
        (replicated,) = aggregate_records(
            [_record(seed=1, delivery_ratio=0.5), _record(seed=2, delivery_ratio=0.7)]
        )
        assert ReplicatedResult.from_dict(replicated.to_dict()) == replicated

    def test_records_are_picklable(self):
        record = _record(delivery_ratio=0.5)
        assert pickle.loads(pickle.dumps(record)) == record


class TestSchemaVersioning:
    """Persisted payloads carry an explicit schema version; readers are picky."""

    def test_record_payload_is_stamped(self):
        payload = _record(delivery_ratio=0.5).to_dict()
        assert payload["schema_version"] == RECORD_SCHEMA_VERSION

    def test_sweep_payload_is_stamped(self, tmp_path):
        records = [_record(seed=1, delivery_ratio=0.4)]
        result = SweepResult(records=records, replicated=aggregate_records(records))
        path = tmp_path / "sweep.json"
        sweep_to_json(path, result)
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == RECORD_SCHEMA_VERSION
        assert payload["records"][0]["schema_version"] == RECORD_SCHEMA_VERSION

    def test_record_from_dict_rejects_unknown_version(self):
        payload = dict(_record().to_dict(), schema_version=99)
        with pytest.raises(ValueError, match="schema_version 99"):
            RunRecord.from_dict(payload)

    def test_record_from_dict_rejects_non_integer_version(self):
        payload = dict(_record().to_dict(), schema_version="two")
        with pytest.raises(ValueError, match="non-integer"):
            RunRecord.from_dict(payload)

    def test_unstamped_legacy_record_still_loads(self):
        payload = _record(delivery_ratio=0.5).to_dict()
        del payload["schema_version"]
        assert RunRecord.from_dict(payload) == _record(delivery_ratio=0.5)

    def test_sweep_from_json_rejects_unknown_version(self, tmp_path):
        records = [_record(seed=1)]
        result = SweepResult(records=records, replicated=aggregate_records(records))
        path = tmp_path / "sweep.json"
        sweep_to_json(path, result)
        payload = json.loads(path.read_text())
        payload["schema_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="sweep artifact has schema_version 99"):
            sweep_from_json(path)

    def test_error_names_the_versions_this_build_reads(self):
        with pytest.raises(ValueError) as excinfo:
            RunRecord.from_dict(dict(_record().to_dict(), schema_version=99))
        message = str(excinfo.value)
        for version in KNOWN_RECORD_SCHEMA_VERSIONS:
            assert str(version) in message
