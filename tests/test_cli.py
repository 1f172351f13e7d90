"""Tests for the command-line interface."""

import pytest

from repro.cli import _check_traffic, build_parser, main
from repro.harness.scenario import Scenario
from repro.workloads.cbr import CbrFlow
from repro.workloads.registry import with_traffic


class TestParser:
    @pytest.mark.parametrize(
        "kind", ["protocols", "scenarios", "workloads", "radios", "monitors", "lint-rules"]
    )
    def test_list_subcommand_parses(self, kind):
        args = build_parser().parse_args(["list", kind])
        assert args.command == "list"
        assert args.kind == kind

    def test_list_rejects_unknown_kind(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["list", "hovercraft"])

    def test_run_subcommand_defaults(self):
        args = build_parser().parse_args(["run", "AODV"])
        assert args.protocol == "AODV"
        assert args.kind == "highway"
        # Scenario flags default to None sentinels so presets keep their own
        # values; the classic --kind path falls back to normal density.
        assert args.density is None

    def test_compare_accepts_multiple_protocols(self):
        args = build_parser().parse_args(["compare", "AODV", "Greedy", "--density", "sparse"])
        assert args.protocols == ["AODV", "Greedy"]
        assert args.density == "sparse"

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sweep_subcommand_defaults(self):
        args = build_parser().parse_args(["sweep", "AODV", "Greedy"])
        assert args.command == "sweep"
        assert args.protocols == ["AODV", "Greedy"]
        assert args.seeds == [1, 2, 3]
        assert args.workers == 1
        assert args.store is None
        assert args.resume is True
        assert args.shard is None

    def test_sweep_subcommand_accepts_seeds_and_workers(self):
        args = build_parser().parse_args(
            ["sweep", "Greedy", "--seeds", "4", "5", "--workers", "2", "--json", "out.json"]
        )
        assert args.seeds == [4, 5]
        assert args.workers == 2
        assert args.json == "out.json"

    def test_sweep_store_flags_parse(self):
        args = build_parser().parse_args(
            ["sweep", "Greedy", "--store", "mystore", "--no-resume", "--shard", "1/2"]
        )
        assert args.store == "mystore"
        assert args.resume is False
        assert args.shard == "1/2"

    def test_sweep_workers_default_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        args = build_parser().parse_args(["sweep", "Greedy"])
        assert args.workers == 3
        # An explicit flag still wins over the environment.
        args = build_parser().parse_args(["sweep", "Greedy", "--workers", "2"])
        assert args.workers == 2
        # Garbage in the variable falls back to the serial default.
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "many")
        assert build_parser().parse_args(["sweep", "Greedy"]).workers == 1

    def test_store_subcommand_parses(self):
        args = build_parser().parse_args(["store", "verify", "somewhere"])
        assert args.command == "store"
        assert args.action == "verify"
        assert args.store_dir == "somewhere"
        assert args.limit is None

    def test_scenario_flag_parses(self):
        args = build_parser().parse_args(["run", "Greedy", "--scenario", "city-grid-2km-sparse"])
        assert args.scenario == "city-grid-2km-sparse"

    def test_preset_shape_survives_default_arguments(self):
        """Regression: argparse defaults used to clobber a preset's own
        population cap / duration / RSU plan even when the user never passed
        the flags."""
        from repro.cli import _build_scenario

        args = build_parser().parse_args(["run", "Greedy", "--scenario", "highway-10km-congested"])
        scenario = _build_scenario(args)
        assert scenario.max_vehicles == 600
        assert scenario.rsu_spacing_m == 2000.0
        # An explicit flag still wins.
        args = build_parser().parse_args(
            ["run", "Greedy", "--scenario", "highway-10km-congested", "--max-vehicles", "40"]
        )
        assert _build_scenario(args).max_vehicles == 40

    def test_kind_path_uses_documented_fallbacks(self):
        from repro.cli import _build_scenario
        from repro.mobility.generator import TrafficDensity

        args = build_parser().parse_args(["run", "Greedy"])
        scenario = _build_scenario(args)
        assert scenario.name == "highway-normal"
        assert scenario.density is TrafficDensity.NORMAL
        assert scenario.duration_s == 30.0
        assert scenario.max_vehicles == 100
        assert scenario.seed == 1
        # Traffic is the cbr workload's own defaults: nothing on the scenario.
        assert (scenario.workload, scenario.workload_params) == ("cbr", {})

    def test_bare_kind_via_scenario_matches_kind_flag(self):
        """--scenario highway and --kind highway must run the same experiment
        (same CLI fallback defaults)."""
        from repro.cli import _build_scenario

        via_scenario = _build_scenario(
            build_parser().parse_args(["run", "Greedy", "--scenario", "highway"])
        )
        via_kind = _build_scenario(
            build_parser().parse_args(["run", "Greedy", "--kind", "highway"])
        )
        assert via_scenario == via_kind

    def test_density_composes_with_scenario_flag(self):
        """Regression: --density was silently dropped when --scenario was
        given (its old non-None default made an explicit flag look unset)."""
        from repro.cli import _build_scenario
        from repro.mobility.generator import TrafficDensity

        args = build_parser().parse_args(
            ["run", "Greedy", "--scenario", "city", "--density", "congested"]
        )
        assert _build_scenario(args).density is TrafficDensity.CONGESTED
        # Without the flag, the preset's own density survives.
        args = build_parser().parse_args(["run", "Greedy", "--scenario", "city-grid-2km-sparse"])
        assert _build_scenario(args).density is TrafficDensity.SPARSE

    def test_kind_accepts_registered_kinds(self):
        args = build_parser().parse_args(["run", "Greedy", "--kind", "city"])
        assert args.kind == "city"

    def test_run_workload_flag_lands_on_the_scenario(self):
        from repro.cli import _build_scenario

        args = build_parser().parse_args(["run", "Greedy", "--workload", "safety-beacon"])
        assert _build_scenario(args).workload == "safety-beacon"
        # Without the flag the scenario keeps the cbr default.
        args = build_parser().parse_args(["run", "Greedy"])
        assert _build_scenario(args).workload == "cbr"

    def test_sweep_workload_flag_accepts_a_matrix_axis(self):
        args = build_parser().parse_args(
            ["sweep", "Greedy", "--workload", "cbr", "safety-beacon"]
        )
        assert args.workload == ["cbr", "safety-beacon"]

    def test_run_radio_flag_lands_on_the_scenario(self):
        from repro.cli import _build_scenario

        args = build_parser().parse_args(["run", "Greedy", "--radio", "dsrc-urban-nlos"])
        assert _build_scenario(args).radio_stack == "dsrc-urban-nlos"
        # Without the flag the scenario keeps the shim default (resolved to
        # ideal-disk-250m by the runner).
        args = build_parser().parse_args(["run", "Greedy"])
        assert _build_scenario(args).radio_stack is None

    def test_scalar_overrides_reset_stale_params(self):
        """Regression: overriding --radio/--workload on a scenario that
        carries its own radio_params/workload_params must reset them -- the
        parameters belong to the scenario's own kind and would be passed as
        unknown constructor keywords to the named one (raw TypeError in the
        runner instead of a usage error)."""
        from repro.cli import _build_scenario
        from repro.harness.scenarios import SCENARIOS
        from repro.harness.scenario import Scenario

        SCENARIOS.register_preset(
            "test-nakagami-city",
            lambda: Scenario(
                name="test-nakagami-city",
                kind="highway",
                radio_stack="nakagami",
                radio_params={"m": 1.0},
                workload="safety-beacon",
                workload_params={"interval_s": 0.1},
            ),
            "test preset with parameterised radio and workload",
        )
        try:
            args = build_parser().parse_args(
                ["run", "Greedy", "--scenario", "test-nakagami-city",
                 "--radio", "ideal-disk-250m", "--workload", "cbr"]
            )
            scenario = _build_scenario(args)
            assert scenario.radio_stack == "ideal-disk-250m"
            assert scenario.radio_params == {}
            assert scenario.workload == "cbr"
            assert scenario.workload_params == {}
            # Without the overrides the preset keeps its own parameters.
            args = build_parser().parse_args(
                ["run", "Greedy", "--scenario", "test-nakagami-city"]
            )
            kept = _build_scenario(args)
            assert kept.radio_params == {"m": 1.0}
            assert kept.workload_params == {"interval_s": 0.1}
        finally:
            SCENARIOS.unregister_preset("test-nakagami-city")

    def test_sweep_radio_flag_accepts_a_matrix_axis(self):
        args = build_parser().parse_args(
            ["sweep", "Greedy", "--radio", "ideal-disk-250m", "dsrc-urban-nlos"]
        )
        assert args.radio == ["ideal-disk-250m", "dsrc-urban-nlos"]

    def test_cli_and_scenario_flow_count_defaults_agree(self):
        """Regression: the CLI hardcoded 5 while Scenario defaulted to 6.
        Both now resolve to the cbr constructor's own default."""
        from repro.cli import _run_scenario
        from repro.harness.scenario import Scenario
        from repro.workloads import WORKLOADS

        def flow_count(scenario):
            return WORKLOADS.resolve(scenario.workload, **scenario.workload_params).flow_count

        args = build_parser().parse_args(["run", "Greedy"])
        assert flow_count(_run_scenario(args)) == flow_count(Scenario()) == 5


class TestCommands:
    def test_protocols_lists_all_categories(self, capsys):
        assert main(["list", "protocols"]) == 0
        output = capsys.readouterr().out
        for category in ("connectivity", "mobility", "infrastructure", "geographic", "probability"):
            assert category in output
        assert "AODV" in output and "Yan-TBP" in output

    def test_run_unknown_protocol_fails_cleanly(self, capsys):
        assert main(["run", "NotAProtocol"]) == 2
        assert "unknown protocol" in capsys.readouterr().err

    def test_run_small_scenario(self, capsys, tmp_path):
        csv_path = tmp_path / "result.csv"
        code = main(
            [
                "run",
                "Greedy",
                "--duration", "8",
                "--max-vehicles", "20",
                "--flows", "2",
                "--packets-per-flow", "4",
                "--density", "sparse",
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "delivery_ratio" in output
        assert csv_path.exists()
        assert "Greedy" in csv_path.read_text()

    def test_run_profile_prints_hot_functions(self, capsys):
        code = main(
            [
                "run",
                "Greedy",
                "--duration", "5",
                "--max-vehicles", "10",
                "--flows", "1",
                "--packets-per-flow", "2",
                "--density", "sparse",
                "--profile",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "delivery_ratio" in output
        assert "cumulative" in output
        assert "engine.py" in output

    def test_run_profile_dumps_pstats_file(self, capsys, tmp_path):
        import pstats

        profile_path = tmp_path / "run.pstats"
        code = main(
            [
                "run",
                "Greedy",
                "--duration", "5",
                "--max-vehicles", "10",
                "--flows", "1",
                "--packets-per-flow", "2",
                "--density", "sparse",
                "--profile", str(profile_path),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "cumulative" not in captured.out
        assert profile_path.exists()
        stats = pstats.Stats(str(profile_path))
        assert stats.total_calls > 0

    def test_compare_small_scenario(self, capsys):
        code = main(
            [
                "compare",
                "Flooding",
                "Greedy",
                "--duration", "8",
                "--max-vehicles", "20",
                "--flows", "2",
                "--packets-per-flow", "4",
                "--density", "sparse",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Flooding" in output and "Greedy" in output

    def test_compare_unknown_protocol_fails(self, capsys):
        assert main(["compare", "Greedy", "Bogus"]) == 2

    def test_sweep_small_matrix_parallel(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        json_path = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                "Greedy",
                "Flooding",
                "--seeds", "1", "2",
                "--workers", "2",
                "--duration", "6",
                "--max-vehicles", "15",
                "--flows", "2",
                "--packets-per-flow", "3",
                "--density", "sparse",
                "--csv", str(csv_path),
                "--json", str(json_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "delivery_ratio_mean" in output
        assert "Greedy" in output and "Flooding" in output
        assert "delivery_ratio_ci95" in csv_path.read_text()
        from repro.harness.reporting import sweep_from_json

        loaded = sweep_from_json(json_path)
        assert len(loaded.records) == 4  # 2 protocols x 2 seeds
        assert {r.protocol for r in loaded.replicated} == {"Greedy", "Flooding"}

    def test_sweep_store_resume_and_store_verbs(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        sweep_args = [
            "sweep",
            "Greedy",
            "--seeds", "1", "2",
            "--duration", "6",
            "--max-vehicles", "15",
            "--flows", "2",
            "--packets-per-flow", "3",
            "--density", "sparse",
            "--store", str(store_dir),
        ]
        assert main(sweep_args) == 0
        assert "executed 2 cell(s), reused 0" in capsys.readouterr().out
        # Warm re-run: every cell comes from the store.
        assert main(sweep_args) == 0
        assert "executed 0 cell(s), reused 2" in capsys.readouterr().out

        assert main(["store", "list", str(store_dir)]) == 0
        listing = capsys.readouterr().out
        assert "Greedy" in listing and "key" in listing

        assert main(["store", "summary", str(store_dir)]) == 0
        summary = capsys.readouterr().out
        assert "delivery_ratio_mean" in summary
        assert "total_cells=2" in summary

        assert main(["store", "verify", str(store_dir)]) == 0
        assert "store OK" in capsys.readouterr().out

    def test_store_verify_flags_corruption(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        assert main(
            [
                "sweep",
                "Greedy",
                "--seeds", "1", "2",
                "--duration", "6",
                "--max-vehicles", "15",
                "--flows", "2",
                "--packets-per-flow", "3",
                "--density", "sparse",
                "--store", str(store_dir),
            ]
        ) == 0
        capsys.readouterr()
        records = store_dir / "records.jsonl"
        lines = records.read_text().splitlines(keepends=True)
        lines[0] = "{corrupt json\n"
        records.write_text("".join(lines))
        assert main(["store", "verify", str(store_dir)]) == 1
        captured = capsys.readouterr()
        assert "store NOT OK" in captured.out
        assert "malformed" in captured.err

    def test_store_on_missing_directory_fails_cleanly(self, capsys, tmp_path):
        assert main(["store", "list", str(tmp_path / "nope")]) == 2
        assert "not an experiment store directory" in capsys.readouterr().err

    def test_sweep_unknown_protocol_fails(self, capsys):
        assert main(["sweep", "Bogus"]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["Greedy", "--seeds", "5", "5"], "seeds must be unique"),
            (["Greedy", "Greedy", "--seeds", "1", "2"], "protocols must be unique"),
            (["Greedy", "--seeds", "1", "--workers", "0"], "workers"),
            (["Greedy", "--seeds", "1", "--workers", "-2"], "workers"),
        ],
        ids=["duplicate-seeds", "duplicate-protocols", "workers-0", "workers-negative"],
    )
    def test_sweep_bad_matrix_fails_cleanly(self, capsys, argv, message):
        assert main(["sweep", *argv]) == 2
        assert message in capsys.readouterr().err

    def test_list_scenarios_lists_kinds_and_presets(self, capsys):
        assert main(["list", "scenarios"]) == 0
        output = capsys.readouterr().out
        for kind in ("highway", "manhattan", "random_waypoint", "city", "trace"):
            assert kind in output
        assert "city-grid-2km-sparse" in output
        assert "trace:<path>" in output

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["run", "Greedy", "--scenario", "nowhere"]) == 2
        err = capsys.readouterr().err
        assert "nowhere" in err
        assert "city-grid-2km-sparse" in err

    def test_list_workloads_lists_kinds_and_presets(self, capsys):
        assert main(["list", "workloads"]) == 0
        output = capsys.readouterr().out
        for kind in ("cbr", "poisson", "safety-beacon", "event-burst", "v2i"):
            assert kind in output
        assert "safety-beacon-10hz" in output

    def test_run_with_safety_beacon_workload(self, capsys):
        code = main(
            [
                "run",
                "Greedy",
                "--workload", "safety-beacon",
                "--duration", "6",
                "--max-vehicles", "15",
                "--density", "sparse",
            ]
        )
        assert code == 0
        assert "delivery_ratio" in capsys.readouterr().out

    def test_run_unknown_workload_fails_cleanly(self, capsys):
        assert main(["run", "Greedy", "--workload", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err
        assert "safety-beacon" in err

    def test_sweep_unknown_workload_fails_cleanly(self, capsys):
        assert main(["sweep", "Greedy", "--workload", "cbr", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_sweep_workload_axis_produces_per_workload_cells(self, capsys, tmp_path):
        json_path = tmp_path / "workload-sweep.json"
        code = main(
            [
                "sweep",
                "Greedy",
                "--workload", "cbr", "safety-beacon",
                "--seeds", "1", "2",
                "--duration", "6",
                "--max-vehicles", "15",
                "--flows", "2",
                "--packets-per-flow", "3",
                "--density", "sparse",
                "--json", str(json_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "workload" in output
        assert "safety-beacon" in output
        from repro.harness.reporting import sweep_from_json

        loaded = sweep_from_json(json_path)
        assert len(loaded.records) == 4  # 1 protocol x 2 workloads x 2 seeds
        assert {r.workload for r in loaded.records} == {"cbr", "safety-beacon"}
        assert {r.workload for r in loaded.replicated} == {"cbr", "safety-beacon"}

    def test_list_radios_lists_kinds_and_presets(self, capsys):
        assert main(["list", "radios"]) == 0
        output = capsys.readouterr().out
        for kind in ("unit_disk", "two_ray", "shadowing", "nakagami"):
            assert kind in output
        for preset in ("ideal-disk-250m", "dsrc-highway-los", "dsrc-urban-nlos", "dsrc-congested"):
            assert preset in output

    def test_list_monitors_lists_kinds_and_presets(self, capsys):
        assert main(["list", "monitors"]) == 0
        output = capsys.readouterr().out
        for name in ("latency-dist", "timeseries", "heatmap", "invariant", "invariant-strict"):
            assert name in output
        assert "--telemetry FILE" in output

    def test_run_unknown_radio_fails_cleanly(self, capsys):
        assert main(["run", "Greedy", "--radio", "warp-drive"]) == 2
        err = capsys.readouterr().err
        assert "unknown radio" in err
        assert "dsrc-urban-nlos" in err

    def test_sweep_unknown_radio_fails_cleanly(self, capsys):
        assert main(["sweep", "Greedy", "--radio", "ideal-disk-250m", "nope"]) == 2
        assert "unknown radio" in capsys.readouterr().err

    def test_run_with_radio_preset(self, capsys):
        code = main(
            [
                "run",
                "Greedy",
                "--radio", "dsrc-congested",
                "--duration", "6",
                "--max-vehicles", "15",
                "--flows", "2",
                "--packets-per-flow", "3",
                "--density", "sparse",
            ]
        )
        assert code == 0
        assert "delivery_ratio" in capsys.readouterr().out

    def test_compare_with_radio_preset(self, capsys):
        code = main(
            [
                "compare",
                "Flooding",
                "Greedy",
                "--radio", "dsrc-highway-los",
                "--duration", "6",
                "--max-vehicles", "15",
                "--flows", "2",
                "--packets-per-flow", "3",
                "--density", "sparse",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Flooding" in output and "Greedy" in output

    def test_sweep_radio_axis_produces_per_radio_cells(self, capsys, tmp_path):
        json_path = tmp_path / "radio-sweep.json"
        csv_path = tmp_path / "radio-sweep.csv"
        code = main(
            [
                "sweep",
                "Greedy",
                "--radio", "ideal-disk-250m", "dsrc-urban-nlos",
                "--seeds", "1", "2",
                "--duration", "6",
                "--max-vehicles", "15",
                "--flows", "2",
                "--packets-per-flow", "3",
                "--density", "sparse",
                "--csv", str(csv_path),
                "--json", str(json_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "radio" in output
        assert "dsrc-urban-nlos" in output
        # The radio column lands in the CSV artifact as well.
        header = csv_path.read_text().splitlines()[0]
        assert "radio" in header.split(",")
        from repro.harness.reporting import sweep_from_json

        loaded = sweep_from_json(json_path)
        assert len(loaded.records) == 4  # 1 protocol x 2 radios x 2 seeds
        assert {r.radio for r in loaded.records} == {"ideal-disk-250m", "dsrc-urban-nlos"}
        assert {r.radio for r in loaded.replicated} == {"ideal-disk-250m", "dsrc-urban-nlos"}

    def test_run_city_preset(self, capsys):
        code = main(
            [
                "run",
                "Greedy",
                "--scenario", "city-grid-2km-sparse",
                "--duration", "6",
                "--max-vehicles", "15",
                "--flows", "2",
                "--packets-per-flow", "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "city-grid-2km-sparse" in output

    def test_run_trace_scenario(self, capsys, tmp_path):
        from repro.mobility.fcd_trace import record_fcd_trace, write_fcd_trace
        from repro.mobility.generator import TrafficDensity, make_highway_scenario

        source = make_highway_scenario(TrafficDensity.SPARSE, seed=5, max_vehicles=8)
        trace_path = tmp_path / "cli_trace.csv"
        write_fcd_trace(trace_path, record_fcd_trace(source, duration=10.0, dt=0.5))
        code = main(
            [
                "run",
                "Greedy",
                "--scenario", f"trace:{trace_path}",
                "--duration", "6",
                "--flows", "2",
                "--packets-per-flow", "3",
            ]
        )
        assert code == 0
        assert "delivery_ratio" in capsys.readouterr().out

    def test_sweep_city_preset(self, capsys):
        code = main(
            [
                "sweep",
                "Greedy",
                "--scenario", "city-grid-2km-sparse",
                "--seeds", "1", "2",
                "--duration", "6",
                "--max-vehicles", "15",
                "--flows", "2",
                "--packets-per-flow", "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "city-grid-2km-sparse" in output
        assert "delivery_ratio_mean" in output


#: One short run for the traffic-flag tests (RSUs so v2i has a counterpart).
_SMALL_RUN = ["--duration", "6", "--max-vehicles", "12", "--density", "sparse",
              "--rsu-spacing", "500"]


class TestTrafficFlags:
    """The four traffic flags set workload keywords; a flag that would
    change nothing is refused by name."""

    @pytest.mark.parametrize(
        "workload, params",
        [
            ("cbr", {"flow_count": 2, "packet_count": 4, "interval_s": 0.5,
                     "start_time_s": 1.0}),
            ("poisson", {"flow_count": 2, "packets_per_flow": 4, "mean_interval_s": 0.5,
                         "start_time_s": 1.0}),
            ("v2i", {"session_count": 2, "requests_per_session": 4,
                     "request_interval_s": 0.5, "start_time_s": 1.0}),
        ],
    )
    def test_flags_equal_the_workload_params(self, workload, params):
        from repro.cli import _run_scenario
        from repro.harness.runner import ExperimentRunner
        from repro.harness.scenario import Scenario
        from repro.mobility.generator import TrafficDensity

        args = build_parser().parse_args(
            ["run", "Greedy", "--workload", workload, "--flows", "2",
             "--packets-per-flow", "4", "--packet-interval", "0.5", "--warmup", "1.0",
             *_SMALL_RUN]
        )
        via_flags = ExperimentRunner().run(_run_scenario(args), "Greedy")
        in_python = Scenario(
            name="highway-sparse",
            density=TrafficDensity.SPARSE,
            duration_s=6.0,
            max_vehicles=12,
            rsu_spacing_m=500.0,
            workload=workload,
            workload_params=params,
        )
        direct = ExperimentRunner().run(in_python, "Greedy")
        assert via_flags.summary["data_sent"] > 0
        assert via_flags.to_record().summary == direct.to_record().summary

    @pytest.mark.parametrize("command", [["run", "Greedy"], ["compare", "AODV", "Greedy"]])
    def test_flag_the_workload_does_not_read_is_refused(self, command, capsys):
        code = main([*command, "--workload", "safety-beacon", "--flows", "9", *_SMALL_RUN])
        assert code == 2
        err = capsys.readouterr().err
        assert "--flows changes nothing" in err
        assert "'safety-beacon'" in err

    @pytest.mark.parametrize("command", [["run", "Greedy"], ["compare", "AODV", "Greedy"]])
    def test_flag_the_preset_fixes_is_refused(self, command, capsys):
        code = main(
            [*command, "--workload", "poisson-bursty", "--packet-interval", "0.5", *_SMALL_RUN]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--packet-interval changes nothing" in err
        assert "'poisson-bursty'" in err

    def test_negative_v2i_flows_fail_by_name(self, capsys):
        code = main(["run", "Greedy", "--workload", "v2i", "--flows", "-1", *_SMALL_RUN])
        assert code == 2
        assert "session_count must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "workload, params",
        [
            ("poisson", {"arrival_rate_per_s": 0.5}),
            ("cbr", {"flows": [CbrFlow(source_index=0, destination_index=1)]}),
        ],
    )
    def test_flows_flag_is_refused_where_a_param_makes_it_a_no_op(
        self, workload, params, capsys
    ):
        scenario = Scenario(workload=workload, workload_params=params)
        assert with_traffic(scenario, {"flows": 9}) is scenario
        assert not _check_traffic({"flows": 9}, [scenario])
        assert "--flows changes nothing" in capsys.readouterr().err

    def test_sweep_refuses_a_flag_only_when_no_cell_takes_it(self, capsys):
        refused = main(
            ["sweep", "Greedy", "--workload", "safety-beacon", "event-burst",
             "--seeds", "1", "--flows", "2", *_SMALL_RUN]
        )
        assert refused == 2
        err = capsys.readouterr().err
        assert "--flows changes nothing" in err
        assert "'safety-beacon', 'event-burst'" in err
        # The cbr cells take --flows, so the mixed matrix runs (the CI form).
        taken = main(
            ["sweep", "Greedy", "--workload", "cbr", "safety-beacon",
             "--seeds", "1", "--flows", "2", *_SMALL_RUN]
        )
        assert taken == 0
        assert "safety-beacon" in capsys.readouterr().out
