"""Command-line interface: run scenarios and sweeps without writing Python.

Installed as the ``repro-vanet`` console script (see ``pyproject.toml``), but
also runnable as ``python -m repro.cli``.  Subcommands:

``run``
    Run one protocol through one scenario and print the metric summary.
``compare``
    Run several protocols through the same scenario and print a comparison
    table (optionally written to CSV).
``sweep``
    Run a protocol x seed replication matrix over the scenario, optionally
    across worker processes, and print per-cell mean / 95% CI aggregates
    (optionally persisted to CSV and JSON).  ``--store DIR`` streams every
    completed cell into a resumable, content-addressed experiment store
    (``--resume``/``--no-resume`` control cache hits, ``--shard K/N``
    splits the matrix across machines).
``store``
    Inspect an experiment-store directory: ``list`` its records,
    ``summary`` the aggregates + manifest, or ``verify`` its integrity.
``list <kind>``
    Print one registry's catalogue: ``protocols`` (with their taxonomy
    categories), ``scenarios``, ``workloads``, ``radios`` or ``monitors``
    -- the registered kinds and their named presets.

Scenarios are selected either by ``--scenario`` (a preset name such as
``city-grid-2km-sparse``, a registered kind, or ``trace:<path>`` for FCD
trace replay) or by the classic ``--kind`` / ``--density`` pair.  Traffic is
selected by ``--workload`` (a workload kind such as ``safety-beacon`` or a
preset such as ``safety-beacon-10hz``; the default is ``cbr``) and shaped by
``--flows`` / ``--packets-per-flow`` / ``--packet-interval`` / ``--warmup``
where the workload reads them (a flag no selected workload takes is an
error); the channel is selected by ``--radio`` (a radio kind such as
``nakagami`` or a preset such as ``dsrc-urban-nlos``; the default is
``ideal-disk-250m``).  The ``sweep``
subcommand accepts several workloads and several radios as extra matrix
axes.  Observability probes attach with ``--monitor`` (a fixed set per run,
never a matrix axis; see ``list monitors``) and stream JSONL telemetry to
``--telemetry FILE``.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.core.taxonomy import PROTOCOLS
from repro.harness.reporting import (
    format_table,
    rows_to_csv,
    sweep_from_store,
    sweep_to_json,
)
from repro.harness.runner import ExperimentRunner
from repro.harness.scenario import Scenario
from repro.harness.scenarios import SCENARIOS, scenario_from_name
from repro.harness.sweep import HEADLINE_METRICS, sweep_replications
from repro.mobility.generator import TrafficDensity
from repro.monitors import MONITORS, JsonlFileSink
from repro.radio.registry import RADIOS
from repro.registry import Registry
from repro.store.store import ExperimentStore, read_record_log
from repro.workloads import WORKLOADS
from repro.workloads.registry import with_traffic

#: Columns shown by the ``run`` and ``compare`` subcommands.
SUMMARY_COLUMNS = [
    "protocol",
    "delivery_ratio",
    "mean_delay_s",
    "mean_hops",
    "control_transmissions",
    "beacon_transmissions",
    "discovery_transmissions",
    "data_transmissions",
    "mac_collisions",
    "backbone_transmissions",
]

#: The traffic flags (argparse ``dest``) and their help; each workload kind
#: maps them to its own keywords in ``traffic_keywords``.
TRAFFIC_FLAGS = {
    "flows": "number of flows or sessions",
    "packets_per_flow": "packets per flow",
    "packet_interval": "seconds between packets",
    "warmup": "traffic start time in seconds",
}


def _build_scenario(args: argparse.Namespace) -> Scenario:
    """Resolve the CLI arguments into a scenario through the registry.

    Both selection paths (``--scenario`` preset / trace / kind, or the
    classic ``--kind``) go through :func:`scenario_from_name`.  Every flag
    the user actually passed overrides the resolved scenario; flags left at
    their ``None`` argparse default do not, so a preset keeps its advertised
    shape (population cap, duration, RSU plan, density) unless explicitly
    overridden.  Bare kinds -- via either flag -- get the documented CLI
    fallbacks (duration 30 s, 100 vehicles, normal density), so
    ``--scenario highway`` and ``--kind highway`` run the same experiment.
    The traffic flags are not applied here: they set workload keywords
    (see :func:`_run_scenario` and the ``traffic`` of a sweep).
    """
    explicit = {}
    if args.density is not None:
        explicit["density"] = TrafficDensity(args.density)
    if args.duration is not None:
        explicit["duration_s"] = args.duration
    if args.max_vehicles is not None:
        explicit["max_vehicles"] = args.max_vehicles
    if getattr(args, "seed", None) is not None:
        explicit["seed"] = args.seed
    if args.rsu_spacing is not None:
        explicit["rsu_spacing_m"] = args.rsu_spacing
    if args.buses is not None:
        explicit["bus_count"] = args.buses
    # ``sweep`` takes a list of workloads / radios as matrix axes instead of
    # single scenario attributes; only the scalar forms land on the scenario.
    # An explicit name override also resets the matching params: they belong
    # to the scenario's *own* workload/radio and would be passed as unknown
    # constructor keywords to the named one (same reset build_matrix applies
    # to its axis entries).
    workload = getattr(args, "workload", None)
    if isinstance(workload, str):
        explicit["workload"] = workload
        explicit["workload_params"] = {}
    radio = getattr(args, "radio", None)
    if isinstance(radio, str):
        explicit["radio_stack"] = radio
        explicit["radio_params"] = {}
    # Monitors are a fixed per-run set on every subcommand (never a matrix
    # axis), so the list lands on the scenario as-is.
    monitor = getattr(args, "monitor", None)
    if monitor:
        explicit["monitors"] = tuple(monitor)
        explicit["monitor_params"] = {}

    spec = getattr(args, "scenario", None)
    if spec and spec not in SCENARIOS.kinds:
        scenario = scenario_from_name(spec, **explicit)
    else:
        kind = spec if spec else args.kind
        density = explicit.get("density", TrafficDensity.NORMAL)
        overrides = {
            "name": f"{kind}-{density.value}",
            "density": density,
            "duration_s": 30.0,
            "max_vehicles": 100,
            "seed": 1,
        }
        overrides.update(explicit)
        scenario = scenario_from_name(kind, **overrides)

    return scenario


def _traffic_help(setting: str) -> str:
    """A traffic flag's help: each workload keyword it sets, with its default."""
    targets = []
    for name in WORKLOADS.names():
        keyword = WORKLOADS[name].traffic_keywords.get(setting)
        if keyword is not None:
            default = inspect.signature(WORKLOADS[name]).parameters[keyword].default
            targets.append(f"{name} {keyword} (default {default})")
    return f"{TRAFFIC_FLAGS[setting]}; sets {', '.join(targets)}, unless params fix it"


def _traffic(args: argparse.Namespace) -> Dict[str, Any]:
    """The traffic flags the user passed, keyed by ``dest``."""
    return {name: getattr(args, name) for name in TRAFFIC_FLAGS if getattr(args, name) is not None}


def _check_traffic(traffic: Dict[str, Any], scenarios: Sequence[Scenario]) -> bool:
    """Refuse a flag that no scenario's workload takes: it would change nothing."""
    for setting, value in traffic.items():
        if all(with_traffic(scenario, {setting: value}) is scenario for scenario in scenarios):
            names = ", ".join(repr(scenario.workload) for scenario in scenarios)
            label = "workloads" if len(scenarios) > 1 else "workload"
            flag = "--" + setting.replace("_", "-")
            print(f"{flag} changes nothing: not read, or already fixed, by {label} {names}",
                  file=sys.stderr)
            return False
    return True


def _add_scenario_arguments(
    parser: argparse.ArgumentParser,
    include_seed: bool = True,
    multi_workload: bool = False,
) -> None:
    parser.add_argument(
        "--scenario", type=str, default=None, metavar="NAME",
        help="scenario preset, registered kind, or trace:<path> "
             "(see 'list scenarios'; overrides --kind)",
    )
    parser.add_argument(
        "--kind", choices=SCENARIOS.names(), default="highway",
        help="mobility scenario kind (default: highway)",
    )
    parser.add_argument(
        "--density", choices=[d.value for d in TrafficDensity], default=None,
        help="traffic density regime (default: normal; presets keep their own)",
    )
    parser.add_argument("--duration", type=float, default=None, help="simulated seconds (default: 30)")
    parser.add_argument(
        "--max-vehicles", type=int, default=None,
        help="vehicle population cap (default: 100; presets keep their own cap)",
    )
    if multi_workload:
        parser.add_argument(
            "--workload", type=str, nargs="+", default=None, metavar="NAME",
            help="workload kinds/presets swept as a matrix axis "
                 "(default: the scenario's own, cbr; see 'list workloads')",
        )
        parser.add_argument(
            "--radio", type=str, nargs="+", default=None, metavar="NAME",
            help="radio kinds/presets swept as a matrix axis "
                 "(default: the scenario's own, ideal-disk-250m; see 'list radios')",
        )
    else:
        parser.add_argument(
            "--workload", type=str, default=None, metavar="NAME",
            help="traffic workload kind or preset (default: cbr; see 'list workloads')",
        )
        parser.add_argument(
            "--radio", type=str, default=None, metavar="NAME",
            help="radio stack kind or preset "
                 "(default: ideal-disk-250m; see 'list radios')",
        )
    for setting, value_type in zip(TRAFFIC_FLAGS, (int, int, float, float)):
        parser.add_argument(
            "--" + setting.replace("_", "-"), type=value_type, help=_traffic_help(setting)
        )
    if include_seed:
        parser.add_argument(
            "--seed", type=int, default=None, help="master random seed (default: 1)"
        )
    parser.add_argument(
        "--rsu-spacing", type=float, default=None,
        help="distance between road-side units in metres (default: no RSUs)",
    )
    parser.add_argument(
        "--buses", type=int, default=None,
        help="vehicles designated as buses (default: 0; presets keep their own)",
    )
    parser.add_argument(
        "--monitor", type=str, nargs="+", default=None, metavar="NAME",
        help="observability monitors/probes attached to every run -- a fixed "
             "set, not a matrix axis (see 'list monitors')",
    )
    parser.add_argument(
        "--telemetry", type=str, default=None, metavar="FILE",
        help="stream monitor JSONL telemetry to this file (requires --monitor)",
    )
    parser.add_argument("--csv", type=str, default=None, help="write the result rows to this CSV file")


def _result_row(result) -> dict:
    row = {"protocol": result.protocol}
    row.update({key: result.summary.get(key, 0.0) for key in SUMMARY_COLUMNS if key != "protocol"})
    row["path_stretch"] = result.extra.get("path_stretch", 0.0)
    return row


def _check_names(registry: Registry[Any], names: Sequence[str]) -> bool:
    """Validate registry names up front; print the failure and return False.

    Scenario workloads/radios/monitors are otherwise resolved inside the
    runner (possibly in a worker process), where an unknown name would
    surface as a raw traceback instead of a usage error.
    """
    unknown = [name for name in names if name not in registry]
    if unknown:
        print(f"unknown {registry.label}(s): {', '.join(unknown)}", file=sys.stderr)
        print(
            f"available kinds: {', '.join(registry.names())}; "
            f"presets: {', '.join(registry.preset_names())}",
            file=sys.stderr,
        )
        return False
    return True


def _check_telemetry(args: argparse.Namespace, scenario: Scenario) -> bool:
    """--telemetry is meaningless without monitors; fail before building."""
    if getattr(args, "telemetry", None) and not scenario.monitors:
        print("--telemetry requires --monitor (nothing would be emitted)", file=sys.stderr)
        return False
    return True


def _resolve_scenario(args: argparse.Namespace) -> Optional[Scenario]:
    """Build the scenario from the CLI arguments; print the failure and return None."""
    try:
        return _build_scenario(args)
    except KeyError as exc:
        # KeyError wraps its message in quotes; unwrap for readability.
        print(exc.args[0] if exc.args else str(exc), file=sys.stderr)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
    return None


def _run_scenario(args: argparse.Namespace) -> Optional[Scenario]:
    """The one scenario of ``run``/``compare``, traffic flags applied.

    Prints the failure and returns None when a name is unknown or a flag
    would change nothing.
    """
    scenario = _resolve_scenario(args)
    if scenario is None or not _check_names(WORKLOADS, [scenario.workload]):
        return None
    if scenario.radio_stack and not _check_names(RADIOS, [scenario.radio_stack]):
        return None
    if scenario.monitors and not _check_names(MONITORS, list(scenario.monitors)):
        return None
    traffic = _traffic(args)
    if not _check_telemetry(args, scenario) or not _check_traffic(traffic, [scenario]):
        return None
    return with_traffic(scenario, traffic)


def _command_run(args: argparse.Namespace) -> int:
    if args.protocol not in PROTOCOLS.kinds:
        print(f"unknown protocol {args.protocol!r}", file=sys.stderr)
        print(f"available: {', '.join(PROTOCOLS.names())}", file=sys.stderr)
        return 2
    scenario = _run_scenario(args)
    if scenario is None:
        return 2
    runner = ExperimentRunner()
    profiler = None
    if getattr(args, "profile", None) is not None:
        import cProfile

        profiler = cProfile.Profile()
    try:
        if profiler is not None:
            profiler.enable()
            try:
                result = runner.run(scenario, args.protocol, telemetry=args.telemetry)
            finally:
                profiler.disable()
        else:
            result = runner.run(scenario, args.protocol, telemetry=args.telemetry)
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    rows = [_result_row(result)]
    print(format_table(rows, title=f"{args.protocol} on {scenario.name}"))
    if args.csv:
        rows_to_csv(args.csv, rows)
    if profiler is not None:
        import pstats

        if args.profile == "-":
            # Cumulative top 25 covers the engine -> medium -> radio chain;
            # deeper analysis wants the FILE form and a pstats browser.
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.sort_stats("cumulative").print_stats(25)
        else:
            profiler.dump_stats(args.profile)
            print(f"profile written to {args.profile}", file=sys.stderr)
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    unknown = [p for p in args.protocols if p not in PROTOCOLS.kinds]
    if unknown:
        print(f"unknown protocol(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    scenario = _run_scenario(args)
    if scenario is None:
        return 2
    # One shared sink across the per-protocol runs: each run frames its own
    # lines with run_start/run_end, so a single JSONL file stays parseable.
    sink = JsonlFileSink(args.telemetry) if args.telemetry else None
    runner = ExperimentRunner()
    try:
        results = [
            runner.run(scenario, protocol, telemetry=sink) for protocol in args.protocols
        ]
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        if sink is not None:
            sink.close()
    rows = [_result_row(result) for result in results]
    print(format_table(rows, title=f"Comparison on {scenario.name}"))
    if args.csv:
        rows_to_csv(args.csv, rows)
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    unknown = [p for p in args.protocols if p not in PROTOCOLS.kinds]
    if unknown:
        print(f"unknown protocol(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    scenario = _resolve_scenario(args)
    if scenario is None:
        return 2
    workloads = args.workload if args.workload else None
    if not _check_names(WORKLOADS, workloads if workloads else [scenario.workload]):
        return 2
    radios = args.radio if args.radio else None
    if radios:
        if not _check_names(RADIOS, radios):
            return 2
    elif scenario.radio_stack and not _check_names(RADIOS, [scenario.radio_stack]):
        return 2
    monitors = args.monitor if args.monitor else None
    if monitors and not _check_names(MONITORS, monitors):
        return 2
    traffic = _traffic(args)
    # A flag is refused only when no cell takes it (``--workload cbr
    # safety-beacon --flows 2`` runs); axis cells reset params as in build_matrix.
    cells = [scenario.with_overrides(workload=w, workload_params={}) for w in workloads or []]
    if not _check_telemetry(args, scenario) or not _check_traffic(traffic, cells or [scenario]):
        return 2
    try:
        result = sweep_replications(
            [scenario],
            args.protocols,
            seeds=args.seeds,
            workers=args.workers,
            workloads=workloads,
            radios=radios,
            monitors=monitors,
            telemetry=args.telemetry,
            store=args.store,
            resume=args.resume,
            shard=args.shard,
            traffic=traffic,
        )
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    rows = result.rows(HEADLINE_METRICS)
    title = (
        f"Sweep on {scenario.name}: {len(args.protocols)} protocol(s) x "
        f"{len(workloads) if workloads else 1} workload(s) x "
        f"{len(radios) if radios else 1} radio(s) x "
        f"{len(args.seeds)} seed(s), workers={args.workers}"
    )
    print(format_table(rows, title=title))
    if args.store is not None or args.shard is not None:
        print(
            f"store: executed {result.executed_cells} cell(s), "
            f"reused {result.reused_cells} from {args.store or 'matrix shard'}"
        )
    if args.csv:
        rows_to_csv(args.csv, rows)
    if args.json:
        sweep_to_json(args.json, result)
    return 0


def _command_store(args: argparse.Namespace) -> int:
    from pathlib import Path

    directory = Path(args.store_dir)
    if not directory.is_dir():
        print(f"not an experiment store directory: {directory}", file=sys.stderr)
        return 2
    store = ExperimentStore(directory)
    if args.action == "list":
        rows: List[dict] = []
        for key, record in read_record_log(directory):
            rows.append(
                {
                    "key": key[:12],
                    "scenario": record.scenario_name,
                    "protocol": record.protocol,
                    "workload": record.workload,
                    "radio": record.radio,
                    "seed": record.seed,
                }
            )
            if args.limit is not None and len(rows) >= args.limit:
                break
        print(format_table(rows, title=f"Records in {directory} (append order)"))
        return 0
    if args.action == "summary":
        manifest = store.read_manifest()
        result = sweep_from_store(directory)
        print(
            format_table(
                result.rows(HEADLINE_METRICS),
                title=f"Aggregates over {len(result.records)} record(s) in {directory}",
            )
        )
        if manifest is not None:
            matrix = manifest.get("matrix", {})
            print(
                f"manifest: schema_version={manifest.get('schema_version')} "
                f"code_version={manifest.get('code_version')} "
                f"total_cells={matrix.get('total_cells')} "
                f"shard={matrix.get('shard')}"
            )
        return 0
    # verify
    report = store.verify()
    print(
        f"{directory}: {report.record_count} record(s), "
        f"{report.distinct_keys} distinct key(s), "
        f"{report.duplicate_keys} duplicated, "
        f"schema versions {sorted(report.schema_versions) or '-'}"
        + (", truncated tail (interrupted append)" if report.truncated_tail else "")
    )
    for issue in report.issues:
        print(f"  issue: {issue}", file=sys.stderr)
    print("store OK" if report.ok else "store NOT OK")
    return 0 if report.ok else 1


@dataclass(frozen=True)
class _Listing:
    """How ``list <kind>`` renders one registry's catalogue."""

    registry: Registry[Any]
    kind_columns: List[str]
    kind_title: Optional[str] = None
    preset_columns: Optional[List[str]] = None
    preset_title: Optional[str] = None
    footer: Optional[str] = None
    #: Stable re-sort of the kind rows by this column (Fig. 1 groups by category).
    group_by: Optional[str] = None


LISTINGS: Dict[str, _Listing] = {
    "protocols": _Listing(
        PROTOCOLS, ["category", "protocol", "reference", "description"], group_by="category"
    ),
    "scenarios": _Listing(
        SCENARIOS,
        ["kind", "description"],
        "Scenario kinds",
        ["preset", "kind", "density", "description"],
        "Scenario presets",
        "Any FCD trace file is also a scenario: --scenario trace:<path>",
    ),
    "workloads": _Listing(
        WORKLOADS,
        ["workload", "description"],
        "Workload kinds",
        ["preset", "workload", "description"],
        "Workload presets",
        "Select traffic with --workload; 'sweep' accepts several as a matrix axis.",
    ),
    "radios": _Listing(
        RADIOS,
        ["radio", "description"],
        "Radio kinds",
        ["preset", "kind", "nominal_range_m", "description"],
        "Radio presets",
        "Select the channel with --radio; 'sweep' accepts several as a matrix axis.",
    ),
    "monitors": _Listing(
        MONITORS,
        ["monitor", "description"],
        "Monitor kinds",
        ["preset", "monitor", "description"],
        "Monitor presets",
        "Attach probes with --monitor (a fixed set per run, never a matrix "
        "axis); add --telemetry FILE for streaming JSONL.",
    ),
}


def _command_list(args: argparse.Namespace) -> int:
    listing = LISTINGS[args.kind]
    rows = listing.registry.kind_rows()
    if listing.group_by is not None:
        rows.sort(key=lambda row: row[listing.group_by])
    print(format_table(rows, columns=listing.kind_columns, title=listing.kind_title))
    if listing.preset_columns is not None:
        print()
        print(
            format_table(
                listing.registry.preset_rows(),
                columns=listing.preset_columns,
                title=listing.preset_title,
            )
        )
    if listing.footer is not None:
        print()
        print(listing.footer)
    return 0


def _env_workers() -> int:
    """Default sweep worker count: ``$REPRO_SWEEP_WORKERS`` or 1.

    Read at parser build time so ``--workers`` on the command line always
    wins, while CI and multi-machine wrappers can set the default once in
    the environment instead of threading a flag through every invocation.
    """
    raw = os.environ.get("REPRO_SWEEP_WORKERS", "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        return 1
    return max(1, workers)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-vanet",
        description="VANET reliable-routing reproduction: run simulations from the command line.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one protocol through one scenario")
    run_parser.add_argument("protocol", help="protocol name (see 'list protocols')")
    _add_scenario_arguments(run_parser)
    run_parser.add_argument(
        "--profile", nargs="?", const="-", default=None, metavar="FILE",
        help="profile the run under cProfile; with FILE, dump pstats data "
        "there (for snakeviz/pstats), otherwise print the hottest functions",
    )
    run_parser.set_defaults(func=_command_run)

    compare_parser = subparsers.add_parser(
        "compare", help="run several protocols through the same scenario"
    )
    compare_parser.add_argument("protocols", nargs="+", help="protocol names")
    _add_scenario_arguments(compare_parser)
    compare_parser.set_defaults(func=_command_compare)

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run a protocol x seed replication matrix (optionally in parallel)",
    )
    sweep_parser.add_argument("protocols", nargs="+", help="protocol names")
    # The sweep replaces the single --seed with an explicit --seeds list (one
    # run per seed); offering both would let --seed be silently ignored.
    # Likewise --workload becomes a list: a matrix axis, not an attribute.
    _add_scenario_arguments(sweep_parser, include_seed=False, multi_workload=True)
    sweep_parser.add_argument(
        "--seeds", type=int, nargs="+", default=[1, 2, 3],
        help="replication seeds, one run per (protocol, seed) (default: 1 2 3)",
    )
    sweep_parser.add_argument(
        "--workers", type=int, default=_env_workers(),
        help="worker processes; 1 runs serially in-process "
        "(default: $REPRO_SWEEP_WORKERS or 1)",
    )
    sweep_parser.add_argument(
        "--json", type=str, default=None,
        help="write the full sweep (per-run records + aggregates) to this JSON file",
    )
    sweep_parser.add_argument(
        "--store", type=str, default=None, metavar="DIR",
        help="stream every completed cell into this experiment-store directory "
        "(content-addressed JSONL record log; partial results survive a crash)",
    )
    sweep_parser.add_argument(
        "--resume", action=argparse.BooleanOptionalAction, default=True,
        help="with --store: skip cells already in the store "
        "(--no-resume re-executes everything; default: resume)",
    )
    sweep_parser.add_argument(
        "--shard", type=str, default=None, metavar="K/N",
        help="run only shard K of an N-way hash partition of the matrix "
        "(e.g. 1/2 and 2/2 on two machines cover it exactly once)",
    )
    # ``seed=None`` only placates _build_scenario; build_matrix overrides
    # every cell's seed with a value from --seeds.
    sweep_parser.set_defaults(func=_command_sweep, seed=None)

    store_parser = subparsers.add_parser(
        "store", help="inspect an experiment-store directory (list / summary / verify)"
    )
    store_parser.add_argument(
        "action", choices=["list", "summary", "verify"],
        help="list records, aggregate + show the manifest, or check integrity",
    )
    store_parser.add_argument("store_dir", help="experiment-store directory")
    store_parser.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="with 'list': show at most N records (default: all)",
    )
    store_parser.set_defaults(func=_command_store)

    list_parser = subparsers.add_parser(
        "list", help="list one registry's kinds and named presets"
    )
    list_parser.add_argument("kind", choices=list(LISTINGS), help="which registry to list")
    list_parser.set_defaults(func=_command_list)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    raise SystemExit(main())
