"""Shared helpers for the benchmark modules.

Each benchmark regenerates one figure or table of the paper: it runs the
relevant scenarios, prints the resulting rows (so ``pytest benchmarks/
--benchmark-only -s`` shows the reproduction next to the timing data) and
writes them to ``benchmarks/results/<name>.csv``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.harness.reporting import format_table, rows_to_csv, rows_to_json, sweep_to_json
from repro.harness.runner import ExperimentRunner, RunRecord
from repro.harness.scenario import Scenario, highway_scenario, manhattan_scenario
from repro.harness.scenarios import scenario_from_name
from repro.harness.sweep import SweepResult, aggregate_records, sweep_replications
from repro.mobility.generator import TrafficDensity
from repro.mobility.highway import HighwayConfig

#: Where benchmark result tables are written.
RESULTS_DIR = Path(__file__).parent / "results"

#: One shared runner; scenarios carry their own seeds so runs stay independent.
RUNNER = ExperimentRunner()

#: Replication seeds shared by the figure benchmarks (>= 5 per cell, so the
#: reported 95% confidence intervals rest on a real t-distribution sample).
FIGURE_SEEDS = (21, 22, 23, 24, 25)


def _cbr_traffic(flows: int) -> Dict[str, object]:
    """``cbr`` params of the benchmark scenarios: ``flows`` flows of 12 packets."""
    return {"flow_count": flows, "packet_count": 12}


def sweep_workers(var: str = "REPRO_SWEEP_WORKERS", default: int = 1) -> int:
    """Worker-process count for sweep-based benchmarks, read from ``var``.

    Timing-sensitive benchmarks pass their own variable name so that
    enabling parallelism for throughput sweeps cannot silently co-schedule
    (and distort) their wall-clock measurements.
    """
    raw = os.environ.get(var, "")
    try:
        return int(raw) if raw else default
    except ValueError:
        return default


def sweep_store(var: str = "REPRO_SWEEP_STORE") -> Optional[Path]:
    """Experiment-store directory for benchmark sweeps, read from ``var``.

    When set, every benchmark sweep streams its per-cell records into that
    one shared store directory and resumes from it (content-addressed keys
    never collide across matrices): an interrupted ``pytest benchmarks/``
    picks up where it stopped, and an unchanged re-run reuses every cell.
    The content key includes the code digest, so editing ``src/repro``
    invalidates exactly the affected cells.  Unset (the default),
    benchmarks run storeless as before.
    """
    raw = os.environ.get(var, "").strip()
    return Path(raw) if raw else None


def small_highway(
    density: TrafficDensity = TrafficDensity.NORMAL,
    *,
    duration_s: float = 20.0,
    max_vehicles: int = 90,
    flows: int = 4,
    seed: int = 21,
    **overrides,
) -> Scenario:
    """A benchmark-sized highway scenario (seconds of wall-clock per run)."""
    scenario = highway_scenario(
        density,
        duration_s=duration_s,
        max_vehicles=max_vehicles,
        workload_params=_cbr_traffic(flows),
        seed=seed,
    )
    return scenario.with_overrides(**overrides) if overrides else scenario


def narrow_highway(
    density: TrafficDensity = TrafficDensity.NORMAL,
    *,
    duration_s: float = 22.0,
    max_vehicles: int = 170,
    flows: int = 5,
    seed: int = 21,
    **overrides,
) -> Scenario:
    """A one-lane-per-direction highway for density sweeps.

    The narrower cross-section keeps the congested regime's vehicle count
    (and therefore the run time) manageable while preserving the sparse <
    normal < congested population ordering that Table I's claims depend on
    (the wider default highway would hit the population cap at both normal
    and congested density, erasing the difference).
    """
    config = HighwayConfig(length_m=2500.0, lanes_per_direction=1, bidirectional=True)
    scenario = highway_scenario(
        density,
        duration_s=duration_s,
        max_vehicles=max_vehicles,
        workload_params=_cbr_traffic(flows),
        seed=seed,
        highway=config,
    )
    return scenario.with_overrides(**overrides) if overrides else scenario


def small_manhattan(
    density: TrafficDensity = TrafficDensity.NORMAL,
    *,
    duration_s: float = 20.0,
    max_vehicles: int = 80,
    flows: int = 4,
    seed: int = 22,
    **overrides,
) -> Scenario:
    """A benchmark-sized Manhattan scenario."""
    scenario = manhattan_scenario(
        density,
        duration_s=duration_s,
        max_vehicles=max_vehicles,
        workload_params=_cbr_traffic(flows),
        seed=seed,
    )
    return scenario.with_overrides(**overrides) if overrides else scenario


def preset(name: str, **overrides) -> Scenario:
    """A named preset from the scenario registry, with benchmark overrides."""
    return scenario_from_name(name, **overrides)


def replicate(
    scenarios: Sequence[Scenario],
    protocols: Sequence[str],
    seeds: Sequence[int] = FIGURE_SEEDS,
    derive: Optional[Callable[[RunRecord], Dict[str, float]]] = None,
    workers: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    store: Optional[Path] = None,
) -> SweepResult:
    """Run the scenario x protocol x workload x seed matrix, aggregate 95% CIs.

    ``derive`` maps each per-seed record to extra derived metrics (e.g.
    transmissions per delivered packet); deriving *before* aggregation means
    ratios are averaged per run instead of being computed from averaged
    numerators and denominators.  ``workloads`` (kind or preset names) adds
    the traffic axis; omitted, scenarios keep their own workload (``cbr``).

    ``store`` (default: :func:`sweep_store`, i.e. ``$REPRO_SWEEP_STORE``)
    streams per-cell records through an experiment store and skips cells
    the store already holds.  The store keeps the raw (un-derived) records;
    ``derive`` is re-applied in memory on every call, so cached and fresh
    cells report identical derived metrics.
    """
    workers = workers if workers is not None else sweep_workers()
    store = store if store is not None else sweep_store()
    sweep = sweep_replications(
        list(scenarios),
        list(protocols),
        seeds=list(seeds),
        workers=workers,
        workloads=list(workloads) if workloads is not None else None,
        store=store,
    )
    if derive is not None:
        for record in sweep.records:
            record.extra.update(derive(record))
        sweep.replicated = aggregate_records(sweep.records)
    return sweep


def report(
    name: str,
    rows: Sequence[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    metadata: Optional[Dict[str, object]] = None,
) -> None:
    """Print a result table and persist it as CSV + JSON under ``benchmarks/results/``.

    The CSV keeps the historical spreadsheet-friendly artifact; the JSON
    sibling preserves value types for downstream tooling.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    print()
    print(format_table(rows, columns=columns, title=title or name))
    rows_to_csv(RESULTS_DIR / f"{name}.csv", rows, columns=columns)
    rows_to_json(RESULTS_DIR / f"{name}.json", rows, metadata=metadata)


def report_sweep(name: str, sweep_result) -> None:
    """Persist a full replicated sweep (records + aggregates) as JSON."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    sweep_to_json(RESULTS_DIR / f"{name}.json", sweep_result)


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark and return its result.

    The simulations here take seconds each; a single round keeps the whole
    benchmark suite inside a few minutes while still recording wall-clock
    timings with pytest-benchmark.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
