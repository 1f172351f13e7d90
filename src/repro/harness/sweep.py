"""Parameter sweeps over scenarios, protocols, workloads, radios and seeds.

The paper's category comparison (Table I / Figs. 2-6) is only meaningful when
every (scenario, protocol) cell is replicated over several random seeds.  This
module provides the machinery for that:

* :func:`build_matrix` expands scenarios x protocols x workloads x radios x
  seeds into an explicit list of :class:`SweepCell` run descriptions,
* :func:`execute_cells` runs any picklable cell list through a worker
  function, either serially or across a ``ProcessPoolExecutor``, always
  returning results in cell order (so parallel and serial execution are
  byte-identical),
* :func:`aggregate_records` folds the per-seed
  :class:`~repro.harness.runner.RunRecord` list into per-cell
  :class:`ReplicatedResult` objects (per-metric mean / stddev / 95% CI),
* :func:`run_cell` is the one cell worker: it runs a cell and returns the
  record plus the telemetry lines its monitors emitted,
* :func:`sweep_replications` ties it all together and returns a
  :class:`SweepResult`.

Interactive single-scenario comparisons call
:meth:`~repro.harness.runner.ExperimentRunner.run` once per protocol: it
returns rich :class:`~repro.harness.runner.RunResult` objects that still
carry the live stats collector.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.harness.runner import ExperimentRunner, RunRecord
from repro.harness.scenario import Scenario
from repro.monitors.telemetry import BufferSink, resolve_sink
from repro.protocols.base import ProtocolConfig
from repro.radio.registry import DEFAULT_RADIO
from repro.store.keys import cell_key, code_version, parse_shard, shard_of
from repro.store.schema import RECORD_SCHEMA_VERSION, check_record_schema_version
from repro.store.store import ExperimentStore
from repro.workloads.registry import with_traffic

_CellT = TypeVar("_CellT")
_ResultT = TypeVar("_ResultT")

#: Two-sided 95% Student-t critical values by degrees of freedom.  Replication
#: counts are small (a handful of seeds per cell), where the normal
#: approximation badly understates the interval; beyond df=30 the normal
#: z-value is accurate to < 2%.
_T95: Dict[int, float] = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}
_Z95 = 1.960


def t_critical_95(n: int) -> float:
    """Two-sided 95% t critical value for a sample of size ``n``."""
    df = n - 1
    if df < 1:
        return 0.0
    return _T95.get(df, _Z95)


# --------------------------------------------------------------- run matrix
@dataclass(frozen=True)
class SweepCell:
    """One run of the matrix: a scenario (carrying its seed) under one protocol."""

    scenario: Scenario
    protocol: str
    protocol_config: Optional[ProtocolConfig] = None


def build_matrix(
    scenarios: Sequence[Scenario],
    protocol_names: Sequence[str],
    seeds: Sequence[int],
    protocol_configs: Optional[Dict[str, ProtocolConfig]] = None,
    workloads: Optional[Sequence[str]] = None,
    radios: Optional[Sequence[str]] = None,
    traffic: Optional[Dict[str, object]] = None,
) -> List[SweepCell]:
    """Expand scenarios x protocols x workloads x radios x seeds into cells.

    The matrix order is deterministic (scenario-major, then protocol, then
    workload, then radio, then seed), which fixes both
    the execution schedule and the ordering of every downstream report.
    ``workloads`` is an optional sweep axis of workload kind/preset names;
    when omitted every cell keeps the scenario's own ``workload`` (``"cbr"``
    by default).  ``radios`` is the optional radio axis (radio kind/preset
    names resolved through :mod:`repro.radio.registry`); when omitted every
    cell keeps the scenario's own radio stack (``ideal-disk-250m`` by
    default).  ``traffic`` settings (``{"flows": 2}``)
    apply per cell after the axis reset, through
    :func:`repro.workloads.registry.with_traffic`.
    """
    if not seeds:
        raise ValueError("at least one replication seed is required")
    if len(set(seeds)) != len(seeds):
        # Repeating a seed reruns the identical deterministic cell: the
        # aggregate would report extra replications with zero added variance.
        raise ValueError("replication seeds must be unique")
    if len(set(protocol_names)) != len(protocol_names):
        # Same reasoning as seeds: a repeated protocol duplicates cells.
        raise ValueError("sweep protocols must be unique")
    if workloads is not None and len(set(workloads)) != len(workloads):
        # Same reasoning as seeds: a repeated workload duplicates cells.
        raise ValueError("sweep workloads must be unique")
    if radios is not None and len(set(radios)) != len(radios):
        # Same reasoning as seeds: a repeated radio duplicates cells.
        raise ValueError("sweep radios must be unique")
    names = [scenario.name for scenario in scenarios]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        # Aggregation groups by (scenario name, protocol, workload, radio);
        # scenarios sharing a name would be merged into one cell and corrupt
        # the statistics.
        raise ValueError(f"scenario names must be unique, duplicated: {duplicates}")
    configs = protocol_configs or {}
    cells: List[SweepCell] = []
    for scenario in scenarios:
        if workloads is None:
            # No axis: every cell keeps the scenario's own workload and its
            # parameters.
            varied_scenarios = [scenario]
        else:
            # Axis cells name a kind/preset; the scenario's own
            # workload_params belong to *its* workload and would be passed
            # as foreign constructor keywords to the others (TypeError at
            # run time), so the axis resets them -- parameterised axis
            # entries should be presets.
            varied_scenarios = [
                scenario.with_overrides(workload=workload, workload_params={})
                for workload in workloads
            ]
        if radios is not None:
            # Same reset logic as the workload axis: radio_params belong to
            # the scenario's own stack, not to the axis entries.
            varied_scenarios = [
                varied.with_overrides(radio_stack=radio, radio_params={})
                for varied in varied_scenarios
                for radio in radios
            ]
        if traffic:
            varied_scenarios = [with_traffic(varied, traffic) for varied in varied_scenarios]
        for protocol in protocol_names:
            for varied in varied_scenarios:
                for seed in seeds:
                    cells.append(
                        SweepCell(
                            scenario=varied.with_overrides(seed=seed),
                            protocol=protocol,
                            protocol_config=configs.get(protocol),
                        )
                    )
    return cells


def run_cell(cell: SweepCell) -> Tuple[RunRecord, List[str]]:
    """Execute one cell in a fresh runner: its record and telemetry lines.

    Module-level (not a closure) so ``ProcessPoolExecutor`` can ship it to
    worker processes; a fresh :class:`ExperimentRunner` per cell guarantees
    runs cannot contaminate each other through runner state, and every
    cell builds its own mobility.  Telemetry is buffered in memory and
    shipped back with the record; the sweep's in-order result hook writes
    it to the sink, so the telemetry file of a ``workers=N`` sweep is
    byte-identical to the serial one.  Unmonitored cells emit no lines.
    """
    sink = BufferSink()
    result = ExperimentRunner().run(
        cell.scenario,
        cell.protocol,
        protocol_config=cell.protocol_config,
        telemetry=sink,
    )
    return result.to_record(), sink.lines


def execute_cells(
    cells: Sequence[_CellT],
    worker: Callable[[_CellT], _ResultT],
    workers: int = 1,
    mp_context=None,
    on_result: Optional[Callable[[int, _ResultT], None]] = None,
) -> List[_ResultT]:
    """Run ``worker`` over every cell, serially or across processes.

    Results are always returned in cell order regardless of which worker
    finishes first, so ``workers=N`` and ``workers=1`` produce identical
    output for a deterministic worker.  ``worker`` and the cells must be
    picklable when ``workers > 1``.

    ``on_result(index, result)`` is invoked in this process as each cell's
    result becomes available, always in cell order (the pool map yields
    in submission order as results arrive).  The experiment store hangs
    its streaming per-cell appends off this hook, which is why it runs in
    the parent: a hard kill of the sweep process stops the record log at a
    line boundary instead of stranding half-written worker output.
    """
    results: List[_ResultT] = []
    if workers <= 1:
        for index, cell in enumerate(cells):
            result = worker(cell)
            if on_result is not None:
                on_result(index, result)
            results.append(result)
        return results
    max_workers = min(workers, len(cells)) or 1
    with ProcessPoolExecutor(max_workers=max_workers, mp_context=mp_context) as pool:
        for index, result in enumerate(pool.map(worker, cells)):
            if on_result is not None:
                on_result(index, result)
            results.append(result)
    return results


# -------------------------------------------------------------- aggregation
@dataclass(frozen=True)
class MetricAggregate:
    """Mean / spread of one metric over the replication seeds of a cell."""

    mean: float
    stddev: float
    ci95: float
    n: int

    def to_dict(self) -> Dict[str, float]:
        return {"mean": self.mean, "stddev": self.stddev, "ci95": self.ci95, "n": self.n}

    @classmethod
    def from_dict(cls, payload: Dict[str, float]) -> "MetricAggregate":
        return cls(
            mean=float(payload["mean"]),
            stddev=float(payload["stddev"]),
            ci95=float(payload["ci95"]),
            n=int(payload["n"]),
        )

    @classmethod
    def of(cls, values: Sequence[float]) -> "MetricAggregate":
        """Aggregate raw per-seed values (sample stddev, Student-t 95% CI)."""
        n = len(values)
        if n == 0:
            return cls(0.0, 0.0, 0.0, 0)
        mean = sum(values) / n
        if n < 2:
            return cls(mean, 0.0, 0.0, n)
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        stddev = math.sqrt(variance)
        ci95 = t_critical_95(n) * stddev / math.sqrt(n)
        return cls(mean, stddev, ci95, n)


#: Metrics surfaced by default in replicated report rows.
HEADLINE_METRICS: Tuple[str, ...] = (
    "delivery_ratio",
    "mean_delay_s",
    "mean_hops",
    "overhead_ratio",
    "transmissions_per_delivery",
    "mac_collisions",
)


@dataclass
class ReplicatedResult:
    """Per-(scenario, protocol, workload, radio) aggregate over seeds."""

    scenario_name: str
    protocol: str
    seeds: Tuple[int, ...]
    metrics: Dict[str, MetricAggregate]
    workload: str = "cbr"
    radio: str = DEFAULT_RADIO

    @property
    def replications(self) -> int:
        """Number of seeds aggregated into this cell."""
        return len(self.seeds)

    def metric(self, name: str) -> MetricAggregate:
        """The aggregate for ``name`` (zeros if the metric never appeared)."""
        return self.metrics.get(name, MetricAggregate(0.0, 0.0, 0.0, 0))

    def row(self, metric_names: Optional[Sequence[str]] = None) -> Dict[str, object]:
        """Flat report row: ``<metric>_mean`` / ``<metric>_ci95`` / ``<metric>_n``.

        The per-metric ``_n`` matters because a metric may be absent from
        some seeds' records (e.g. ``path_stretch`` when a run delivers
        nothing) and is then aggregated over fewer than ``replications``
        runs.
        """
        selected = list(metric_names) if metric_names is not None else list(HEADLINE_METRICS)
        row: Dict[str, object] = {
            "scenario": self.scenario_name,
            "protocol": self.protocol,
            "workload": self.workload,
            "radio": self.radio,
            "replications": self.replications,
        }
        for name in selected:
            aggregate = self.metric(name)
            row[f"{name}_mean"] = aggregate.mean
            row[f"{name}_ci95"] = aggregate.ci95
            row[f"{name}_n"] = aggregate.n
        return row

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario_name": self.scenario_name,
            "protocol": self.protocol,
            "workload": self.workload,
            "radio": self.radio,
            "seeds": list(self.seeds),
            "metrics": {name: agg.to_dict() for name, agg in sorted(self.metrics.items())},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ReplicatedResult":
        return cls(
            scenario_name=str(payload["scenario_name"]),
            protocol=str(payload["protocol"]),
            seeds=tuple(int(seed) for seed in payload.get("seeds", [])),
            metrics={
                str(name): MetricAggregate.from_dict(agg)
                for name, agg in payload.get("metrics", {}).items()
            },
            workload=str(payload.get("workload", "cbr")),
            radio=str(payload.get("radio", DEFAULT_RADIO)),
        )


def aggregate_records(records: Iterable[RunRecord]) -> List[ReplicatedResult]:
    """Fold per-seed records into one :class:`ReplicatedResult` per cell.

    Cells are keyed by (scenario name, protocol, workload, radio) and appear
    in first-seen order; within a cell, every metric present in any seed's
    record is aggregated over the seeds that report it.
    """
    grouped: Dict[Tuple[str, str, str, str], List[RunRecord]] = {}
    for record in records:
        grouped.setdefault(
            (record.scenario_name, record.protocol, record.workload, record.radio), []
        ).append(record)
    replicated: List[ReplicatedResult] = []
    for (scenario_name, protocol, workload, radio), bucket in grouped.items():
        metric_names = sorted({name for record in bucket for name in record.metrics})
        metrics = {
            name: MetricAggregate.of(
                [record.metrics[name] for record in bucket if name in record.metrics]
            )
            for name in metric_names
        }
        replicated.append(
            ReplicatedResult(
                scenario_name=scenario_name,
                protocol=protocol,
                seeds=tuple(record.seed for record in bucket),
                metrics=metrics,
                workload=workload,
                radio=radio,
            )
        )
    return replicated


@dataclass
class SweepResult:
    """Everything a replicated sweep produced.

    Attributes:
        records: One :class:`RunRecord` per matrix cell, in matrix order.
        replicated: Per-(scenario, protocol) aggregates over the seeds.
        executed_cells: Cells actually run by this sweep (excluded from
            comparison and serialisation: a resumed sweep and a fresh one
            that produced the same records are the same result).
        reused_cells: Cells satisfied from the experiment store instead of
            executing.
    """

    records: List[RunRecord] = field(default_factory=list)
    replicated: List[ReplicatedResult] = field(default_factory=list)
    executed_cells: int = field(default=0, compare=False)
    reused_cells: int = field(default=0, compare=False)

    def record_rows(self) -> List[Dict[str, object]]:
        """One flat row per individual run."""
        return [record.row() for record in self.records]

    def rows(self, metric_names: Optional[Sequence[str]] = None) -> List[Dict[str, object]]:
        """One flat row per aggregated (scenario, protocol) cell."""
        return [result.row(metric_names) for result in self.replicated]

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": RECORD_SCHEMA_VERSION,
            "records": [record.to_dict() for record in self.records],
            "replicated": [result.to_dict() for result in self.replicated],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SweepResult":
        check_record_schema_version(payload, "sweep artifact")
        return cls(
            records=[RunRecord.from_dict(item) for item in payload.get("records", [])],
            replicated=[
                ReplicatedResult.from_dict(item) for item in payload.get("replicated", [])
            ],
        )


def sweep_replications(
    scenarios: Sequence[Scenario],
    protocol_names: Sequence[str],
    seeds: Sequence[int],
    workers: int = 1,
    protocol_configs: Optional[Dict[str, ProtocolConfig]] = None,
    workloads: Optional[Sequence[str]] = None,
    radios: Optional[Sequence[str]] = None,
    store: Optional[Union[str, Path, ExperimentStore]] = None,
    resume: bool = True,
    shard: Optional[Union[str, Tuple[int, int]]] = None,
    monitors: Optional[Sequence[str]] = None,
    monitor_params: Optional[Dict[str, Dict[str, object]]] = None,
    telemetry: Optional[Union[str, Path]] = None,
    traffic: Optional[Dict[str, object]] = None,
) -> SweepResult:
    """Run the scenario x protocol x workload x radio x seed matrix.

    ``workers=1`` runs serially in-process; ``workers > 1`` fans the cells
    out over a process pool; fewer than 1 is a ``ValueError``.  Both
    schedules produce identical :class:`SweepResult` contents because every
    cell is seeded explicitly and results are re-assembled in matrix order.
    ``workloads`` adds the workload axis and ``radios`` the radio axis;
    omitted, every cell keeps the scenario's own workload / radio stack.
    ``traffic`` is passed to :func:`build_matrix`.

    ``store`` (a directory path or :class:`ExperimentStore`) streams every
    completed cell into a content-addressed record log as it finishes, so
    partial results survive a crash.  With ``resume=True`` (the default)
    cells whose key is already in the store are *not* executed -- their
    stored records flow straight into the result -- which makes an
    interrupted sweep restartable and an identical re-run free.
    ``resume=False`` re-executes (and re-appends) everything.

    ``shard="K/N"`` (or ``(K, N)``, 1-based K) keeps only the cells whose
    content key falls into shard ``K`` of an ``N``-way hash partition.
    Every machine computes the same partition independently, so ``N``
    machines each running one shard into their own store cover the matrix
    exactly once with no coordination; union the stores afterwards.

    ``monitors`` attaches the given monitor kinds/presets (resolved by
    name through :mod:`repro.monitors`) to *every* cell -- a fixed
    observability set, not a matrix axis -- with optional per-monitor
    ``monitor_params`` overrides.  Their summary metrics land in each
    record's ``extra`` and therefore in the aggregates and artifacts.
    ``telemetry`` names a JSONL file that receives every executed cell's
    streaming telemetry, written by the parent in cell order (so serial
    and parallel sweeps produce byte-identical files); cells reused from
    the store emit no telemetry (they did not run).
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1 (got {workers})")
    if monitors:
        monitor_set = tuple(monitors)
        params = dict(monitor_params or {})
        unknown = sorted(set(params) - set(monitor_set))
        if unknown:
            raise ValueError(
                f"monitor_params for monitors not in the sweep's monitor set: {unknown}"
            )
        scenarios = [
            scenario.with_overrides(monitors=monitor_set, monitor_params=params)
            for scenario in scenarios
        ]
    elif monitor_params:
        raise ValueError("monitor_params given without monitors")
    if telemetry is not None and not monitors:
        raise ValueError("telemetry sink given without monitors")
    cells = build_matrix(
        scenarios,
        protocol_names,
        seeds,
        protocol_configs,
        workloads,
        radios,
        traffic,
    )
    total_cells = len(cells)
    keys: Optional[List[str]] = None
    code: Optional[str] = None
    if store is not None or shard is not None:
        code = code_version()
        keys = [
            cell_key(cell.scenario, cell.protocol, cell.protocol_config, code)
            for cell in cells
        ]
    shard_spec: Optional[str] = None
    if shard is not None:
        if isinstance(shard, str):
            shard_index, shard_count = parse_shard(shard)
        else:
            shard_index, shard_count = shard
            if shard_count < 1 or not 1 <= shard_index <= shard_count:
                raise ValueError(
                    f"shard {shard!r} out of range: need 1 <= K <= N with N >= 1"
                )
        assert keys is not None
        mine = [
            position
            for position, key in enumerate(keys)
            if shard_of(key, shard_count) == shard_index - 1
        ]
        cells = [cells[position] for position in mine]
        keys = [keys[position] for position in mine]
        shard_spec = f"{shard_index}/{shard_count}"

    exp_store: Optional[ExperimentStore] = None
    cached: Dict[str, RunRecord] = {}
    if store is not None:
        exp_store = store if isinstance(store, ExperimentStore) else ExperimentStore(store)
        assert keys is not None
        # No timestamps in the manifest: a resumed sweep and a fresh one
        # over the same matrix must leave byte-identical store metadata.
        exp_store.write_manifest(
            {
                "code_version": code,
                "matrix": {
                    "scenarios": [scenario.name for scenario in scenarios],
                    "protocols": list(protocol_names),
                    "seeds": [int(seed) for seed in seeds],
                    "workloads": list(workloads) if workloads is not None else None,
                    "radios": list(radios) if radios is not None else None,
                    "monitors": list(monitors) if monitors else None,
                    "total_cells": total_cells,
                    "shard": shard_spec,
                },
            }
        )
        if resume:
            index = exp_store.load_index()
            cached = {key: index[key] for key in keys if key in index}

    if keys is not None:
        pending = [
            (cell, key) for cell, key in zip(cells, keys) if key not in cached
        ]
        pending_cells = [cell for cell, _key in pending]
        pending_keys: List[str] = [key for _cell, key in pending]
    else:
        pending_cells = list(cells)
        pending_keys = []

    telemetry_sink, telemetry_owned = resolve_sink(telemetry)

    on_result: Optional[Callable[[int, Tuple[RunRecord, List[str]]], None]] = None
    if exp_store is not None or telemetry_sink is not None:
        # Both the store append and the telemetry write run in the parent,
        # in cell order (the execute_cells contract): a hard kill stops the
        # files at a line boundary, and workers=N telemetry is byte-equal
        # to serial because ordering never depends on worker completion.
        def _stream_result(index: int, outcome: Tuple[RunRecord, List[str]]) -> None:
            record, lines = outcome
            if telemetry_sink is not None:
                for line in lines:
                    telemetry_sink.write(line)
            if exp_store is not None:
                exp_store.append(pending_keys[index], record)

        on_result = _stream_result

    try:
        fresh = execute_cells(pending_cells, run_cell, workers=workers, on_result=on_result)
    finally:
        if exp_store is not None:
            exp_store.close()
        if telemetry_owned and telemetry_sink is not None:
            telemetry_sink.close()

    fresh_records = [record for record, _lines in fresh]
    if cached:
        by_key = dict(zip(pending_keys, fresh_records))
        assert keys is not None
        records = [cached[key] if key in cached else by_key[key] for key in keys]
    else:
        records = fresh_records
    return SweepResult(
        records=records,
        replicated=aggregate_records(records),
        executed_cells=len(pending_cells),
        reused_cells=len(cached),
    )
