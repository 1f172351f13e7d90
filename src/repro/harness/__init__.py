"""Experiment harness: scenarios, runners, sweeps and reporting.

The benchmarks in ``benchmarks/`` are thin wrappers around this package:
each defines a scenario (or a sweep of scenarios), runs one or more protocols
through :class:`~repro.harness.runner.ExperimentRunner` — or, for replicated
matrices, through :func:`~repro.harness.sweep.sweep_replications` — and
prints the rows of the corresponding figure or table of the paper.
"""

from repro.harness.compare import category_comparison, category_representatives
from repro.harness.reporting import (
    format_table,
    rows_from_json,
    rows_to_csv,
    rows_to_json,
    sweep_from_json,
    sweep_to_csv,
    sweep_to_json,
)
from repro.harness.runner import ExperimentRunner, RunRecord, RunResult
from repro.harness.scenario import (
    Scenario,
    city_scenario,
    highway_scenario,
    manhattan_scenario,
    trace_scenario,
)
from repro.radio import DEFAULT_RADIO, RADIOS, RadioStack, radio_from_name
from repro.workloads import WORKLOADS, Workload
from repro.harness.scenarios import (
    SCENARIOS,
    BuiltMobility,
    build_mobility,
    scenario_from_name,
)
from repro.harness.sweep import (
    MetricAggregate,
    ReplicatedResult,
    SweepCell,
    SweepResult,
    aggregate_records,
    build_matrix,
    execute_cells,
    sweep_replications,
)

__all__ = [
    "category_comparison",
    "category_representatives",
    "format_table",
    "rows_from_json",
    "rows_to_csv",
    "rows_to_json",
    "sweep_from_json",
    "sweep_to_csv",
    "sweep_to_json",
    "ExperimentRunner",
    "RunRecord",
    "RunResult",
    "WORKLOADS",
    "Workload",
    "DEFAULT_RADIO",
    "RADIOS",
    "RadioStack",
    "radio_from_name",
    "Scenario",
    "city_scenario",
    "highway_scenario",
    "manhattan_scenario",
    "trace_scenario",
    "SCENARIOS",
    "BuiltMobility",
    "build_mobility",
    "scenario_from_name",
    "MetricAggregate",
    "ReplicatedResult",
    "SweepCell",
    "SweepResult",
    "aggregate_records",
    "build_matrix",
    "execute_cells",
    "sweep_replications",
]
