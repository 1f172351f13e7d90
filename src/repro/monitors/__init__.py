"""Monitors: passive observability probes.

Monitors subscribe to the sim core's event tap (:mod:`repro.sim.tap`),
stream JSONL telemetry mid-run, and contribute summary metrics to run
records.  Importing this package registers the built-in monitor kinds and
presets in :data:`~repro.monitors.registry.MONITORS`.
"""

from repro.monitors import (  # noqa: F401  (imported for registration)
    heatmap,
    invariant,
    latency,
    timeseries,
)
from repro.monitors.base import Monitor
from repro.monitors.heatmap import TransmissionHeatmapMonitor
from repro.monitors.invariant import ConservationInvariantMonitor, InvariantViolationError
from repro.monitors.latency import LatencyDistributionMonitor
from repro.monitors.registry import MONITORS
from repro.monitors.sketch import QuantileSketch
from repro.monitors.telemetry import (
    KNOWN_TELEMETRY_SCHEMA_VERSIONS,
    TELEMETRY_FIELDS,
    TELEMETRY_SCHEMA_VERSION,
    BufferSink,
    CallbackSink,
    JsonlFileSink,
    TelemetrySink,
    check_telemetry_schema_version,
    resolve_sink,
    telemetry_line,
)
from repro.monitors.timeseries import TimeSeriesMonitor

__all__ = [
    "Monitor",
    "MONITORS",
    "QuantileSketch",
    "LatencyDistributionMonitor",
    "TimeSeriesMonitor",
    "TransmissionHeatmapMonitor",
    "ConservationInvariantMonitor",
    "InvariantViolationError",
    "TELEMETRY_SCHEMA_VERSION",
    "TELEMETRY_FIELDS",
    "KNOWN_TELEMETRY_SCHEMA_VERSIONS",
    "check_telemetry_schema_version",
    "telemetry_line",
    "TelemetrySink",
    "JsonlFileSink",
    "BufferSink",
    "CallbackSink",
    "resolve_sink",
]
