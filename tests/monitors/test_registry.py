"""Monitor registry: built-in kinds, presets, name resolution."""

from __future__ import annotations

import pytest

from repro.monitors import (
    MONITORS,
    ConservationInvariantMonitor,
    LatencyDistributionMonitor,
    Monitor,
    TimeSeriesMonitor,
    TransmissionHeatmapMonitor,
)


def test_builtin_kinds_registered():
    assert set(MONITORS.names()) >= {
        "latency-dist",
        "timeseries",
        "heatmap",
        "invariant",
    }
    assert MONITORS["latency-dist"] is LatencyDistributionMonitor
    assert MONITORS["timeseries"] is TimeSeriesMonitor
    assert MONITORS["heatmap"] is TransmissionHeatmapMonitor
    assert MONITORS["invariant"] is ConservationInvariantMonitor


def test_builtin_presets_registered():
    assert set(MONITORS.preset_names()) >= {
        "latency-dist-fine",
        "timeseries-1s",
        "timeseries-100ms",
        "heatmap-250m",
        "heatmap-1km",
        "invariant-strict",
    }


def test_resolve_kind_and_overrides():
    monitor = MONITORS.resolve("timeseries", bucket_s=0.25)
    assert isinstance(monitor, TimeSeriesMonitor)
    assert monitor.bucket_s == 0.25


def test_resolve_preset_defaults_and_overrides():
    preset = MONITORS.resolve("invariant-strict")
    assert isinstance(preset, ConservationInvariantMonitor)
    assert preset.checkpoint_interval_s == 1.0
    overridden = MONITORS.resolve("invariant-strict", checkpoint_interval_s=0.5)
    assert overridden.checkpoint_interval_s == 0.5


def test_builtin_preset_parameters_differ_from_kind_defaults():
    fine = MONITORS.resolve("latency-dist-fine")
    assert fine.sketch.bin_ratio == 1.01
    plain = MONITORS.resolve("latency-dist")
    assert plain.sketch.bin_ratio == 1.05


def test_resolve_unknown_is_actionable():
    with pytest.raises(KeyError, match="unknown monitor 'nope'"):
        MONITORS.resolve("nope")


def test_register_stamps_monitor_name():
    @MONITORS.register("test-probe")
    class TestProbe(Monitor):
        pass

    try:
        assert TestProbe.monitor_name == "test-probe"
        assert isinstance(MONITORS.resolve("test-probe"), TestProbe)
    finally:
        MONITORS.unregister("test-probe")
    assert "test-probe" not in MONITORS


def test_register_preset_applies_defaults():
    MONITORS.register_preset(
        "test-probe-preset", TimeSeriesMonitor, "test", kind="timeseries", bucket_s=2.0
    )
    try:
        assert MONITORS.resolve("test-probe-preset").bucket_s == 2.0
    finally:
        MONITORS.unregister_preset("test-probe-preset")
    assert "test-probe-preset" not in MONITORS


def test_rows_cover_every_registration():
    kind_rows = MONITORS.kind_rows()
    assert {row["monitor"] for row in kind_rows} == set(MONITORS.kinds)
    assert all(row["description"] for row in kind_rows)
    preset_rows = MONITORS.preset_rows()
    assert {row["preset"] for row in preset_rows} == set(MONITORS.presets)
    assert all(row["monitor"] in MONITORS.kinds for row in preset_rows)
