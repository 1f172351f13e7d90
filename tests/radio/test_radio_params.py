"""Radio parameters are validated at construction with named errors.

Each out-of-range value below used to fail deep inside a run (a NaN disk
range in the grid's cell arithmetic, a zero bitrate as a
``ZeroDivisionError`` in the MAC, a negative slot time in the scheduler) or
to run silently with meaningless numbers (NaN transmit power, an inverted
contention window).  Every check names the offending field.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.harness.runner import ExperimentRunner
from repro.harness.scenarios import scenario_from_name
from repro.radio.mac import MacConfig
from repro.radio.propagation import UnitDiskPropagation
from repro.radio.reception import ProbabilisticReception, SnrThresholdReception
from repro.radio.registry import radio_from_name
from repro.radio.stack import RadioStack

NAN = math.nan
INF = math.inf


@pytest.mark.parametrize("value", [NAN, INF, 0.0, -250.0])
def test_unit_disk_range_rejected(value):
    with pytest.raises(ValueError, match="communication_range"):
        UnitDiskPropagation(value)


@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_stack_tx_power_rejected(value):
    with pytest.raises(ValueError, match="tx_power_dbm"):
        RadioStack(tx_power_dbm=value)


@pytest.mark.parametrize("value", [NAN, INF, 0.0, -6e6])
def test_mac_bitrate_rejected(value):
    with pytest.raises(ValueError, match="bitrate_bps"):
        MacConfig(bitrate_bps=value)


@pytest.mark.parametrize("field", ["slot_time", "difs", "phy_overhead_s"])
@pytest.mark.parametrize("value", [NAN, INF, -1e-5])
def test_mac_durations_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        MacConfig(**{field: value})


@pytest.mark.parametrize(
    "cw_min,cw_max", [(31, 7), (-1, 15), (-3, -1)]
)
def test_mac_contention_window_rejected(cw_min, cw_max):
    with pytest.raises(ValueError, match="cw_min"):
        MacConfig(cw_min=cw_min, cw_max=cw_max)


@pytest.mark.parametrize("field", ["max_busy_retries", "max_unicast_retries"])
def test_mac_retry_counts_rejected(field):
    with pytest.raises(ValueError, match=field):
        MacConfig(**{field: -1})


@pytest.mark.parametrize("value", [0, -4])
def test_mac_queue_rejected(value):
    with pytest.raises(ValueError, match="max_queue"):
        MacConfig(max_queue=value)


@pytest.mark.parametrize("model", [SnrThresholdReception, ProbabilisticReception])
@pytest.mark.parametrize("field", ["sensitivity_dbm", "noise_floor_dbm", "snr_threshold_db"])
@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_reception_levels_rejected(model, field, value):
    with pytest.raises(ValueError, match=field):
        model(**{field: value})


@pytest.mark.parametrize("value", [NAN, INF, 0.0])
def test_probabilistic_steepness_rejected(value):
    with pytest.raises(ValueError, match="steepness_db"):
        ProbabilisticReception(steepness_db=value)


def test_legal_edges_stay_legal():
    """Zero durations, zero retries, an equal window and a 1-frame queue."""
    config = MacConfig(
        slot_time=0.0,
        difs=0.0,
        phy_overhead_s=0.0,
        cw_min=0,
        cw_max=0,
        max_busy_retries=0,
        max_unicast_retries=0,
        max_queue=1,
    )
    assert config.frame_airtime(100) == 800.0 / config.bitrate_bps
    assert RadioStack(tx_power_dbm=-10.0).tx_power_dbm == -10.0
    assert SnrThresholdReception(snr_threshold_db=-3.0).snr_threshold_db == -3.0


@pytest.mark.parametrize(
    "radio_params,field",
    [
        ({"communication_range_m": NAN}, "communication_range"),
        ({"tx_power_dbm": NAN}, "tx_power_dbm"),
        ({"tx_power_dbm": INF}, "tx_power_dbm"),
    ],
)
def test_registry_kind_params_rejected(radio_params, field):
    with pytest.raises(ValueError, match=field):
        radio_from_name("unit_disk", rng=random.Random(1), **radio_params)


def test_scenario_run_fails_before_simulating():
    """The named error surfaces from the harness, not mid-run."""
    scenario = scenario_from_name(
        "highway-2km-normal",
        seed=1,
        duration_s=2.0,
        max_vehicles=10,
        radio_stack="unit_disk",
        radio_params={"communication_range_m": NAN},
    )
    with pytest.raises(ValueError, match="communication_range"):
        ExperimentRunner().run(scenario, "Greedy")
