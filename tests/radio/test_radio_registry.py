"""Tests for the radio registry: kinds, presets, stacks and fading models."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.scenario import RadioConfig, Scenario
from repro.radio.interference import (
    NO_SIGNAL_DBM,
    AdditiveInterference,
    NoInterference,
    combine_dbm,
)
from repro.radio.mac import MacConfig
from repro.radio.propagation import (
    LogNormalShadowing,
    NakagamiFading,
    PropagationModel,
    TwoRayGroundPropagation,
    UnitDiskPropagation,
)
from repro.radio.reception import (
    ProbabilisticReception,
    ReceptionModel,
    SnrThresholdReception,
)
from repro.radio.registry import (
    DEFAULT_RADIO,
    RADIOS,
    radio_from_name,
    stack_for_scenario,
)
from repro.radio.stack import RadioStack


class TestRegistryRoundTrip:
    def test_builtin_kinds_are_registered(self):
        assert {"unit_disk", "free_space", "two_ray", "shadowing", "nakagami"} <= set(RADIOS.names())

    def test_builtin_presets_are_registered(self):
        assert {
            "ideal-disk-250m",
            "dsrc-highway-los",
            "dsrc-urban-nlos",
            "dsrc-congested",
        } <= set(RADIOS.preset_names())

    def test_every_kind_builds_a_complete_stack(self):
        for name in RADIOS.names():
            stack = radio_from_name(name, rng=random.Random(1))
            assert isinstance(stack, RadioStack)
            assert stack.name == name
            assert isinstance(stack.propagation, PropagationModel)
            assert isinstance(stack.reception, ReceptionModel)
            assert isinstance(stack.mac, MacConfig)
            assert stack.interference.combine([0.0]) <= 0.0

    def test_every_preset_builds_a_complete_stack(self):
        for name in RADIOS.preset_names():
            stack = radio_from_name(name, rng=random.Random(1))
            assert isinstance(stack, RadioStack)
            assert stack.name == name
            # The advertised kind matches the built propagation family.
            assert RADIOS.presets[name].kind in RADIOS.kinds

    def test_register_and_unregister_custom_kind(self):
        @RADIOS.register("test-floor")
        def _build(rng, floor_dbm=-80.0):
            return RadioStack(reception=SnrThresholdReception(noise_floor_dbm=floor_dbm))

        try:
            stack = radio_from_name("test-floor", floor_dbm=-70.0)
            assert stack.name == "test-floor"
            assert stack.reception.noise_floor_dbm == -70.0
        finally:
            RADIOS.unregister("test-floor")
        with pytest.raises(KeyError):
            radio_from_name("test-floor")

    def test_register_and_unregister_custom_preset(self):
        RADIOS.register_preset(
            "test-short-disk",
            lambda rng, **o: radio_from_name("unit_disk", rng=rng, **{"communication_range_m": 50.0, **o}),
            "tiny disk",
            kind="unit_disk",
        )
        try:
            stack = radio_from_name("test-short-disk")
            assert stack.propagation.communication_range == 50.0
            # Overrides win over the preset's own parameters.
            wider = radio_from_name("test-short-disk", communication_range_m=75.0)
            assert wider.propagation.communication_range == 75.0
        finally:
            RADIOS.unregister_preset("test-short-disk")
        with pytest.raises(KeyError):
            radio_from_name("test-short-disk")

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="dsrc-urban-nlos"):
            radio_from_name("warp-drive")

    def test_listing_rows(self):
        kinds = {row["radio"] for row in RADIOS.kind_rows()}
        assert "nakagami" in kinds
        presets = {row["preset"]: row for row in RADIOS.preset_rows()}
        assert presets[DEFAULT_RADIO]["nominal_range_m"] == "250"
        assert presets["dsrc-urban-nlos"]["kind"] == "shadowing"


class TestPresetShapes:
    def test_ideal_disk_matches_seed_radio(self):
        stack = radio_from_name(DEFAULT_RADIO)
        assert isinstance(stack.propagation, UnitDiskPropagation)
        assert stack.propagation.communication_range == 250.0
        assert isinstance(stack.reception, SnrThresholdReception)
        assert isinstance(stack.interference, AdditiveInterference)
        assert stack.mac == MacConfig()
        assert stack.tx_power_dbm == 20.0
        assert stack.nominal_range_m() == 250.0

    def test_dsrc_highway_los_is_two_ray(self):
        stack = radio_from_name("dsrc-highway-los")
        assert isinstance(stack.propagation, TwoRayGroundPropagation)
        assert isinstance(stack.reception, SnrThresholdReception)
        assert stack.nominal_range_m() > 250.0

    def test_dsrc_urban_nlos_is_shadowed_and_probabilistic(self):
        stack = radio_from_name("dsrc-urban-nlos", rng=random.Random(3))
        assert isinstance(stack.propagation, LogNormalShadowing)
        assert stack.propagation.sigma_db == 6.0
        assert stack.propagation.path_loss_exponent == 3.0
        assert isinstance(stack.reception, ProbabilisticReception)

    def test_dsrc_congested_shortens_cw_and_raises_noise(self):
        stack = radio_from_name("dsrc-congested")
        assert stack.mac.cw_min < MacConfig().cw_min
        assert stack.reception.noise_floor_dbm > SnrThresholdReception().noise_floor_dbm

    def test_kind_parameters_reach_the_models(self):
        stack = radio_from_name("shadowing", rng=random.Random(5), sigma_db=9.0, tx_power_dbm=23.0)
        assert stack.propagation.sigma_db == 9.0
        assert stack.tx_power_dbm == 23.0
        nakagami = radio_from_name("nakagami", rng=random.Random(5), m=1.5)
        assert nakagami.propagation.m == 1.5


class TestScenarioResolution:
    def test_default_scenario_resolves_to_default_preset(self):
        scenario = Scenario()
        stack = stack_for_scenario(scenario, random.Random(0))
        assert stack.name == DEFAULT_RADIO

    def test_radio_stack_name_takes_precedence(self):
        scenario = Scenario(radio_stack="dsrc-highway-los")
        stack = stack_for_scenario(scenario, random.Random(0))
        assert isinstance(stack.propagation, TwoRayGroundPropagation)
        assert stack.name == "dsrc-highway-los"

    def test_radio_params_reach_the_builder(self):
        scenario = Scenario(radio_stack="nakagami", radio_params={"m": 1.0})
        stack = stack_for_scenario(scenario, random.Random(0))
        assert stack.propagation.m == 1.0

    def test_legacy_shim_maps_shadowing_fields(self):
        scenario = Scenario(
            radio=RadioConfig(propagation="shadowing", shadowing_sigma_db=8.0)
        )
        stack = stack_for_scenario(scenario, random.Random(0))
        assert isinstance(stack.propagation, LogNormalShadowing)
        assert stack.propagation.sigma_db == 8.0
        assert stack.name == "shadowing"

    def test_legacy_shim_maps_unit_disk_range(self):
        scenario = Scenario(radio=RadioConfig(communication_range_m=120.0))
        stack = stack_for_scenario(scenario, random.Random(0))
        assert isinstance(stack.propagation, UnitDiskPropagation)
        assert stack.propagation.communication_range == 120.0
        assert stack.name == "unit_disk"

    def test_legacy_shim_rejects_unknown_propagation(self):
        scenario = Scenario(radio=RadioConfig(propagation="warp-drive"))
        with pytest.raises(ValueError):
            stack_for_scenario(scenario, random.Random(0))

    def test_built_scenario_carries_the_resolved_nominal_range(self):
        """Workloads consume ``built.radio_range_m`` for reachability
        denominators and ideal-hop estimates; it must track the resolved
        stack, not the legacy 250 m shim value."""
        from repro.harness.runner import ExperimentRunner
        from repro.harness.scenario import highway_scenario
        from repro.mobility.generator import TrafficDensity

        def build(**overrides):
            return ExperimentRunner().build(
                highway_scenario(
                    TrafficDensity.SPARSE, duration_s=4.0, max_vehicles=5, **overrides
                )
            )

        assert build().radio_range_m == 250.0
        assert build(radio_stack="dsrc-highway-los").radio_range_m > 500.0
        assert build(radio_stack="dsrc-urban-nlos").radio_range_m < 250.0


class TestInterferenceModels:
    def test_additive_matches_combine_dbm(self):
        model = AdditiveInterference()
        assert model.combine([10.0, 10.0]) == pytest.approx(combine_dbm([10.0, 10.0]))
        assert model.combine([]) == NO_SIGNAL_DBM

    def test_no_interference_is_always_silent(self):
        model = NoInterference()
        assert model.combine([10.0, 30.0]) == NO_SIGNAL_DBM

    def test_uses_contributions_flag(self):
        """The medium relies on this flag to skip per-interferer rx-power
        computation (a per-frame hot path) for contribution-blind models."""
        assert AdditiveInterference().uses_contributions is True
        assert NoInterference().uses_contributions is False


class TestNakagamiFading:
    def test_invalid_m_rejected(self):
        with pytest.raises(ValueError):
            NakagamiFading(m=0.2)

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.floats(min_value=0.5, max_value=8.0),
        distance=st.floats(min_value=5.0, max_value=800.0),
    )
    def test_mean_power_is_the_underlying_models(self, m, distance):
        """The fading draw is zero-mean in linear units: ``mean_rx_power_dbm``
        must report exactly the underlying path-loss model's mean."""
        model = NakagamiFading(m=m, rng=random.Random(1))
        assert model.mean_rx_power_dbm(20.0, distance) == pytest.approx(
            model.mean_model.mean_rx_power_dbm(20.0, distance)
        )

    def test_sample_mean_converges_to_mean_power(self):
        from repro.geometry import Vec2
        from repro.radio.interference import dbm_to_mw

        model = NakagamiFading(m=3.0, rng=random.Random(7))
        origin, rx = Vec2(0.0, 0.0), Vec2(120.0, 0.0)
        draws_mw = [
            dbm_to_mw(model.rx_power_dbm(20.0, origin, rx)) for _ in range(4000)
        ]
        mean_mw = dbm_to_mw(model.mean_rx_power_dbm(20.0, 120.0))
        assert sum(draws_mw) / len(draws_mw) == pytest.approx(mean_mw, rel=0.05)

    def test_m1_is_rayleigh(self):
        """At m=1 the received power is exponential (Rayleigh amplitude):
        the fraction of draws below the mean power is 1 - 1/e."""
        from repro.geometry import Vec2
        from repro.radio.interference import dbm_to_mw

        model = NakagamiFading(m=1.0, rng=random.Random(11))
        origin, rx = Vec2(0.0, 0.0), Vec2(150.0, 0.0)
        mean_mw = dbm_to_mw(model.mean_rx_power_dbm(20.0, 150.0))
        draws = [
            dbm_to_mw(model.rx_power_dbm(20.0, origin, rx)) for _ in range(6000)
        ]
        below = sum(1 for d in draws if d < mean_mw) / len(draws)
        assert below == pytest.approx(1.0 - math.exp(-1.0), abs=0.03)

    def test_larger_m_concentrates_around_mean(self):
        from repro.geometry import Vec2

        origin, rx = Vec2(0.0, 0.0), Vec2(150.0, 0.0)

        def spread(m):
            model = NakagamiFading(m=m, rng=random.Random(13))
            draws = [model.rx_power_dbm(20.0, origin, rx) for _ in range(2000)]
            mean = sum(draws) / len(draws)
            return sum((d - mean) ** 2 for d in draws) / len(draws)

        assert spread(8.0) < spread(1.0)

    def test_no_signal_passes_through(self):
        from repro.geometry import Vec2

        model = NakagamiFading(m=1.0, mean_model=UnitDiskPropagation(100.0), rng=random.Random(1))
        assert model.rx_power_dbm(20.0, Vec2(0, 0), Vec2(500, 0)) == NO_SIGNAL_DBM
