"""Tests for the NiuDe (DeReQ) QoS routing protocol."""

import pytest

from repro.geometry import Vec2
from repro.protocols.probability import NiuDeConfig, NiuDeProtocol
from tests.helpers import build_static_network, line_positions, run_data_flow

SPACING = 200.0


class TestNiuDeMetric:
    def _protocol(self, config=None) -> NiuDeProtocol:
        sim, network, stats, nodes = build_static_network(
            line_positions(2, SPACING), protocol="NiuDe", protocol_config=config
        )
        return nodes[0].protocol

    def test_metric_is_a_probability(self):
        protocol = self._protocol()
        value = protocol.link_metric(Vec2(100, 0), Vec2(30, 0), Vec2(0, 0), Vec2(-30, 0), {})
        assert 0.0 <= value <= 1.0

    def test_co_moving_link_more_reliable_than_opposing(self):
        protocol = self._protocol(NiuDeConfig(qos_horizon_s=20.0))
        same = protocol.link_metric(Vec2(200, 0), Vec2(30, 0), Vec2(0, 0), Vec2(30, 0), {})
        opposite = protocol.link_metric(Vec2(200, 0), Vec2(30, 0), Vec2(0, 0), Vec2(-30, 0), {})
        assert same > opposite

    def test_path_reliability_is_a_product(self):
        protocol = self._protocol()
        assert protocol.initial_metric() == 1.0
        assert protocol.accumulate_metric(0.9, 0.5) == pytest.approx(0.45)

    def test_delay_budget_penalises_long_paths(self):
        config = NiuDeConfig(max_delay_s=0.05, per_hop_delay_s=0.02)
        protocol = self._protocol(config)
        short_path = [1, 2, 3]          # 2 hops -> 0.04 s, within budget
        long_path = [1, 2, 3, 4, 5]     # 4 hops -> 0.08 s, over budget
        assert protocol.path_score(0.8, short_path) > protocol.path_score(0.99, long_path)
        assert protocol.estimated_path_delay(long_path) == pytest.approx(0.08)

    def test_route_lifetime_scales_with_reliability(self):
        protocol = self._protocol(NiuDeConfig(qos_horizon_s=10.0))
        assert protocol._route_lifetime_from_metric(0.9) == pytest.approx(9.0)
        assert protocol._route_lifetime_from_metric(0.05) >= 0.5


class TestNiuDeEndToEnd:
    def test_delivery_on_a_static_line(self):
        sim, network, stats, nodes = build_static_network(
            line_positions(5, SPACING), protocol="NiuDe"
        )
        network.start()
        run_data_flow(sim, stats, nodes[0], nodes[4], packets=5, start=2.0, until=25.0)
        assert stats.delivery_ratio >= 0.8

    def test_registered_in_probability_category(self):
        from repro.core.taxonomy import PROTOCOLS, Category

        assert PROTOCOLS["NiuDe"].category is Category.PROBABILITY
