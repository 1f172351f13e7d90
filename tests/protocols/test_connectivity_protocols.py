"""Tests for the connectivity-based protocols (Flooding, AODV, DSR, DSDV, Biswas)."""

import pytest

from repro.protocols.connectivity import (
    AodvConfig,
    AodvProtocol,
    DsdvConfig,
    FloodingProtocol,
)
from repro.sim.packet import BROADCAST
from tests.helpers import build_static_network, line_positions, run_data_flow

SPACING = 200.0  # only adjacent nodes are within the 250 m range


def _line_network(count, protocol, **kwargs):
    sim, network, stats, nodes = build_static_network(
        line_positions(count, SPACING), protocol=protocol, **kwargs
    )
    network.start()
    return sim, network, stats, nodes


class TestFlooding:
    def test_multi_hop_delivery_on_a_line(self):
        sim, network, stats, nodes = _line_network(5, "Flooding")
        run_data_flow(sim, stats, nodes[0], nodes[4], packets=5, until=20.0)
        assert stats.delivery_ratio == 1.0
        assert stats.flows[1].mean_hops >= 4

    def test_duplicate_suppression_bounds_transmissions(self):
        sim, network, stats, nodes = _line_network(6, "Flooding")
        run_data_flow(sim, stats, nodes[0], nodes[5], packets=1, until=10.0)
        # Every node transmits each packet at most once.
        assert stats.data_transmissions <= len(nodes)

    def test_flooding_reaches_every_branch(self):
        # A fork: node 0 - 1 - 2, and 1 - 3.  Data for 3 still arrives.
        positions = [(0, 0), (200, 0), (400, 0), (200, 200)]
        sim, network, stats, nodes = build_static_network(positions, protocol="Flooding")
        network.start()
        run_data_flow(sim, stats, nodes[0], nodes[3], packets=3, until=10.0)
        assert stats.delivery_ratio == 1.0

    def test_ttl_limits_propagation(self):
        from repro.protocols.connectivity import FloodingConfig

        config = FloodingConfig(data_ttl=2)
        sim, network, stats, nodes = build_static_network(
            line_positions(6, SPACING), protocol="Flooding", protocol_config=config
        )
        network.start()
        run_data_flow(sim, stats, nodes[0], nodes[5], packets=2, until=10.0)
        assert stats.delivery_ratio == 0.0
        assert stats.ttl_drops > 0

    def test_broadcast_destination_delivered_everywhere(self):
        sim, network, stats, nodes = _line_network(4, "Flooding")
        stats.register_flow(1, nodes[0].node_id, BROADCAST)
        sim.schedule_at(1.0, lambda: nodes[0].protocol.send_data(BROADCAST, flow_id=1, seq=1))
        sim.run(until=5.0)
        # Broadcast data counts one delivery (first receiver) plus duplicates.
        assert stats.flows[1].delivered == 1


class TestAodv:
    def test_route_discovery_and_delivery(self):
        sim, network, stats, nodes = _line_network(5, "AODV")
        run_data_flow(sim, stats, nodes[0], nodes[4], packets=5, start=2.0, until=25.0)
        assert stats.delivery_ratio >= 0.8
        assert stats.route_discoveries_started >= 1
        assert stats.route_discoveries_completed >= 1
        assert stats.mean_route_discovery_latency > 0.0

    def test_control_overhead_is_bounded_by_network_flood(self):
        sim, network, stats, nodes = _line_network(5, "AODV")
        run_data_flow(sim, stats, nodes[0], nodes[4], packets=3, start=2.0, until=20.0)
        rreqs = stats.control_by_type.get("RREQ", 0)
        # One discovery floods each node at most (retries allowed): generous bound.
        assert 0 < rreqs <= 3 * len(nodes) * 3

    def test_data_forwarded_unicast_not_flooded(self):
        sim, network, stats, nodes = _line_network(5, "AODV")
        run_data_flow(sim, stats, nodes[0], nodes[4], packets=5, start=2.0, until=25.0)
        delivered = stats.total_delivered
        # Unicast chain: roughly 4 transmissions per delivered packet, far
        # below the ~5 per packet that flooding would need *per node*.
        assert stats.data_transmissions <= delivered * (len(nodes) + 2)

    def test_unreachable_destination_drops_after_retries(self):
        positions = line_positions(3, SPACING) + [(5000.0, 0.0)]
        sim, network, stats, nodes = build_static_network(positions, protocol="AODV")
        network.start()
        run_data_flow(sim, stats, nodes[0], nodes[3], packets=2, start=2.0, until=20.0)
        assert stats.delivery_ratio == 0.0
        assert stats.no_route_drops >= 1
        assert stats.route_discoveries_started >= 2  # retries happened

    def test_direct_neighbour_needs_single_hop(self):
        sim, network, stats, nodes = _line_network(2, "AODV")
        run_data_flow(sim, stats, nodes[0], nodes[1], packets=3, start=2.0, until=15.0)
        assert stats.delivery_ratio == 1.0
        assert stats.flows[1].mean_hops == pytest.approx(1.0)

    def test_hello_disabled_still_delivers(self):
        config = AodvConfig(use_hello=False)
        sim, network, stats, nodes = build_static_network(
            line_positions(4, SPACING), protocol="AODV", protocol_config=config
        )
        network.start()
        run_data_flow(sim, stats, nodes[0], nodes[3], packets=3, start=1.0, until=15.0)
        assert stats.delivery_ratio >= 0.6
        assert stats.control_by_type.get("HELLO", 0) == 0


class TestDsr:
    def test_source_routed_delivery(self):
        sim, network, stats, nodes = _line_network(5, "DSR")
        run_data_flow(sim, stats, nodes[0], nodes[4], packets=5, start=2.0, until=25.0)
        assert stats.delivery_ratio >= 0.8
        assert stats.flows[1].mean_hops >= 4

    def test_route_cache_avoids_rediscovery(self):
        sim, network, stats, nodes = _line_network(4, "DSR")
        run_data_flow(sim, stats, nodes[0], nodes[3], packets=10, start=2.0, until=30.0)
        # A static topology needs exactly one successful discovery.
        assert stats.route_discoveries_started <= 2
        assert stats.delivery_ratio >= 0.9

    def test_reverse_route_cached_at_destination(self):
        sim, network, stats, nodes = _line_network(4, "DSR")
        run_data_flow(sim, stats, nodes[0], nodes[3], packets=2, start=2.0, until=15.0)
        destination_protocol = nodes[3].protocol
        assert destination_protocol._route_to(nodes[0].node_id) is not None


class TestDsdv:
    def test_proactive_tables_converge_then_deliver(self):
        config = DsdvConfig(update_interval_s=1.0)
        sim, network, stats, nodes = build_static_network(
            line_positions(4, SPACING), protocol="DSDV", protocol_config=config
        )
        network.start()
        # Give the periodic updates time to propagate three hops before sending.
        run_data_flow(sim, stats, nodes[0], nodes[3], packets=5, start=8.0, interval=1.0, until=30.0)
        assert stats.delivery_ratio >= 0.8

    def test_update_overhead_grows_with_node_count(self):
        def updates_for(count):
            sim, network, stats, nodes = build_static_network(
                line_positions(count, SPACING), protocol="DSDV"
            )
            network.start()
            sim.run(until=10.0)
            return stats.control_by_type.get("UPDATE", 0)

        assert updates_for(8) > updates_for(3)

    def test_no_route_packets_are_dropped_not_flooded(self):
        sim, network, stats, nodes = _line_network(3, "DSDV")
        # Send immediately, before any update has been exchanged.
        run_data_flow(sim, stats, nodes[0], nodes[2], packets=1, start=0.1, until=5.0)
        assert stats.no_route_drops >= 1
        assert stats.data_transmissions <= 1


class TestBiswas:
    def test_delivery_with_implicit_acks(self):
        sim, network, stats, nodes = _line_network(5, "Biswas")
        run_data_flow(sim, stats, nodes[0], nodes[4], packets=3, until=20.0)
        assert stats.delivery_ratio == 1.0

    def test_lonely_sender_retransmits_up_to_limit(self):
        # A single isolated pair: the destination never rebroadcasts (it only
        # delivers), so the source keeps retransmitting until the retry limit.
        sim, network, stats, nodes = build_static_network(
            [(0, 0), (5000, 0)], protocol="Biswas"
        )
        network.start()
        run_data_flow(sim, stats, nodes[0], nodes[1], packets=1, until=20.0)
        source_protocol = nodes[0].protocol
        assert stats.data_transmissions == 1 + source_protocol.config.max_retransmissions

    def test_heard_rebroadcast_suppresses_retransmission(self):
        sim, network, stats, nodes = _line_network(3, "Biswas")
        run_data_flow(sim, stats, nodes[0], nodes[2], packets=1, until=20.0)
        # Node 1 rebroadcasts once and that acknowledges node 0; total data
        # transmissions stay near the flooding minimum (one per node, plus at
        # most a couple of retransmissions from nodes that hear no echo).
        assert stats.data_transmissions <= 6
