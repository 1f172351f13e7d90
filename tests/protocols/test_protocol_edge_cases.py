"""Additional protocol edge-case tests (maintenance, failure handling, configs)."""

import pytest

from repro.core.taxonomy import PROTOCOLS
from repro.protocols.connectivity import AodvConfig
from repro.protocols.infrastructure import RsuRelayConfig
from repro.protocols.relay import ForwardingProtocol
from repro.sim.packet import BROADCAST, make_data_packet
from tests.helpers import build_static_network, line_positions, run_data_flow

SPACING = 200.0

#: Every registered protocol that receives data through the shared receive.
FORWARDING = [
    name for name in PROTOCOLS.names() if issubclass(PROTOCOLS[name], ForwardingProtocol)
]


class TestAodvMaintenance:
    def test_rerr_invalidates_routes_through_broken_link(self):
        sim, network, stats, nodes = build_static_network(
            line_positions(4, SPACING), protocol="AODV"
        )
        network.start()
        # Stop well before the route lifetime expires so the route is still installed.
        run_data_flow(sim, stats, nodes[0], nodes[3], packets=3, start=2.0, until=8.0)
        # Simulate a RERR from node 1 reporting node 3 unreachable.
        source_protocol = nodes[0].protocol
        route_before = source_protocol.routes.get(nodes[3].node_id, sim.now)
        assert route_before is not None
        rerr = nodes[1].protocol.make_control("RERR", unreachable=[nodes[3].node_id])
        source_protocol.handle_packet(rerr, nodes[1].node_id)
        assert source_protocol.routes.get(nodes[3].node_id, sim.now) is None

    def test_sending_to_self_delivers_locally(self):
        sim, network, stats, nodes = build_static_network(
            line_positions(2, SPACING), protocol="AODV"
        )
        network.start()
        stats.register_flow(1, nodes[0].node_id, nodes[0].node_id)
        sim.schedule_at(
            1.0, lambda: nodes[0].protocol.send_data(nodes[0].node_id, flow_id=1, seq=1)
        )
        sim.run(until=3.0)
        assert stats.flows[1].delivered == 1
        assert stats.data_transmissions == 0

    def test_route_expiry_forces_rediscovery(self):
        config = AodvConfig(route_lifetime_s=2.0)
        sim, network, stats, nodes = build_static_network(
            line_positions(3, SPACING), protocol="AODV", protocol_config=config
        )
        network.start()
        # Two bursts separated by more than the route lifetime.
        run_data_flow(sim, stats, nodes[0], nodes[2], packets=2, start=2.0, interval=0.5, until=10.0)
        run_data_flow(
            sim, stats, nodes[0], nodes[2], packets=2, start=12.0, interval=0.5, until=20.0, flow_id=2
        )
        assert stats.route_discoveries_started >= 2
        assert stats.delivery_ratio >= 0.75


class TestDsdvBehaviour:
    def test_sequence_numbers_prevent_stale_overwrites(self):
        sim, network, stats, nodes = build_static_network(
            line_positions(3, SPACING), protocol="DSDV"
        )
        network.start()
        sim.run(until=8.0)
        middle = nodes[1].protocol
        # The middle node knows both neighbours with direct (1-hop) routes.
        for other in (nodes[0], nodes[2]):
            route = middle.routes.get(other.node_id, sim.now)
            assert route is not None
            assert route.hop_count == 1

    def test_far_node_route_has_larger_metric(self):
        sim, network, stats, nodes = build_static_network(
            line_positions(4, SPACING), protocol="DSDV"
        )
        network.start()
        sim.run(until=12.0)
        first = nodes[0].protocol
        near = first.routes.get(nodes[1].node_id, sim.now)
        far = first.routes.get(nodes[3].node_id, sim.now)
        assert near is not None and far is not None
        assert far.hop_count > near.hop_count


class TestRsuRelayHandoff:
    def test_overlapping_rsus_both_learn_a_valid_serving_rsu(self):
        sim, network, stats, nodes = build_static_network(
            [(100, 0)], protocol="RSU-Relay", rsu_positions=[(100, 30), (150, 30)]
        )
        network.start()
        sim.run(until=4.0)
        rsu_a, rsu_b = network.rsus
        rsu_ids = {rsu_a.node_id, rsu_b.node_id}
        serving_a = rsu_a.protocol.registry.get(nodes[0].node_id)
        serving_b = rsu_b.protocol.registry.get(nodes[0].node_id)
        assert serving_a is not None and serving_b is not None
        # Each RSU's registry points at an RSU that can actually reach the
        # vehicle (either of the two overlapping ones is acceptable), and the
        # hysteresis keeps the registrations from ping-ponging (bounded
        # backbone traffic is asserted separately below).
        assert serving_a[0] in rsu_ids
        assert serving_b[0] in rsu_ids

    def test_backbone_register_messages_are_bounded(self):
        config = RsuRelayConfig(registration_lifetime_s=6.0)
        sim, network, stats, nodes = build_static_network(
            [(100, 0)], protocol="RSU-Relay", protocol_config=config,
            rsu_positions=[(100, 30), (150, 30)],
        )
        network.start()
        sim.run(until=12.0)
        # With hysteresis, (re-)registrations happen every few seconds rather
        # than on every beacon: well under one per beacon interval.
        assert stats.backbone_transmissions <= 12


class TestBroadcastDataHandling:
    @pytest.mark.parametrize("protocol", ["Flooding", "Biswas"])
    def test_broadcast_flows_reach_far_nodes(self, protocol):
        sim, network, stats, nodes = build_static_network(
            line_positions(4, SPACING), protocol=protocol
        )
        network.start()
        stats.register_flow(1, nodes[0].node_id, BROADCAST)
        sim.schedule_at(1.0, lambda: nodes[0].protocol.send_data(BROADCAST, flow_id=1, seq=1))
        sim.run(until=10.0)
        # Every node transmitted the broadcast once (possibly a couple of
        # Biswas retransmissions on top).
        assert stats.data_transmissions >= len(nodes) - 1


@pytest.mark.parametrize("protocol", FORWARDING)
def test_shared_data_receive(protocol):
    """The rules of :meth:`ForwardingProtocol.handle_packet`, frame by frame."""
    sim, network, stats, nodes = build_static_network(
        line_positions(3, SPACING), protocol=protocol
    )
    source, relay, far = (node.node_id for node in nodes)
    receiver = nodes[1].protocol
    forwarded, delivered = [], []
    receiver._forward = forwarded.append
    receiver.deliver_locally = delivered.append

    def data(destination, seq, ttl=32):
        return make_data_packet(protocol, source, destination, flow_id=1, seq=seq, ttl=ttl)

    # A control frame is ignored, wherever it is addressed.
    for destination in (relay, far):
        receiver.handle_packet(receiver.make_control("PROBE", destination), source)
    assert (forwarded, delivered, stats.ttl_drops) == ([], [], 0)

    # A frame out of hops counts one TTL drop and goes nowhere.
    receiver.handle_packet(data(far, seq=1, ttl=1), source)
    assert (forwarded, stats.ttl_drops) == ([], 1)

    # A relay forwards the first copy of a packet only.
    receiver.handle_packet(data(far, seq=2), source)
    receiver.handle_packet(data(far, seq=2), far)
    assert [packet.seq for packet in forwarded] == [2]
    assert forwarded[0].hop_count == 1

    # A destination delivers the first copy only when it checks for
    # duplicates first (the floods), every copy otherwise (the relays).
    receiver.handle_packet(data(relay, seq=3), source)
    receiver.handle_packet(data(relay, seq=3), far)
    expected = 2 if PROTOCOLS[protocol].destination_first else 1
    assert [packet.seq for packet in delivered] == [3] * expected
    assert len(forwarded) == 1

    # Broadcast data is delivered on the way only by the members that say so.
    delivered.clear()
    receiver.handle_packet(data(BROADCAST, seq=4), source)
    assert len(delivered) == int(PROTOCOLS[protocol].delivers_broadcast)
    assert [packet.seq for packet in forwarded] == [2, 4]
