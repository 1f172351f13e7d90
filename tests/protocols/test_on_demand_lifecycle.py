"""Contract of the on-demand discovery lifecycle, over every protocol that uses it.

AODV, ROVER, DSR, DisjLi and the metric-accumulating protocols share one
lifecycle (:class:`repro.protocols.discovery.OnDemandProtocol`): a discovery
is retried ``max_discovery_retries`` times and then given up, each buffered
packet then counting as one drop; a completed discovery records one
completion and sends the buffered packets in the order they arrived; a
discovery that times out while a route is held sends them too.
"""

import pytest

from repro.protocols.connectivity import AodvConfig
from repro.protocols.discovery import OnDemandProtocol
from repro.sim.packet import BROADCAST, make_control_packet
from tests.helpers import build_static_network, line_positions, run_data_flow

ON_DEMAND = ("AODV", "ROVER", "DSR", "DisjLi", "PBR", "Taleb", "Abedi", "NiuDe", "Yan-TBP")


@pytest.mark.parametrize("protocol", ON_DEMAND)
def test_isolated_source_retries_then_drops_every_buffered_packet(protocol):
    sim, network, stats, nodes = build_static_network(
        [(0.0, 0.0), (5000.0, 0.0)], protocol=protocol
    )
    network.start()
    source = nodes[0].protocol
    assert isinstance(source, OnDemandProtocol)
    run_data_flow(sim, stats, nodes[0], nodes[1], packets=3, interval=0.1, until=30.0)
    assert stats.route_discoveries_started == 1 + source.config.max_discovery_retries
    assert stats.route_discoveries_completed == 0
    assert stats.no_route_drops == 3
    assert stats.buffer_drops == 0
    assert len(source.pending) == 0
    assert not source._discoveries


@pytest.mark.parametrize("protocol", ON_DEMAND)
def test_completed_discovery_sends_the_backlog_in_buffered_order(protocol):
    sim, network, stats, nodes = build_static_network(
        line_positions(4, 200.0), protocol=protocol
    )
    network.start()
    source = nodes[0].protocol
    sent = []
    unicast = source.unicast

    def recording_unicast(packet, next_hop):
        if packet.is_data:
            sent.append(packet.seq)
        unicast(packet, next_hop)

    source.unicast = recording_unicast
    run_data_flow(
        sim, stats, nodes[0], nodes[3], packets=3, interval=0.01, start=2.0, until=4.0
    )
    assert stats.route_discoveries_started == 1
    assert stats.route_discoveries_completed == 1
    assert sent == [1, 2, 3]
    assert len(source.pending) == 0
    assert stats.total_delivered == 3


def _reverse_rreq(protocol, origin, relay, target):
    """An RREQ from ``origin`` as ``relay`` rebroadcast it, aimed at ``target``."""
    headers = {"rreq_id": 1, "origin": origin, "target": target}
    if protocol == "DSR":
        headers["route"] = [origin, relay]
    else:
        headers.update(origin_seq=1, hop_count=1)
    return make_control_packet(protocol, "RREQ", origin, BROADCAST, headers=headers)


@pytest.mark.parametrize("protocol", ("AODV", "ROVER", "DSR"))
def test_timeout_with_a_route_from_elsewhere_sends_the_backlog(protocol):
    # A's discovery for B cannot succeed, but at t=1.3 an RREQ from B reaches
    # A through C, which gives A a route to B (AODV's reverse route, DSR's
    # cached reverse path).  The discovery's timeout finds that route and
    # must send the packet it buffered rather than hold it forever.
    sim, network, stats, nodes = build_static_network(
        [(0.0, 0.0), (200.0, 0.0), (2000.0, 0.0)], protocol=protocol
    )
    a, c, b = nodes
    network.start()
    target = a.node_id if protocol == "DSR" else 999
    sim.schedule_at(
        1.3,
        lambda: a.protocol._handle_request(
            _reverse_rreq(protocol, b.node_id, c.node_id, target), c.node_id
        ),
    )
    run_data_flow(sim, stats, a, b, packets=1, until=10.0)
    assert len(a.protocol.pending) == 0
    assert stats.data_transmissions >= 1
    assert stats.route_discoveries_completed == 0


def test_packet_outliving_the_buffer_age_is_counted_as_a_buffer_drop():
    # With 5 s discovery timeouts one discovery cycle outlasts the buffer's
    # 10 s age limit: the packet sent at t=1 expires when the one sent at
    # t=12 is buffered, and must be counted rather than vanish.
    sim, network, stats, nodes = build_static_network(
        [(0.0, 0.0), (5000.0, 0.0)],
        protocol="AODV",
        protocol_config=AodvConfig(discovery_timeout_s=5.0),
    )
    network.start()
    run_data_flow(sim, stats, nodes[0], nodes[1], packets=2, interval=11.0, until=30.0)
    assert stats.total_sent == 2
    assert stats.buffer_drops == 1
    assert stats.no_route_drops == 1
    assert len(nodes[0].protocol.pending) == 0
