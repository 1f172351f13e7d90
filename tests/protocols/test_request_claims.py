"""Route requests are claimed frames: one shared packet, read-only receivers.

Every on-demand protocol claims its request type (RREQ or MREQ) on the
medium, so each receiver's ``_handle_request`` reads the transmitted packet
itself rather than a copy of its own.  These tests pin the two halves of
that contract over the nine protocols -- no receiver writes into the shared
frame, and no request reaches ``Node.deliver`` -- and the saving it allows
in the path-metric family: a receiver that will not relay a request
computes no link metric for it.
"""

from __future__ import annotations

import copy
from types import SimpleNamespace

import pytest

from repro.harness.runner import ExperimentRunner
from repro.harness.scenarios import scenario_from_name
from repro.protocols import discovery
from repro.sim.node import Node
from repro.sim.packet import make_control_packet
from tests.helpers import build_static_network, run_data_flow

ON_DEMAND = ("AODV", "ROVER", "DSR", "DisjLi", "PBR", "Taleb", "Abedi", "NiuDe", "Yan-TBP")
REQUEST_PTYPES = {"RREQ", "MREQ"}


@pytest.mark.parametrize("protocol", ON_DEMAND)
def test_receivers_leave_the_shared_request_untouched(protocol, monkeypatch):
    snapshots = []
    open_request = discovery._open_request

    def snapshotting_open(packet, sender_id):
        snapshots.append((packet, copy.deepcopy(packet.headers), packet.ttl, packet.hop_count))
        return open_request(packet, sender_id)

    delivered = []
    deliver = Node.deliver

    def recording_deliver(node, packet, sender_id, rx_power_dbm=None):
        delivered.append(packet.ptype)
        deliver(node, packet, sender_id, rx_power_dbm)

    monkeypatch.setattr(discovery, "_open_request", snapshotting_open)
    monkeypatch.setattr(Node, "deliver", recording_deliver)
    scenario = scenario_from_name(
        "highway-2km-normal",
        seed=1,
        duration_s=6.0,
        max_vehicles=30,
        workload_params={"flow_count": 4, "packet_count": 4},
    )
    ExperimentRunner().run(scenario, protocol)

    assert snapshots, "no request frame was received"
    assert any(hop_count > 0 for _, _, _, hop_count in snapshots), "no request was relayed"
    for packet, headers, ttl, hop_count in snapshots:
        assert packet.ptype in REQUEST_PTYPES
        assert (packet.headers, packet.ttl, packet.hop_count) == (headers, ttl, hop_count)
    assert delivered, "no unclaimed frame was delivered"
    assert REQUEST_PTYPES.isdisjoint(delivered)


def test_a_receiver_without_the_request_type_ignores_it():
    mreq = make_control_packet("PBR", "MREQ", 1, headers={"origin": 1, "path": [1]})
    receive = discovery._open_request(mreq, 1)

    def fail(packet, sender_id):
        raise AssertionError("an RREQ handler received an MREQ")

    rreq_protocol = SimpleNamespace(request_ptype="RREQ", _handle_request=fail)
    for protocol in (rreq_protocol, SimpleNamespace(), None):
        receive(SimpleNamespace(protocol=protocol), -60.0)


def _count_link_metrics(protocol):
    """``(link_metric calls, requests received)`` on a 4 x 4 static flood.

    Each received request is ``(receiver, (origin, request id), is target)``
    and only those a receiver may act on are listed: not its own and not
    one whose path already holds it.
    """
    positions = [(150.0 * col, 150.0 * row) for row in range(4) for col in range(4)]
    sim, network, stats, nodes = build_static_network(positions, protocol=protocol)
    calls = []
    received = []
    for node in nodes:
        agent = node.protocol
        handle, link_metric = agent._handle_request, agent.link_metric

        def recording_handle(packet, sender_id, node_id=node.node_id, handle=handle):
            headers = packet.headers
            if headers["origin"] != node_id and node_id not in headers["path"]:
                key = (headers["origin"], headers["request_id"])
                received.append((node_id, key, headers["target"] == node_id))
            handle(packet, sender_id)

        def counting_link_metric(*args, node_id=node.node_id, link_metric=link_metric):
            calls.append(node_id)
            return link_metric(*args)

        agent._handle_request = recording_handle
        agent.link_metric = counting_link_metric
    network.start()
    run_data_flow(sim, stats, nodes[0], nodes[-1], packets=2, start=2.0, until=6.0)
    return calls, received


@pytest.mark.parametrize("protocol", ("PBR", "Taleb", "Abedi", "NiuDe"))
def test_flooded_request_metric_is_computed_once_per_first_sighting(protocol):
    calls, received = _count_link_metrics(protocol)
    first_sightings = {(node_id, key) for node_id, key, is_target in received if not is_target}
    target_receptions = sum(1 for _, _, is_target in received if is_target)
    assert target_receptions > 0
    assert len(calls) == len(first_sightings) + target_receptions
    # Duplicates arrived, and cost no metric.
    assert len(received) > len(calls)


def test_ticket_probes_score_every_reception():
    # Yan-TBP relays tickets without a duplicate cache: each probe received
    # is scored.
    calls, received = _count_link_metrics("Yan-TBP")
    assert received
    assert len(calls) == len(received)
