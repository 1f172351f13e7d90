"""Frozen frames: every receiver reads the transmitted packet, none changes it.

The medium hands every receiver of a frame the one transmitted packet, so a
packet must never change after its first transmission.  These tests pin that
contract over every registered protocol and the broadcast workloads -- each
packet is deep-snapshotted when it is first put on the air and compared when
the run ends -- and pin that route requests (RREQ, MREQ) are claimed frames
that never reach ``Node.deliver``.  The rest pins the saving request claims
allow in the path-metric family: a receiver that will not relay a request
computes no link metric for it.
"""

from __future__ import annotations

import copy
from types import SimpleNamespace

import pytest

from repro.core.taxonomy import PROTOCOLS
from repro.harness.runner import ExperimentRunner
from repro.harness.scenarios import scenario_from_name
from repro.protocols import discovery
from repro.sim.medium import WirelessMedium
from repro.sim.node import Node
from repro.sim.packet import make_control_packet
from tests.helpers import build_static_network, run_data_flow

REQUEST_PTYPES = {"RREQ", "MREQ"}

#: ``(protocol, workload)``: every protocol under unicast flows, plus the
#: broadcast workloads whose frames are claimed and relayed.
CELLS = [(name, "cbr") for name in PROTOCOLS.names()] + [
    ("Greedy", "safety-beacon"),
    ("Greedy", "event-burst-storm"),
]


def _run_cell(protocol, workload, monkeypatch, plant=None):
    """``(sent, delivered)`` of one short highway run.

    ``sent`` holds ``(packet, snapshot)`` for every packet put on the air,
    the snapshot a deep copy of its fields at its first
    ``begin_transmission``; ``delivered`` lists the ptype of every packet
    ``Node.deliver`` received.  ``plant(packet)``, if given, runs in
    ``Node.deliver`` before the protocol sees the packet.
    """
    first_sent = {}
    begin = WirelessMedium.begin_transmission

    def snapshotting_begin(medium, sender, packet, *args):
        if id(packet) not in first_sent:
            first_sent[id(packet)] = (packet, copy.deepcopy(vars(packet)))
        begin(medium, sender, packet, *args)

    delivered = []
    deliver = Node.deliver

    def recording_deliver(node, packet, *args):
        delivered.append(packet.ptype)
        if plant is not None:
            plant(packet)
        deliver(node, packet, *args)

    monkeypatch.setattr(WirelessMedium, "begin_transmission", snapshotting_begin)
    monkeypatch.setattr(Node, "deliver", recording_deliver)
    params = {"flow_count": 4, "packet_count": 4} if workload == "cbr" else {}
    scenario = scenario_from_name(
        "highway-2km-normal",
        seed=1,
        duration_s=6.0,
        max_vehicles=30,
        workload=workload,
        workload_params=params,
    )
    ExperimentRunner().run(scenario, protocol)
    return list(first_sent.values()), delivered


def _changed(sent):
    """The packets whose fields differ from their first-transmission snapshot."""
    return [packet for packet, snapshot in sent if vars(packet) != snapshot]


@pytest.mark.parametrize(
    "protocol,workload", CELLS, ids=[f"{p}-{w}" for p, w in CELLS]
)
def test_no_packet_changes_after_its_first_transmission(protocol, workload, monkeypatch):
    sent, delivered = _run_cell(protocol, workload, monkeypatch)

    assert sent, "nothing was transmitted"
    assert _changed(sent) == []
    assert REQUEST_PTYPES.isdisjoint(delivered)
    if getattr(PROTOCOLS[protocol], "request_ptype", None) is not None:
        requests = [packet for packet, _ in sent if packet.ptype in REQUEST_PTYPES]
        assert any(packet.hop_count > 0 for packet in requests), "no request was relayed"
        assert delivered, "no unclaimed frame was delivered"


def test_a_receiver_appending_to_a_nested_header_is_caught(monkeypatch):
    def append_to_a_list_header(packet):
        for value in packet.headers.values():
            if isinstance(value, list):
                value.append(-1)
                return

    sent, _ = _run_cell("DSR", "cbr", monkeypatch, plant=append_to_a_list_header)
    assert _changed(sent)


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
