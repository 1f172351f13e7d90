"""One hand-off per frame: claimed frames and the default ``Node.deliver``.

The medium opens every received frame once, at its first successful
intended receiver, and hands each receiver to the opener's ``receive(node,
rx_power_dbm)``.  :meth:`WirelessMedium.claim_frames` sets a ptype's opener;
an unclaimed frame reaches every receiver's ``Node.deliver`` as the
transmitted packet itself.  Every delivery loop honours this -- the
per-receiver reference loop (with the medium's shortcuts off), the
count-folded receiver walk (traced) and the bulk broadcast settlement
(untraced) -- so each behaviour below is checked on all three.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.geometry import Vec2
from repro.harness.runner import ExperimentRunner
from repro.harness.scenarios import scenario_from_name
from repro.protocols.location import LocationService
from repro.protocols.registry import make_protocol_factory
from repro.radio.propagation import FreeSpacePropagation
from repro.radio.reception import SnrThresholdReception
from repro.sim.engine import Simulator
from repro.sim.medium import WirelessMedium
from repro.sim.network import Network
from repro.sim.node import StaticPositionProvider
from repro.sim.packet import BROADCAST, make_control_packet, next_uid
from repro.sim.statistics import StatsCollector
from repro.sim.trace import EventTrace
from repro.workloads import WORKLOADS
from tests.helpers import caches_off, use_linear_scan

#: (delivery loop, trace enabled): ``reference`` runs with
#: ``tests.helpers.caches_off``; with the shortcuts on, a hard-edge channel
#: settles broadcasts in bulk untraced and walks its receivers traced.
LOOPS = [("reference", False), ("count", False), ("count", True)]
LOOP_IDS = ["reference", "count-bulk", "count-walk"]


@pytest.fixture(autouse=True)
def _delivery_loop(request):
    """Run the ``reference`` leg of a test with the medium's shortcuts off."""
    callspec = getattr(request.node, "callspec", None)
    if callspec is not None and callspec.params.get("loop") == "reference":
        with caches_off():
            yield
    else:
        yield


def _network(positions, loop, traced, propagation=None):
    sim = Simulator(seed=3)
    stats = StatsCollector()
    trace = EventTrace(enabled=traced)
    medium = WirelessMedium(
        sim,
        propagation=propagation,
        reception=SnrThresholdReception(),
        stats=stats,
        trace=trace,
    )
    network = Network(sim, medium=medium, stats=stats, trace=trace)
    nodes = [
        network.add_vehicle(StaticPositionProvider(Vec2(x, y))) for x, y in positions
    ]
    return sim, network, nodes


class _Recorder:
    """An opener that logs every open and every receive."""

    def __init__(self):
        self.opened = []
        self.received = []

    def __call__(self, packet, sender_id):
        self.opened.append((packet.uid, sender_id))

        def receive(node, rx_power_dbm):
            self.received.append((packet.uid, node.node_id, rx_power_dbm))

        return receive


class _Sink:
    """A routing protocol that logs every packet ``Node.deliver`` hands it."""

    def __init__(self, node_id, seen):
        self.node_id = node_id
        self.seen = seen

    def handle_packet(self, packet, sender_id):
        self.seen.append((self.node_id, packet, sender_id))


def _send(sim, sender, ptype, at, next_hop=BROADCAST, size_bytes=64, headers=None):
    packet = make_control_packet(
        "test", ptype, sender.node_id, next_hop, size_bytes=size_bytes, headers=headers
    )
    sim.schedule_at(at, sender.send, packet, next_hop)
    return packet


@pytest.mark.parametrize("loop,traced", LOOPS, ids=LOOP_IDS)
class TestClaimedDelivery:
    def test_open_runs_once_per_received_frame(self, loop, traced):
        # Node 3 is alone, 5 km away: nobody hears its frame.
        sim, network, nodes = _network(
            [(0, 0), (100, 0), (200, 0), (5000, 0)], loop, traced
        )
        claim = _Recorder()
        network.medium.claim_frames("PING", claim)
        heard = _send(sim, nodes[0], "PING", 1.0)
        unheard = _send(sim, nodes[3], "PING", 2.0)
        sim.run(until=3.0)
        assert claim.opened == [(heard.uid, nodes[0].node_id)]
        assert {uid for uid, _, _ in claim.received} == {heard.uid}
        assert unheard.uid not in {uid for uid, _ in claim.opened}

    def test_receive_sees_ok_intended_receivers_in_registration_order(
        self, loop, traced
    ):
        # Registered out of positional order; the sender is node 2.
        sim, network, nodes = _network(
            [(150, 0), (50, 0), (100, 0), (200, 0), (0, 0)], loop, traced
        )
        claim = _Recorder()
        network.medium.claim_frames("PING", claim)
        packet = _send(sim, nodes[2], "PING", 1.0)
        sim.run(until=2.0)
        expected = [n.node_id for n in nodes if n is not nodes[2]]
        assert [node_id for _, node_id, _ in claim.received] == expected
        assert all(uid == packet.uid for uid, _, _ in claim.received)
        assert all(isinstance(rx, float) for _, _, rx in claim.received)

    def test_unicast_reaches_only_the_next_hop(self, loop, traced):
        sim, network, nodes = _network([(0, 0), (100, 0), (200, 0)], loop, traced)
        claim = _Recorder()
        network.medium.claim_frames("PING", claim)
        _send(sim, nodes[0], "PING", 1.0, next_hop=nodes[2].node_id)
        sim.run(until=2.0)
        assert [node_id for _, node_id, _ in claim.received] == [nodes[2].node_id]

    def test_collisions_open_nothing(self, loop, traced):
        # Hidden terminals 400 m apart; the middle node hears both long
        # frames at once.
        sim, network, nodes = _network([(0, 0), (200, 0), (400, 0)], loop, traced)
        claim = _Recorder()
        network.medium.claim_frames("PING", claim)
        _send(sim, nodes[0], "PING", 1.0, size_bytes=1500)
        _send(sim, nodes[2], "PING", 1.0, size_bytes=1500)
        sim.run(until=2.0)
        assert network.stats.mac_collisions > 0
        assert claim.opened == [] and claim.received == []

    def test_weak_signal_receivers_are_skipped(self, loop, traced):
        propagation = FreeSpacePropagation()
        probe = WirelessMedium(Simulator(seed=1), propagation=propagation)
        nominal = probe.nominal_range(20.0)
        sim, network, nodes = _network(
            [(0, 0), (0.5 * nominal, 0), (1.5 * nominal, 0)],
            loop,
            traced,
            propagation=propagation,
        )
        claim = _Recorder()
        network.medium.claim_frames("PING", claim)
        _send(sim, nodes[0], "PING", 1.0)
        _send(sim, nodes[0], "PING", 2.0, next_hop=nodes[2].node_id)
        sim.run(until=3.0)
        assert [node_id for _, node_id, _ in claim.received] == [nodes[1].node_id]
        # The unicast is retried; each attempt is one weak-signal loss.
        assert network.stats.phy_weak_signal >= 1

    def test_unclaimed_ptypes_reach_deliver_as_the_transmitted_packet(
        self, loop, traced
    ):
        # Registered out of positional order; the sender is node 2.
        sim, network, nodes = _network(
            [(150, 0), (50, 0), (100, 0), (200, 0), (0, 0)], loop, traced
        )
        claim = _Recorder()
        network.medium.claim_frames("PING", claim)
        seen = []
        for node in nodes:
            node.attach_protocol(_Sink(node.node_id, seen))
        sender = nodes[2]
        ping = _send(sim, sender, "PING", 1.0)
        pong = _send(sim, sender, "PONG", 2.0, headers={"path": [sender.node_id]})
        sim.run(until=3.0)
        # The claimed frame never reached Node.deliver or the protocol; the
        # unclaimed one reached it once per receiver, in registration order.
        receivers = [n.node_id for n in nodes if n is not sender]
        assert [node_id for node_id, _, _ in seen] == receivers
        assert all(packet is pong for _, packet, _ in seen)
        assert all(sender_id == sender.node_id for _, _, sender_id in seen)
        assert pong.headers == {"path": [sender.node_id]}
        assert {uid for uid, _ in claim.opened} == {ping.uid}
        # Every reception of either frame drew one uid.
        assert next_uid() == pong.uid + 1 + 2 * len(receivers)

    def test_uid_numbering_matches_an_unclaimed_run(self, loop, traced):
        def uids_drawn(claimed):
            sim, network, nodes = _network(
                [(0, 0), (100, 0), (200, 0), (300, 0)], loop, traced
            )
            if claimed:
                network.medium.claim_frames("PING", _Recorder())
            first = _send(sim, nodes[1], "PING", 1.0)
            sim.run(until=2.0)
            return next_uid() - first.uid

        # Three receivers each draw one uid, claimed or not.
        assert uids_drawn(claimed=True) == uids_drawn(claimed=False) == 4

    def test_a_later_claim_replaces_the_earlier_one(self, loop, traced):
        sim, network, nodes = _network([(0, 0), (100, 0)], loop, traced)
        first, second = _Recorder(), _Recorder()
        network.medium.claim_frames("PING", first)
        network.medium.claim_frames("PING", second)
        _send(sim, nodes[0], "PING", 1.0)
        sim.run(until=2.0)
        assert first.opened == [] and len(second.opened) == 1


def _storm_cell():
    """The safety-beacon storm preset, cut down: HELLO and BSM claims both run."""
    return scenario_from_name(
        "city-core-1km-congested",
        seed=4,
        duration_s=1.0,
        drain_s=0.2,
        max_vehicles=60,
        workload="safety-beacon-10hz",
        workload_params={"start_time_s": 0.5},
    )


def _run_storm(oracle, traced):
    """``(summary, extra, trace digest, uids drawn)`` of one storm cell.

    With ``oracle`` the medium scans exhaustively (see
    :func:`~tests.helpers.use_linear_scan`).  Trace uids are taken relative
    to the first uid the run draws, so two runs in one process compare
    equal exactly when they number alike.
    """
    scenario = _storm_cell()
    runner = ExperimentRunner(trace_enabled=traced, trace_max_records=None)
    built = runner.build(scenario)
    if oracle:
        use_linear_scan(built.network.medium)
    factory = make_protocol_factory(
        "Greedy",
        location_service=LocationService(built.network),
        road_graph=built.road_graph,
    )
    built.network.attach_protocols(factory)
    workload = WORKLOADS.resolve(scenario.workload, **dict(scenario.workload_params))
    base = next_uid()
    workload.build(scenario, built, built.sim.rng.stream("traffic"))
    built.network.start()
    built.sim.run(until=scenario.duration_s + scenario.drain_s)
    digest = hashlib.sha256()
    for record in built.trace:
        detail = dict(record.detail)
        if "uid" in detail:
            detail["uid"] -= base
        digest.update(
            repr((record.time, record.category, record.node_id, sorted(detail.items())))
            .encode()
        )
    return (
        built.stats.summary(),
        workload.extra_metrics(built),
        digest.hexdigest(),
        next_uid() - base,
    )


@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
def test_storm_matches_the_linear_scan_oracle(traced):
    run = _run_storm(False, traced)
    assert run == _run_storm(True, traced)
    summary, extra, _, _ = run
    assert summary["beacon_transmissions"] > 0
    assert extra["mean_beacon_receivers"] > 0
