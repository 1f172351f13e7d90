"""Claimed frames: one hand-off per frame instead of one copy per receiver.

:meth:`WirelessMedium.claim_frames` routes every received frame of a ptype
to its opener: ``open_frame(packet, sender_id)`` runs at most once per frame,
at the first successful intended receiver, and the ``receive(node,
rx_power_dbm)`` it returns is called where ``Node.deliver`` would have been.
Every delivery loop honours claims -- the scalar completion and both loops
of the vectorized one (the untraced broadcast fast loop and the general
loop) -- so each behaviour below is checked on all three.
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
from repro.sim.packet import BROADCAST, Packet, make_control_packet, next_uid
from repro.sim.statistics import StatsCollector
from repro.sim.trace import EventTrace
from repro.workloads import WORKLOADS

#: (spatial backend, trace enabled): grid runs the scalar completion; the
#: vectorized backend (forced onto its array path) runs its broadcast fast
#: loop untraced and its general loop traced.
LOOPS = [("grid", False), ("vectorized", False), ("vectorized", True)]
LOOP_IDS = ["scalar", "vectorized-fast", "vectorized-general"]


def _network(positions, backend, traced, propagation=None):
    if backend == "vectorized":
        pytest.importorskip("numpy")
    sim = Simulator(seed=3)
    stats = StatsCollector()
    trace = EventTrace(enabled=traced)
    medium = WirelessMedium(
        sim,
        propagation=propagation,
        reception=SnrThresholdReception(),
        stats=stats,
        trace=trace,
        spatial_backend=backend,
    )
    medium.vectorized_min_rows = 0
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
        self.seen.append((self.node_id, packet))


class _PathAppender(_Sink):
    """Logs the ``path`` header it receives, then appends itself in place."""

    def handle_packet(self, packet, sender_id):
        path = packet.headers["path"]
        self.seen.append((self.node_id, list(path)))
        path.append(self.node_id)


def _send(sim, sender, ptype, at, next_hop=BROADCAST, size_bytes=64, headers=None):
    packet = make_control_packet(
        "test", ptype, sender.node_id, next_hop, size_bytes=size_bytes, headers=headers
    )
    sim.schedule_at(at, sender.send, packet, next_hop)
    return packet


@pytest.mark.parametrize("backend,traced", LOOPS, ids=LOOP_IDS)
class TestClaimedDelivery:
    def test_open_runs_once_per_received_frame(self, backend, traced):
        # Node 3 is alone, 5 km away: nobody hears its frame.
        sim, network, nodes = _network(
            [(0, 0), (100, 0), (200, 0), (5000, 0)], backend, traced
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
        self, backend, traced
    ):
        # Registered out of positional order; the sender is node 2.
        sim, network, nodes = _network(
            [(150, 0), (50, 0), (100, 0), (200, 0), (0, 0)], backend, traced
        )
        claim = _Recorder()
        network.medium.claim_frames("PING", claim)
        packet = _send(sim, nodes[2], "PING", 1.0)
        sim.run(until=2.0)
        expected = [n.node_id for n in nodes if n is not nodes[2]]
        assert [node_id for _, node_id, _ in claim.received] == expected
        assert all(uid == packet.uid for uid, _, _ in claim.received)
        assert all(isinstance(rx, float) for _, _, rx in claim.received)

    def test_unicast_reaches_only_the_next_hop(self, backend, traced):
        sim, network, nodes = _network([(0, 0), (100, 0), (200, 0)], backend, traced)
        claim = _Recorder()
        network.medium.claim_frames("PING", claim)
        _send(sim, nodes[0], "PING", 1.0, next_hop=nodes[2].node_id)
        sim.run(until=2.0)
        assert [node_id for _, node_id, _ in claim.received] == [nodes[2].node_id]

    def test_collisions_open_nothing(self, backend, traced):
        # Hidden terminals 400 m apart; the middle node hears both long
        # frames at once.
        sim, network, nodes = _network([(0, 0), (200, 0), (400, 0)], backend, traced)
        claim = _Recorder()
        network.medium.claim_frames("PING", claim)
        _send(sim, nodes[0], "PING", 1.0, size_bytes=1500)
        _send(sim, nodes[2], "PING", 1.0, size_bytes=1500)
        sim.run(until=2.0)
        assert network.stats.mac_collisions > 0
        assert claim.opened == [] and claim.received == []

    def test_weak_signal_receivers_are_skipped(self, backend, traced):
        propagation = FreeSpacePropagation()
        probe = WirelessMedium(Simulator(seed=1), propagation=propagation)
        nominal = probe.nominal_range(20.0)
        sim, network, nodes = _network(
            [(0, 0), (0.5 * nominal, 0), (1.5 * nominal, 0)],
            backend,
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

    def test_unclaimed_ptypes_get_fresh_copies_through_deliver(self, backend, traced):
        sim, network, nodes = _network([(0, 0), (100, 0), (200, 0)], backend, traced)
        claim = _Recorder()
        network.medium.claim_frames("PING", claim)
        seen = []
        for node in nodes:
            node.attach_protocol(_Sink(node.node_id, seen))
        ping = _send(sim, nodes[0], "PING", 1.0)
        pong = _send(sim, nodes[0], "PONG", 2.0, headers={"path": [0]})
        sim.run(until=3.0)
        # The claimed frame never reached Node.deliver or the protocol.
        assert [packet.ptype for _, packet in seen] == ["PONG", "PONG"]
        assert [node_id for node_id, _ in seen] == [nodes[1].node_id, nodes[2].node_id]
        copies = [packet for _, packet in seen]
        assert all(type(copy) is Packet for copy in copies)
        assert len({copy.uid for copy in copies} | {pong.uid}) == 3
        assert len({id(copy.headers) for copy in copies} | {id(pong.headers)}) == 3
        assert all(copy.headers == pong.headers for copy in copies)
        assert all(copy.rx_power_dbm is not None for copy in copies)
        assert {uid for uid, _ in claim.opened} == {ping.uid}

    def test_in_place_header_mutation_stays_with_its_receiver(self, backend, traced):
        sim, network, nodes = _network(
            [(0, 0), (100, 0), (200, 0), (300, 0)], backend, traced
        )
        seen = []
        for node in nodes:
            node.attach_protocol(_PathAppender(node.node_id, seen))
        sender = nodes[1]
        packet = _send(sim, sender, "PONG", 1.0, headers={"path": [sender.node_id]})
        sim.run(until=2.0)
        # Every receiver saw the path as sent, whatever the others did to theirs.
        assert seen == [
            (node.node_id, [sender.node_id]) for node in nodes if node is not sender
        ]
        assert packet.headers["path"] == [sender.node_id]

    def test_rx_power_is_stamped_on_each_receivers_own_copy(self, backend, traced):
        propagation = FreeSpacePropagation()
        probe = WirelessMedium(Simulator(seed=1), propagation=propagation)
        nominal = probe.nominal_range(20.0)
        offsets = [0.1 * nominal, 0.3 * nominal, 0.5 * nominal]
        sim, network, nodes = _network(
            [(0, 0)] + [(x, 0) for x in offsets], backend, traced, propagation=propagation
        )
        seen = []
        for node in nodes:
            node.attach_protocol(_Sink(node.node_id, seen))
        packet = _send(sim, nodes[0], "PONG", 1.0)
        sim.run(until=2.0)
        assert [node_id for node_id, _ in seen] == [n.node_id for n in nodes[1:]]
        expected = [
            propagation.rx_power_dbm_from_distance(nodes[0].tx_power_dbm, x)
            for x in offsets
        ]
        assert [copy.rx_power_dbm for _, copy in seen] == pytest.approx(expected)
        # Farther receivers hear less, and the sender's packet stays unstamped.
        assert expected == sorted(expected, reverse=True)
        assert packet.rx_power_dbm is None

    def test_uid_numbering_matches_an_unclaimed_run(self, backend, traced):
        def uids_drawn(claimed):
            sim, network, nodes = _network(
                [(0, 0), (100, 0), (200, 0), (300, 0)], backend, traced
            )
            if claimed:
                network.medium.claim_frames("PING", _Recorder())
            first = _send(sim, nodes[1], "PING", 1.0)
            sim.run(until=2.0)
            return next_uid() - first.uid

        # Three receivers each draw one uid, claimed or not.
        assert uids_drawn(claimed=True) == uids_drawn(claimed=False) == 4

    def test_a_later_claim_replaces_the_earlier_one(self, backend, traced):
        sim, network, nodes = _network([(0, 0), (100, 0)], backend, traced)
        first, second = _Recorder(), _Recorder()
        network.medium.claim_frames("PING", first)
        network.medium.claim_frames("PING", second)
        _send(sim, nodes[0], "PING", 1.0)
        sim.run(until=2.0)
        assert first.opened == [] and len(second.opened) == 1


def _storm_cell(backend):
    """The safety-beacon storm preset, cut down: HELLO and BSM claims both run."""
    return scenario_from_name(
        "city-core-1km-congested",
        seed=4,
        duration_s=1.0,
        drain_s=0.2,
        max_vehicles=60,
        workload="safety-beacon-10hz",
        workload_params={"start_time_s": 0.5},
        spatial_backend=backend,
    )


def _run_storm(backend, traced):
    """``(summary, extra, trace digest, uids drawn)`` of one storm cell.

    Trace uids are taken relative to the first uid the run draws, so two
    runs in one process compare equal exactly when they number alike.
    """
    scenario = _storm_cell(backend)
    runner = ExperimentRunner(trace_enabled=traced, trace_max_records=None)
    built = runner.build(scenario)
    built.network.medium.vectorized_min_rows = 0
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
def test_grid_and_vectorized_storms_are_identical(traced):
    pytest.importorskip("numpy")
    grid = _run_storm("grid", traced)
    vectorized = _run_storm("vectorized", traced)
    assert grid == vectorized
    summary, extra, _, _ = grid
    assert summary["beacon_transmissions"] > 0
    assert extra["mean_beacon_receivers"] > 0
