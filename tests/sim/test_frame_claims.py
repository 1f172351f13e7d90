"""One hand-off per frame: claimed frames and the default ``Node.deliver``.

The medium opens every received frame once, at its first successful
intended receiver, and hands its receivers, in registration order, to the
opener's ``receive(nodes, rx_power_dbm)``: the bulk broadcast settlement
(untraced) all of them in one call, every other loop one per call.
:meth:`WirelessMedium.claim_frames` sets a ptype's opener; an unclaimed
frame reaches every receiver's ``Node.deliver`` as the transmitted packet
itself.  Every delivery loop honours this -- the per-receiver reference
loop (with the medium's shortcuts off), the count-folded receiver walk
(traced) and the bulk settlement -- so each behaviour below is checked on
all three.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.geometry import Vec2
from repro.harness.runner import ExperimentRunner
from repro.harness.scenarios import scenario_from_name
from repro.monitors.base import Monitor
from repro.protocols.location import LocationService
from repro.protocols.registry import make_protocol_factory
from repro.radio.propagation import FreeSpacePropagation
from repro.radio.reception import SnrThresholdReception
from repro.sim.engine import Simulator
from repro.sim.medium import WirelessMedium
from repro.sim.network import Network
from repro.sim.node import StaticPositionProvider
from repro.sim.packet import BROADCAST, make_control_packet
from repro.sim.statistics import StatsCollector
from repro.sim.tap import EventTap
from repro.sim.trace import EventTrace
from repro.workloads import WORKLOADS
from tests.helpers import caches_off, use_linear_scan

#: (delivery loop, trace enabled): ``reference`` runs with
#: ``tests.helpers.caches_off``; with the shortcuts on, a hard-edge channel
#: settles broadcasts in bulk untraced and walks its receivers traced.
LOOPS = [("reference", False), ("count", False), ("count", True)]
LOOP_IDS = ["reference", "count-bulk", "count-walk"]


def _settles_in_bulk(loop, traced):
    """True for the loop that hands a broadcast's receivers over in one call."""
    return loop == "count" and not traced


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
    """An opener that logs every open, every hand-off and every receiver."""

    def __init__(self):
        self.opened = []
        #: The receiver ids of each ``receive`` call.
        self.calls = []
        self.received = []

    def __call__(self, packet, sender_id):
        self.opened.append((packet.uid, sender_id))

        def receive(nodes, rx_power_dbm):
            self.calls.append([node.node_id for node in nodes])
            self.received.extend(
                (packet.uid, node.node_id, rx_power_dbm) for node in nodes
            )

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
        # One hand-off per frame in bulk, one per receiver otherwise.
        if _settles_in_bulk(loop, traced):
            assert claim.calls == [expected]
        else:
            assert claim.calls == [[node_id] for node_id in expected]

    def test_bulk_hand_off_skips_collided_receivers(self, loop, traced):
        # Node 4's frame overlaps node 0's at nodes 2 and 3 only; node 1
        # still receives node 0's frame.
        sim, network, nodes = _network(
            [(0, 0), (-100, 0), (200, 0), (240, 0), (450, 0)], loop, traced
        )
        claim = _Recorder()
        network.medium.claim_frames("PING", claim)
        first = _send(sim, nodes[0], "PING", 1.0, size_bytes=1500)
        _send(sim, nodes[4], "PING", 1.0, size_bytes=1500)
        sim.run(until=2.0)
        heard = [node_id for uid, node_id, _ in claim.received if uid == first.uid]
        assert heard == [nodes[1].node_id]
        assert network.stats.mac_collisions > 0
        first_calls = [ids for ids in claim.calls if nodes[1].node_id in ids]
        assert first_calls == [[nodes[1].node_id]]

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

    def test_receptions_draw_no_uid(self, loop, traced):
        # Three receivers hear the frame, claimed or not; only packets
        # take uids, so the next packet takes the next one.
        for claimed in (True, False):
            sim, network, nodes = _network(
                [(0, 0), (100, 0), (200, 0), (300, 0)], loop, traced
            )
            if claimed:
                network.medium.claim_frames("PING", _Recorder())
            first = _send(sim, nodes[1], "PING", 1.0)
            sim.run(until=2.0)
            assert _send(sim, nodes[1], "PING", 3.0).uid == first.uid + 1

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
    base = make_control_packet("test", "PROBE", 0, BROADCAST).uid
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
        make_control_packet("test", "PROBE", 0, BROADCAST).uid - base,
    )


@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
def test_storm_matches_the_linear_scan_oracle(traced):
    run = _run_storm(False, traced)
    assert run == _run_storm(True, traced)
    summary, extra, _, _ = run
    assert summary["beacon_transmissions"] > 0
    assert extra["mean_beacon_receivers"] > 0


class _TapLog(Monitor):
    """A monitor that logs every delivery and drop the stats tap emits, in order."""

    def __init__(self):
        super().__init__()
        self.log = []

    def on_packet_delivered(self, now, packet, flow, receiver, new, delay):
        self.log.append(("delivered", packet.flow_key, receiver, new))

    def on_packet_dropped(self, now, reason, count):
        self.log.append(("dropped", reason))


def _event_burst_tap_log(traced):
    """The tap log of a warning storm whose relays overflow one-frame MAC queues."""
    scenario = scenario_from_name(
        "highway-2km-normal",
        seed=1,
        duration_s=3.0,
        drain_s=0.5,
        max_vehicles=40,
        workload="event-burst-storm",
    )
    runner = ExperimentRunner(trace_enabled=traced, trace_max_records=None)
    built = runner.build(scenario)
    recorder = _TapLog()
    built.stats.tap = EventTap(built.sim, [recorder])
    factory = make_protocol_factory(
        "Greedy",
        location_service=LocationService(built.network),
        road_graph=built.road_graph,
    )
    built.network.attach_protocols(factory)
    for node in built.network.nodes.values():
        node.mac.config = dataclasses.replace(node.mac.config, max_queue=1)
    workload = WORKLOADS.resolve(scenario.workload, **dict(scenario.workload_params))
    workload.build(scenario, built, built.sim.rng.stream("traffic"))
    built.network.start()
    built.sim.run(until=scenario.duration_s + scenario.drain_s)
    return recorder.log


def test_event_burst_taps_in_the_order_of_a_per_receiver_walk():
    """An EVT receiver is counted and relays before the next one is counted.

    The untraced run settles warnings in bulk, the traced one walks their
    receivers one per hand-off; a relay that overflows its MAC queue emits
    its drop between two receivers' deliveries on both.
    """
    log = _event_burst_tap_log(traced=False)
    assert log == _event_burst_tap_log(traced=True)
    between = [
        i
        for i in range(1, len(log) - 1)
        if log[i] == ("dropped", "queue")
        and log[i - 1][0] == log[i + 1][0] == "delivered"
        and log[i - 1][1] == log[i + 1][1]
    ]
    assert between
