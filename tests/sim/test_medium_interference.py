"""Additional medium/PHY tests: capture, carrier sensing and power-dependent reception."""

import random

import pytest

from repro.geometry import Vec2
from repro.radio.mac import MacConfig
from repro.radio.propagation import TwoRayGroundPropagation, UnitDiskPropagation
from repro.radio.reception import (
    ProbabilisticReception,
    ReceptionDecision,
    ReceptionModel,
    ReceptionOutcome,
    SnrThresholdReception,
)
from repro.sim.engine import Simulator
from repro.sim.medium import WirelessMedium
from repro.sim.network import Network
from repro.sim.node import StaticPositionProvider
from repro.sim.packet import BROADCAST, make_data_packet
from repro.sim.statistics import StatsCollector


class RecordingProtocol:
    def __init__(self):
        self.received = []

    def start(self):  # pragma: no cover - unused
        pass

    def handle_packet(self, packet, sender_id):
        self.received.append((packet.uid, sender_id))


def build_two_ray_network(positions, tx_power_dbm=5.0):
    """A network on a physical (two-ray) channel where power depends on distance."""
    sim = Simulator(seed=9)
    stats = StatsCollector()
    medium = WirelessMedium(
        sim,
        propagation=TwoRayGroundPropagation(),
        reception=SnrThresholdReception(snr_threshold_db=10.0),
        stats=stats,
    )
    network = Network(sim, medium=medium, stats=stats)
    nodes = []
    for x, y in positions:
        node = network.add_vehicle(StaticPositionProvider(Vec2(x, y)))
        node.tx_power_dbm = tx_power_dbm
        node.attach_protocol(RecordingProtocol())
        nodes.append(node)
    return sim, network, stats, nodes


class TestCaptureEffect:
    def test_nearby_transmitter_captures_over_distant_interferer(self):
        # Receiver at the origin; a transmitter 50 m away and an interferer
        # 800 m away transmit simultaneously.  On a physical channel the near
        # frame is >10 dB stronger and survives (capture); the far one is lost.
        sim, network, stats, nodes = build_two_ray_network(
            [(0, 0), (50, 0), (800, 0)], tx_power_dbm=10.0
        )
        receiver, near, far = nodes
        sim.schedule(0.0, near.send, make_data_packet("p", near.node_id, BROADCAST, size_bytes=500), BROADCAST)
        sim.schedule(0.0, far.send, make_data_packet("p", far.node_id, BROADCAST, size_bytes=500), BROADCAST)
        sim.run(until=1.0)
        senders = {sender for _, sender in receiver.protocol.received}
        assert near.node_id in senders
        assert far.node_id not in senders

    def test_simultaneous_in_cs_range_transmitters_serialise_instead_of_colliding(self):
        # Two transmitters that can hear each other both want to send at t=0:
        # carrier sensing makes one defer, so the receiver in the middle gets
        # both frames intact (no collision) -- the non-hidden-terminal case.
        sim, network, stats, nodes = build_two_ray_network(
            [(0, 0), (150, 0), (-150, 0)], tx_power_dbm=10.0
        )
        receiver, left, right = nodes
        sim.schedule(0.0, left.send, make_data_packet("p", left.node_id, BROADCAST, size_bytes=500), BROADCAST)
        sim.schedule(0.0, right.send, make_data_packet("p", right.node_id, BROADCAST, size_bytes=500), BROADCAST)
        sim.run(until=1.0)
        senders = {sender for _, sender in receiver.protocol.received}
        assert senders == {left.node_id, right.node_id}
        assert stats.mac_collisions == 0


class TestCarrierSense:
    def test_nearby_sender_defers_distant_sender_does_not(self):
        # Node 1 is within carrier-sense range of node 0's transmission;
        # node 3 is far beyond it.  When both want to transmit while node 0
        # is on the air, only node 1 defers.
        sim, network, stats, nodes = build_two_ray_network(
            [(0, 0), (200, 0), (5000, 0), (5200, 0)], tx_power_dbm=10.0
        )
        a, b, c, d = nodes
        long_frame = make_data_packet("p", a.node_id, BROADCAST, size_bytes=1500)
        sim.schedule(0.0, a.send, long_frame, BROADCAST)
        sim.schedule(0.0005, b.send, make_data_packet("p", b.node_id, BROADCAST), BROADCAST)
        sim.schedule(0.0005, c.send, make_data_packet("p", c.node_id, BROADCAST), BROADCAST)
        sim.run(until=1.0)
        assert b.mac.busy_deferrals >= 1
        assert c.mac.busy_deferrals == 0

    def test_medium_reports_busy_only_within_cs_range(self):
        sim, network, stats, nodes = build_two_ray_network(
            [(0, 0), (200, 0), (5000, 0)], tx_power_dbm=10.0
        )
        a, b, c = nodes
        a.send(make_data_packet("p", a.node_id, BROADCAST, size_bytes=2000), BROADCAST)
        # Let the MAC actually put the frame on the air (DIFS + backoff).
        sim.run(until=0.002)
        assert network.medium.channel_busy(b)
        assert not network.medium.channel_busy(c)


class TestMacConfigOverride:
    def test_custom_mac_config_applies_to_new_nodes(self):
        sim = Simulator(seed=1)
        stats = StatsCollector()
        medium = WirelessMedium(sim, stats=stats, mac_config=MacConfig(max_queue=2))
        network = Network(sim, medium=medium, stats=stats)
        node = network.add_vehicle(StaticPositionProvider(Vec2(0, 0)))
        node.attach_protocol(RecordingProtocol())
        accepted = [
            node.mac.enqueue(make_data_packet("p", 0, BROADCAST), BROADCAST) for _ in range(4)
        ]
        assert accepted == [True, True, False, False]

    def test_nominal_range_cache(self):
        sim = Simulator(seed=1)
        medium = WirelessMedium(sim)
        first = medium._reception_cutoff(20.0)
        second = medium._reception_cutoff(20.0)
        assert first == second
        assert first > 0


class CountingReception(ReceptionModel):
    """Receives everything and counts calls; no ``deterministic`` flag."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def decide(self, rx_power_dbm, interference_dbm, rng=None):
        self.calls += 1
        return ReceptionOutcome(ReceptionDecision.RECEIVED, 0.0)


class CountingThreshold(SnrThresholdReception):
    """The deterministic threshold model, counting calls."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def decide(self, rx_power_dbm, interference_dbm, rng=None):
        self.calls += 1
        return super().decide(rx_power_dbm, interference_dbm, rng)


def _broadcast_once(reception, positions):
    """One broadcast from the first node on a 250 m unit disk."""
    sim = Simulator(seed=3)
    stats = StatsCollector()
    medium = WirelessMedium(
        sim, propagation=UnitDiskPropagation(250.0), reception=reception, stats=stats
    )
    network = Network(sim, medium=medium, stats=stats)
    nodes = []
    for x, y in positions:
        node = network.add_vehicle(StaticPositionProvider(Vec2(x, y)))
        node.attach_protocol(RecordingProtocol())
        nodes.append(node)
    sender = nodes[0]
    sim.schedule(0.0, sender.send, make_data_packet("p", sender.node_id, BROADCAST), BROADCAST)
    sim.run(until=1.0)
    return medium, nodes


_IN_RANGE_FOUR = [(0, 0), (50, 0), (100, 0), (150, 0), (200, 0), (900, 0)]


class TestDecisionReuse:
    def test_model_without_the_flag_decides_once_per_in_range_receiver(self):
        reception = CountingReception()
        assert reception.deterministic is False
        _, nodes = _broadcast_once(reception, _IN_RANGE_FOUR)
        assert reception.calls == 4
        assert [len(node.protocol.received) for node in nodes] == [0, 1, 1, 1, 1, 0]

    def test_deterministic_model_decides_once_per_quiet_unit_disk_frame(self):
        reception = CountingThreshold()
        assert reception.deterministic is True
        _, nodes = _broadcast_once(reception, _IN_RANGE_FOUR)
        assert reception.calls == 1
        assert [len(node.protocol.received) for node in nodes] == [0, 1, 1, 1, 1, 0]

    def test_probabilistic_model_is_not_flagged(self):
        assert ProbabilisticReception.deterministic is False


class TestProbabilisticDecide:
    @pytest.mark.parametrize(
        "rx, interference", [(-80.0, -200.0), (-85.0, -95.0), (-70.0, -75.0), (-91.0, -120.0)]
    )
    def test_decide_draws_against_success_probability(self, rx, interference):
        model = ProbabilisticReception()
        probability = model.success_probability(rx, interference)
        for seed in range(20):
            draw = random.Random(seed).random()
            outcome = model.decide(rx, interference, random.Random(seed))
            assert outcome.ok == (draw <= probability)
            assert outcome.sinr_db == model.sinr_db(rx, interference)


class TestCarrierSenseReach:
    def test_hard_edge_channel_reaches_exactly_its_disk(self):
        medium, _ = _broadcast_once(SnrThresholdReception(), [(0, 0), (100, 0)])
        assert medium._carrier_sense_reach() == 250.0

    def test_soft_edge_channel_keeps_the_2x_margin(self):
        sim, network, _, nodes = build_two_ray_network([(0, 0), (100, 0)], tx_power_dbm=10.0)
        nodes[0].send(make_data_packet("p", nodes[0].node_id, BROADCAST), BROADCAST)
        sim.run(until=1.0)
        medium = network.medium
        nominal = medium.propagation.nominal_range(10.0, medium.carrier_sense_threshold_dbm)
        assert medium._carrier_sense_reach() == nominal * 2.0

