"""Oracle equivalence and regression tests for the wireless medium.

The grid index must be an invisible optimisation: with a deterministic
propagation model the medium has to reproduce the linear-scan oracle's
event trace byte-for-byte.  The regression tests pin the satellite bugfixes that rode
along with the index: the prune horizon, rx-power threading and node
removal teardown.
"""

import pytest

from repro.geometry import Vec2
from repro.harness.runner import ExperimentRunner
from repro.harness.scenario import highway_scenario
from repro.mobility.generator import TrafficDensity
from repro.protocols.location import LocationService
from repro.protocols.registry import make_protocol_factory
from repro.sim.engine import Simulator
from repro.sim.medium import WirelessMedium
from repro.sim.packet import BROADCAST, make_data_packet
from tests.helpers import build_static_network, use_linear_scan


def normalized_records(trace):
    """Trace records with packet uids replaced by first-appearance indices.

    Packet uids come from a process-global counter, so two identical runs in
    the same process produce different absolute uids; the *order* in which
    fresh uids appear is the run's fingerprint.
    """
    uid_map = {}
    normalized = []
    for record in trace:
        detail = dict(record.detail)
        uid = detail.get("uid")
        if uid is not None:
            detail["uid"] = uid_map.setdefault(uid, len(uid_map))
        normalized.append((record.time, record.category, record.node_id, detail))
    return normalized


def run_seeded_scenario(seed=11, oracle=False):
    """A 50-vehicle highway run with beacons and a few data flows, traced.

    With ``oracle`` the medium scans exhaustively (see
    :func:`~tests.helpers.use_linear_scan`).
    """
    runner = ExperimentRunner(trace_enabled=True, trace_max_records=500_000)
    scenario = highway_scenario(
        TrafficDensity.NORMAL,
        max_vehicles=50,
        duration_s=8.0,
        drain_s=1.0,
        seed=seed,
    )
    built = runner.build(scenario)
    if oracle:
        use_linear_scan(built.network.medium)
    factory = make_protocol_factory(
        "Greedy",
        location_service=LocationService(built.network),
        road_graph=built.road_graph,
    )
    built.network.attach_protocols(factory)
    vehicles = built.vehicle_nodes
    for flow_id, (src, dst) in enumerate([(0, 40), (5, 30), (12, 22)], start=1):
        built.stats.register_flow(
            flow_id, vehicles[src].node_id, vehicles[dst].node_id
        )
        for k in range(3):
            built.sim.schedule_at(
                2.0 + k,
                vehicles[src].protocol.send_data,
                vehicles[dst].node_id,
            )
    built.network.start()
    built.sim.run(until=9.0)
    return built


class TestBackendEquivalence:
    def test_grid_matches_linear_trace_on_seeded_scenario(self):
        # Acceptance criterion of the grid index: same seed, same event
        # trace, record for record, on a 50-vehicle mobile scenario.
        grid = run_seeded_scenario()
        linear = run_seeded_scenario(oracle=True)
        grid_records = normalized_records(grid.trace)
        linear_records = normalized_records(linear.trace)
        assert len(grid_records) > 1000  # the run actually did something
        assert grid_records == linear_records
        assert grid.stats.summary() == linear.stats.summary()

    def test_spatial_backend_keyword_is_gone(self):
        # One delivery path: the retired backend switch is an unknown
        # keyword, named by Python's own TypeError.
        with pytest.raises(TypeError, match="spatial_backend"):
            WirelessMedium(Simulator(seed=1), spatial_backend="grid")


class TestNodesWithinBoundary:
    @pytest.mark.parametrize("oracle", [False, True], ids=["grid", "linear"])
    def test_node_exactly_at_radius_is_included(self, oracle):
        sim, network, stats, nodes = build_static_network(
            [(0, 0), (250.0, 0), (250.0001, 0)], oracle=oracle
        )
        within = network.nodes_within(Vec2(0.0, 0.0), 250.0)
        assert {n.node_id for n in within} == {nodes[0].node_id, nodes[1].node_id}
        without_origin = network.nodes_within(
            Vec2(0.0, 0.0), 250.0, exclude=nodes[0].node_id
        )
        assert {n.node_id for n in without_origin} == {nodes[1].node_id}

    @pytest.mark.parametrize("oracle", [False, True], ids=["grid", "linear"])
    def test_neighbors_of_uses_inclusive_radius(self, oracle):
        sim, network, stats, nodes = build_static_network(
            [(0, 0), (250.0, 0)], comm_range=250.0, oracle=oracle
        )
        neighbors = network.neighbors_of(nodes[0])
        assert {n.node_id for n in neighbors} == {nodes[1].node_id}


class RecordingProtocol:
    def __init__(self):
        self.received = []

    def start(self):  # pragma: no cover - unused
        pass

    def stop(self):  # pragma: no cover - unused
        pass

    def handle_packet(self, packet, sender_id):
        self.received.append((packet, sender_id))


class TestPruneHorizon:
    def test_long_frame_keeps_interference_history(self):
        # Regression: the old prune dropped transmissions older than a fixed
        # 1-second horizon, so a 3-second frame "forgot" an interferer that
        # overlapped its first half-second once any other frame completed
        # more than a second after the interferer ended -- and was then
        # received as if the channel had been clean.
        sim, network, stats, nodes = build_static_network(
            [(0, 0), (100, 0), (150, 0), (10_000, 0), (10_100, 0)]
        )
        sender, receiver, interferer, far_a, far_b = nodes
        receiver.attach_protocol(RecordingProtocol())
        medium = network.medium
        long_frame = make_data_packet("test", sender.node_id, BROADCAST)
        burst = make_data_packet("test", interferer.node_id, BROADCAST)
        far_frame = make_data_packet("test", far_a.node_id, BROADCAST)
        sim.schedule(0.0, medium.begin_transmission, sender, long_frame, BROADCAST, 3.0)
        sim.schedule(0.0, medium.begin_transmission, interferer, burst, BROADCAST, 0.5)
        # An unrelated faraway completion at t=1.8 triggers pruning between
        # the interferer's end (0.5) and the long frame's end (3.0).
        sim.schedule(1.7, medium.begin_transmission, far_a, far_frame, BROADCAST, 0.1)
        sim.run(until=4.0)
        # The interferer overlapped the long frame, so the long frame must
        # collide at the receiver instead of being delivered cleanly.
        assert receiver.protocol.received == []
        assert stats.mac_collisions >= 1


class TestRxPowerThreading:
    def test_beacon_rx_power_populates_neighbor_table(self):
        # Regression: the medium computed rx_power and then threw it away,
        # leaving every NeighborEntry.rx_power_dbm at None.
        sim, network, stats, nodes = build_static_network(
            [(0, 0), (100, 0)], protocol="Greedy"
        )
        network.start()
        sim.run(until=1.5)
        entry = nodes[1].protocol.beacons.table.get(nodes[0].node_id)
        assert entry is not None
        # Unit-disk propagation delivers at full transmit power in range.
        assert entry.rx_power_dbm == pytest.approx(nodes[0].tx_power_dbm)


class TestRemoveNodeTeardown:
    def test_removed_node_stops_beaconing(self):
        # Regression: remove_node detached the node from the channel but its
        # BeaconService periodic task kept firing (and transmitting) forever.
        sim, network, stats, nodes = build_static_network(
            [(0, 0), (100, 0)], protocol="Greedy", trace=True
        )
        network.start()
        sim.run(until=2.0)
        removed_id = nodes[0].node_id
        tx_before = len(network.trace.records("tx", node_id=removed_id))
        assert tx_before > 0  # it was beaconing while alive
        network.remove_node(removed_id)
        sim.run(until=12.0)
        tx_after = len(network.trace.records("tx", node_id=removed_id))
        # Protocol timers are cancelled and the MAC queue is flushed, so the
        # removed node goes completely silent.
        assert tx_after == tx_before
        assert nodes[0].protocol.beacons._task is None
        assert nodes[0].mac.queue_length == 0

    def test_survivors_keep_running_after_removal(self):
        sim, network, stats, nodes = build_static_network(
            [(0, 0), (100, 0), (200, 0)], protocol="Greedy", trace=True
        )
        network.start()
        sim.run(until=2.0)
        network.remove_node(nodes[0].node_id)
        survivor_before = len(network.trace.records("tx", node_id=nodes[1].node_id))
        sim.run(until=6.0)
        survivor_after = len(network.trace.records("tx", node_id=nodes[1].node_id))
        assert survivor_after > survivor_before
        assert not network.has_node(nodes[0].node_id)


class TestRadioStackWiring:
    """The medium accepts an assembled RadioStack and wires its components."""

    def _stack(self):
        from repro.radio.interference import NoInterference
        from repro.radio.mac import MacConfig
        from repro.radio.propagation import UnitDiskPropagation
        from repro.radio.reception import SnrThresholdReception
        from repro.radio.stack import RadioStack

        return RadioStack(
            name="custom",
            propagation=UnitDiskPropagation(100.0),
            reception=SnrThresholdReception(noise_floor_dbm=-90.0),
            interference=NoInterference(),
            mac=MacConfig(cw_min=3),
            tx_power_dbm=17.0,
        )

    def test_stack_components_are_used(self):
        from repro.geometry import Vec2
        from repro.sim.engine import Simulator
        from repro.sim.medium import WirelessMedium
        from repro.sim.node import Node, StaticPositionProvider

        stack = self._stack()
        medium = WirelessMedium(Simulator(seed=1), stack=stack)
        assert medium.stack is stack
        assert medium.propagation is stack.propagation
        assert medium.reception is stack.reception
        assert medium.interference is stack.interference
        assert medium.mac_config is stack.mac
        node = Node(1, StaticPositionProvider(Vec2(0.0, 0.0)))
        medium.register(node)
        # The stack's MAC parameters reach every node's MAC instance.
        assert node.mac.config is stack.mac

    def test_explicit_arguments_override_stack_components(self):
        from repro.radio.propagation import UnitDiskPropagation
        from repro.sim.engine import Simulator
        from repro.sim.medium import WirelessMedium

        override = UnitDiskPropagation(400.0)
        original = self._stack()
        original_propagation = original.propagation
        medium = WirelessMedium(Simulator(seed=1), stack=original, propagation=override)
        assert medium.propagation is override
        # The other components still come from the stack.
        assert medium.interference is medium.stack.interference
        # The caller's stack object is not mutated by the override: it may
        # be shared with reporting or a later medium.
        assert original.propagation is original_propagation

    def test_default_medium_builds_the_classic_stack(self):
        from repro.radio.interference import AdditiveInterference
        from repro.radio.propagation import UnitDiskPropagation
        from repro.radio.reception import SnrThresholdReception
        from repro.sim.engine import Simulator
        from repro.sim.medium import WirelessMedium

        medium = WirelessMedium(Simulator(seed=1))
        assert isinstance(medium.propagation, UnitDiskPropagation)
        assert isinstance(medium.reception, SnrThresholdReception)
        assert isinstance(medium.interference, AdditiveInterference)

    def test_no_interference_stack_never_collides(self):
        """A hidden-terminal collision under the additive model must vanish
        under NoInterference (same seed, same schedule -- only the
        interference model differs)."""
        from repro.radio.interference import AdditiveInterference, NoInterference
        from repro.radio.stack import RadioStack
        from repro.geometry import Vec2
        from repro.sim.engine import Simulator
        from repro.sim.medium import WirelessMedium
        from repro.sim.network import Network
        from repro.sim.node import StaticPositionProvider
        from repro.sim.packet import make_control_packet
        from repro.sim.statistics import StatsCollector

        def hidden_terminal(interference):
            sim = Simulator(seed=9)
            stats = StatsCollector()
            medium = WirelessMedium(
                sim, stack=RadioStack(interference=interference), stats=stats
            )
            network = Network(sim, medium=medium, stats=stats)
            # Two senders 400 m apart cannot carrier-sense each other (250 m
            # disk); the victim in the middle hears both simultaneously.
            left = network.add_vehicle(StaticPositionProvider(Vec2(0.0, 0.0)))
            network.add_vehicle(StaticPositionProvider(Vec2(200.0, 0.0)))
            right = network.add_vehicle(StaticPositionProvider(Vec2(400.0, 0.0)))
            for sender in (left, right):
                packet = make_control_packet(
                    "storm", "HELLO", sender.node_id, BROADCAST, size_bytes=1500
                )
                sim.schedule_at(1.0, sender.send, packet, BROADCAST)
            sim.run(until=3.0)
            return stats.mac_collisions

        assert hidden_terminal(AdditiveInterference()) > 0
        assert hidden_terminal(NoInterference()) == 0


def test_default_grid_cell_imports_no_numpy():
    """No module of the package needs numpy, and neither does a run."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    script = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['numpy'] = None\n"
        "import repro\n"
        "for module in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(module.name)\n"
        "from repro.harness.runner import ExperimentRunner\n"
        "from repro.harness.scenarios import scenario_from_name\n"
        "scenario = scenario_from_name('city-core-1km-congested', seed=1, duration_s=0.6,\n"
        "    drain_s=0.1, max_vehicles=30, workload='safety-beacon-10hz',\n"
        "    workload_params={'start_time_s': 0.3})\n"
        "result = ExperimentRunner().run(scenario, 'Greedy')\n"
        "assert result.summary['data_sent'] > 0\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
