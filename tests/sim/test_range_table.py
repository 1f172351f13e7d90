"""The medium's in-range tables against a fresh linear scan.

``WirelessMedium._disk`` serves every receiver fan-out and
``nodes_within`` query from a table of nodes, positions and distances
(parallel lists) built once per ``(position, radius)`` between two
position refreshes.  The oracle
here is the plainest possible scan over every registered node; it lives in
the tests on purpose, so the program keeps one implementation.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.geometry import Vec2
from repro.mobility.vehicle import VehiclePositionProvider, VehicleState
from repro.protocols.registry import make_protocol_factory
from repro.radio.propagation import UnitDiskPropagation
from repro.radio.reception import SnrThresholdReception
from repro.sim.engine import Simulator
from repro.sim.medium import WirelessMedium
from repro.sim.network import Network
from repro.sim.node import StaticPositionProvider
from repro.sim.statistics import StatsCollector
from repro.sim.trace import EventTrace
from tests.helpers import LinearMotionProvider, run_data_flow, use_linear_scan

#: Each test runs on the grid and on the exhaustive-scan oracle.
ORACLE = pytest.mark.parametrize("oracle", [False, True], ids=["grid", "linear"])
RADII = (0.0, 80.0, 250.0, 400.0)


def _entries(table):
    """An in-range table's ``(node, position, distance)`` entries, in order."""
    return list(zip(*table))


def _scan(medium: WirelessMedium, position: Vec2, radius: float):
    """Oracle: every registered node within ``radius``, registration order."""
    order = sorted(medium.nodes.values(), key=lambda node: medium._node_seq[node.node_id])
    return [
        (node, node.position, position.distance_to(node.position))
        for node in order
        if position.distance_to(node.position) <= radius
    ]


class RandomWalk:
    """Stepped test mobility: jiggles vehicle states inside the network step."""

    def __init__(self, states, rng: random.Random) -> None:
        self.vehicles = states
        self._rng = rng

    def step(self, dt: float, now: float) -> None:
        for state in self.vehicles:
            state.position = state.position + Vec2(
                self._rng.uniform(-40.0, 40.0) * dt, self._rng.uniform(-40.0, 40.0) * dt
            )


def _stepped_network(seed: int, oracle: bool, vehicles: int = 30, rsus: int = 4):
    rng = random.Random(seed)
    sim = Simulator(seed=seed)
    states = [
        VehicleState(vid=i, position=Vec2(rng.uniform(0, 1000), rng.uniform(0, 600)))
        for i in range(vehicles)
    ]
    medium = WirelessMedium(sim, propagation=UnitDiskPropagation(250.0))
    if oracle:
        use_linear_scan(medium)
    network = Network(sim, medium=medium, mobility=RandomWalk(states, rng))
    for state in states:
        network.add_vehicle(VehiclePositionProvider(state))
    for i in range(rsus):
        network.add_rsu(Vec2(250.0 * i, 300.0))
    return sim, network, states, rng


def _probe_positions(network: Network, rng: random.Random):
    nodes = list(network.nodes.values())
    positions = [rng.choice(nodes).position for _ in range(4)]
    positions.append(Vec2(rng.uniform(-100, 1100), rng.uniform(-100, 700)))
    # Repeat a probe so later queries in the same step hit the table.
    positions.append(positions[0])
    return positions


@ORACLE
@pytest.mark.parametrize("seed", range(8))
def test_disk_matches_fresh_scan_on_stepped_networks(seed, oracle):
    sim, network, _, rng = _stepped_network(seed, oracle)
    medium = network.medium
    served = []

    def probe() -> None:
        for position in _probe_positions(network, rng):
            for radius in RADII:
                key = (position.x, position.y, radius)
                served.append(key in medium._disks)
                assert _entries(medium._disk(position, radius)) == _scan(
                    medium, position, radius
                )
                exclude = rng.choice(list(network.nodes))
                assert medium.nodes_within(position, radius, exclude=exclude) == [
                    node for node, _, _ in _scan(medium, position, radius)
                    if node.node_id != exclude
                ]

    times = sorted(rng.uniform(0.0, 4.0) for _ in range(12))
    for when in times:
        sim.schedule_at(when, probe)
    network.start()
    sim.run(until=4.0)
    assert medium._live_nodes == 0
    assert any(served), "no query was served from a table"


def _cached_pair(medium: WirelessMedium, position: Vec2, radius: float):
    first = medium._disk(position, radius)
    assert medium._disk(position, radius) is first
    return first


@ORACLE
class TestInvalidation:
    def test_remove_node(self, oracle):
        _, network, _, _ = _stepped_network(1, oracle)
        medium = network.medium
        center = network.node(0).position
        before = _cached_pair(medium, center, 400.0)
        victim = before[0][-1].node_id
        network.remove_node(victim)
        after = medium._disk(center, 400.0)
        assert after is not before
        assert victim not in [node.node_id for node in after[0]]
        assert _entries(after) == _scan(medium, center, 400.0)

    def test_mid_run_add_vehicle(self, oracle):
        sim, network, _, _ = _stepped_network(2, oracle)
        medium = network.medium
        center = network.node(0).position
        seen = {}

        def before() -> None:
            seen["before"] = _cached_pair(medium, center, 250.0)

        def join() -> None:
            state = VehicleState(vid=99, position=center + Vec2(5.0, 0.0))
            seen["joined"] = network.add_vehicle(VehiclePositionProvider(state))
            seen["after"] = medium._disk(center, 250.0)

        # Both inside one mobility step, so only the join can invalidate.
        sim.schedule_at(0.6, before)
        sim.schedule_at(0.7, join)
        network.start()
        sim.run(until=0.8)
        assert seen["after"] is not seen["before"]
        assert seen["joined"] in seen["after"][0]
        assert _entries(seen["after"]) == _scan(medium, center, 250.0)

    def test_refresh_positions(self, oracle):
        _, network, states, _ = _stepped_network(3, oracle)
        medium = network.medium
        center = network.node(0).position
        before = _cached_pair(medium, center, 250.0)
        states[0].position = center + Vec2(1000.0, 0.0)
        medium.refresh_positions()
        after = medium._disk(center, 250.0)
        assert after is not before
        assert _entries(after) == _scan(medium, center, 250.0)
        assert network.node(0) not in after[0]


class UnflaggedProvider:
    """A provider that does not declare ``stepped``."""

    def __init__(self, position: Vec2) -> None:
        self._position = position

    def position(self) -> Vec2:
        return self._position

    def velocity(self) -> Vec2:
        return Vec2(0.0, 0.0)


class UnsteppedProvider(UnflaggedProvider):
    stepped = False


@pytest.mark.parametrize("provider", [UnflaggedProvider, UnsteppedProvider])
def test_provider_without_stepped_counts_as_live(provider):
    _, network, _, _ = _stepped_network(4, "grid")
    medium = network.medium
    center = network.node(0).position
    _cached_pair(medium, center, 250.0)
    live = network.add_vehicle(provider(center))
    assert medium._live_nodes == 1
    assert not medium._disks
    first = medium._disk(center, 250.0)
    assert medium._disk(center, 250.0) is not first
    assert not medium._disks
    assert live in first[0]
    network.remove_node(live.node_id)
    assert medium._live_nodes == 0
    _cached_pair(medium, center, 250.0)


def test_stepped_providers_are_declared():
    assert StaticPositionProvider.stepped is True
    assert VehiclePositionProvider.stepped is True
    assert not hasattr(LinearMotionProvider, "stepped")


# ------------------------------------------------------------ live network
#: sha256 and record count of the live network's tx/rx/collision records
#: (modulo packet uids), recorded by the code before in-range tables existed.
LIVE_TRACE_GOLDEN = {
    "records": 996,
    "sha256": "a200532b33cc37794f2ad4b7263bfbc0a9e44bc72542e50bb31e4a001d4d206c",
}


def _live_network_trace(probe=None):
    """Flooding over a static line with one fast vehicle crossing it.

    ``probe(medium)``, when given, runs every 50 ms of simulated time.
    """
    sim = Simulator(seed=5)
    stats = StatsCollector()
    trace = EventTrace(enabled=True)
    medium = WirelessMedium(
        sim,
        propagation=UnitDiskPropagation(250.0),
        reception=SnrThresholdReception(),
        stats=stats,
        trace=trace,
    )
    network = Network(sim, medium=medium, stats=stats, trace=trace)
    nodes = [network.add_vehicle(StaticPositionProvider(Vec2(200.0 * i, 0.0))) for i in range(8)]
    network.add_vehicle(LinearMotionProvider(sim, Vec2(-300.0, 40.0), Vec2(90.0, 0.0)))
    network.attach_protocols(make_protocol_factory("Flooding"))
    network.start()
    if probe is not None:
        sim.schedule_periodic(0.05, probe, medium)
    run_data_flow(sim, stats, nodes[0], nodes[-1], packets=40, interval=0.5, start=0.5, until=22.0)
    return trace


def _trace_digest(trace) -> dict:
    digest = hashlib.sha256()
    count = 0
    for record in trace:
        if record.category not in ("tx", "rx", "collision"):
            continue
        detail = sorted((k, v) for k, v in record.detail.items() if k != "uid")
        digest.update(repr((record.time, record.category, record.node_id, detail)).encode())
        count += 1
    return {"records": count, "sha256": digest.hexdigest()}


def test_live_network_never_caches_and_matches_golden():
    table_sizes = []
    live_counts = []

    def probe(medium: WirelessMedium) -> None:
        table_sizes.append(len(medium._disks))
        live_counts.append(medium._live_nodes)

    trace = _live_network_trace(probe)
    assert table_sizes and not any(table_sizes)
    assert set(live_counts) == {1}
    assert _trace_digest(trace) == LIVE_TRACE_GOLDEN


if __name__ == "__main__":
    print(_trace_digest(_live_network_trace()))
