"""Shared helpers for building small, controlled networks in tests."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple
from unittest import mock

from repro.geometry import Vec2
from repro.protocols.base import ProtocolConfig
from repro.protocols.registry import make_protocol_factory
from repro.radio.propagation import UnitDiskPropagation
from repro.radio.reception import SnrThresholdReception
from repro.roadnet.graph import RoadGraph
from repro.sim.engine import Simulator
from repro.sim import medium as medium_module
from repro.sim.medium import WirelessMedium
from repro.sim.network import Network
from repro.sim.node import Node, StaticPositionProvider
from repro.sim.statistics import StatsCollector
from repro.sim.trace import EventTrace


class LinearMotionProvider:
    """Position provider for a node moving at constant velocity (test double)."""

    def __init__(self, sim: Simulator, start: Vec2, velocity: Vec2) -> None:
        self._sim = sim
        self._start = start
        self._velocity = velocity

    def position(self) -> Vec2:
        return self._start + self._velocity * self._sim.now

    def velocity(self) -> Vec2:
        return self._velocity


class LinearScanIndex:
    """Oracle node index: every query returns every registered node.

    Duck-types the :class:`~repro.sim.spatial.UniformGridIndex` calls the
    medium makes, so the medium's exact distance filter does all the work:
    the O(N) scan the grid must agree with.
    """

    def __init__(self) -> None:
        self._items: Dict[int, Vec2] = {}

    def insert(self, item_id: int, position: Vec2) -> None:
        if item_id in self._items:
            raise ValueError(f"item id {item_id} already indexed")
        self._items[item_id] = position

    def update(self, item_id: int, position: Vec2) -> None:
        self._items[item_id] = position

    def remove(self, item_id: int) -> None:
        self._items.pop(item_id, None)

    def query_ids(self, position: Vec2, radius: float) -> List[int]:
        return list(self._items)

    def clear(self) -> None:
        self._items.clear()


def use_linear_scan(medium: WirelessMedium) -> WirelessMedium:
    """Make ``medium`` scan exhaustively: every node is a receiver candidate
    and every frame in flight an interference candidate."""
    index = LinearScanIndex()
    for node_id, node in medium.nodes.items():
        index.insert(node_id, node.position)
    medium._node_index = index
    medium._transmissions_near = lambda position, radius: list(medium._transmissions)
    return medium


@contextmanager
def caches_off() -> Iterator[None]:
    """Switch off the medium's shortcuts for the duration of the block.

    Every node counts as live, so no in-range table is reused between
    mobility steps or built from recorded positions; no reception model is
    ``deterministic``, so no reception decision is reused; and no frame is
    count-folded, so every receiver's interference comes from
    ``_interference_at`` and every decision from ``decide``.  A run with
    the shortcuts must equal its twin without them.
    """
    with mock.patch.object(medium_module, "_is_live", lambda node: True), mock.patch.object(
        SnrThresholdReception, "deterministic", False
    ), mock.patch.object(WirelessMedium, "_count_fold", lambda self, *args: None):
        yield


def build_static_network(
    positions: Sequence[Tuple[float, float]],
    protocol: Optional[str] = None,
    comm_range: float = 250.0,
    seed: int = 1,
    velocities: Optional[Sequence[Tuple[float, float]]] = None,
    protocol_config: Optional[ProtocolConfig] = None,
    road_graph: Optional[RoadGraph] = None,
    rsu_positions: Iterable[Tuple[float, float]] = (),
    trace: bool = False,
    oracle: bool = False,
):
    """Build a network of nodes at fixed positions (or constant velocities).

    Returns ``(sim, network, stats, nodes)``.  When ``protocol`` is given the
    corresponding protocol is attached to every node and the network is ready
    to ``start()``.  With ``oracle`` the medium scans exhaustively (see
    :func:`use_linear_scan`).
    """
    sim = Simulator(seed=seed)
    stats = StatsCollector()
    event_trace = EventTrace(enabled=trace, max_records=100_000)
    medium = WirelessMedium(
        sim,
        propagation=UnitDiskPropagation(comm_range),
        reception=SnrThresholdReception(),
        stats=stats,
        trace=event_trace,
    )
    if oracle:
        use_linear_scan(medium)
    network = Network(sim, medium=medium, stats=stats, trace=event_trace)
    nodes: List[Node] = []
    for index, (x, y) in enumerate(positions):
        if velocities is not None:
            provider = LinearMotionProvider(sim, Vec2(x, y), Vec2(*velocities[index]))
        else:
            provider = StaticPositionProvider(Vec2(x, y))
        nodes.append(network.add_vehicle(provider))
    for x, y in rsu_positions:
        network.add_rsu(Vec2(x, y))
    if protocol is not None:
        factory = make_protocol_factory(
            protocol, config=protocol_config, road_graph=road_graph
        )
        network.attach_protocols(factory)
    return sim, network, stats, nodes


def line_positions(count: int, spacing: float, y: float = 0.0) -> List[Tuple[float, float]]:
    """Positions of ``count`` nodes in a straight line with ``spacing`` metres between them."""
    return [(i * spacing, y) for i in range(count)]


def run_data_flow(
    sim: Simulator,
    stats: StatsCollector,
    source: Node,
    destination: Node,
    packets: int = 5,
    interval: float = 1.0,
    start: float = 1.0,
    until: float = 30.0,
    flow_id: int = 1,
) -> None:
    """Schedule a CBR flow from ``source`` to ``destination`` and run the simulation."""
    stats.register_flow(flow_id, source.node_id, destination.node_id)
    for seq in range(packets):
        sim.schedule_at(
            start + seq * interval,
            lambda s=seq: source.protocol.send_data(
                destination.node_id, flow_id=flow_id, seq=s + 1
            ),
        )
    sim.run(until=until)
