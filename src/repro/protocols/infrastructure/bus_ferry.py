"""Bus-ferry routing in the style of Kitani et al. (paper ref. [19]).

Buses travel regular routes and have larger storage than ordinary vehicles;
they collect packets from cars they pass and carry them until the destination
(or a car closer to it) comes within range.  This is a store-carry-forward
scheme: it trades latency for delivery in sparse traffic, the regime where
the paper says pure vehicle-to-vehicle forwarding fails.

The same protocol class runs on cars and on buses; buses are nodes of kind
``BUS`` and simply get a much larger buffer and an active delivery loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.taxonomy import Category, register_protocol
from repro.protocols.base import ProtocolConfig, RoutingProtocol
from repro.protocols.discovery import DuplicateCache
from repro.protocols.location import LocationService
from repro.protocols.neighbors import BeaconService, NeighborEntry
from repro.sim.network import Network
from repro.sim.node import Node, NodeKind
from repro.sim.packet import Packet


@dataclass
class BusFerryConfig(ProtocolConfig):
    """Bus-ferry parameters.

    Attributes:
        car_buffer_capacity: Store-carry buffer size on ordinary cars.
        bus_buffer_capacity: Store-carry buffer size on buses.
        buffer_timeout_s: Maximum time a packet is carried before being dropped.
        delivery_check_interval_s: How often carried packets are re-evaluated.
    """

    car_buffer_capacity: int = 8
    bus_buffer_capacity: int = 512
    buffer_timeout_s: float = 60.0
    delivery_check_interval_s: float = 1.0


@register_protocol(
    "Bus-Ferry",
    Category.INFRASTRUCTURE,
    "Buses on regular routes store, carry and forward packets collected from cars.",
    paper_reference="[19], Sec. V",
)
class BusFerryProtocol(RoutingProtocol):
    """Store-carry-forward routing with buses as high-capacity ferries."""

    uses_location_service = True

    def __init__(
        self,
        node: Node,
        network: Network,
        config: Optional[BusFerryConfig] = None,
        location_service: Optional[LocationService] = None,
    ) -> None:
        super().__init__(node, network, config if config is not None else BusFerryConfig())
        self.location = (
            location_service if location_service is not None else LocationService(network)
        )
        self.beacons = BeaconService(
            self,
            interval_s=self.config.hello_interval_s,
            timeout_s=self.config.neighbor_timeout_s,
            extra_fields=lambda: {"is_bus": self.node.kind is NodeKind.BUS},
        )
        self._buffer: List[Tuple[float, Packet]] = []
        self._seen = DuplicateCache(lifetime_s=60.0)
        self._delivery_task = None

    # ------------------------------------------------------------------ setup
    @property
    def is_bus(self) -> bool:
        """True when this protocol instance runs on a bus."""
        return self.node.kind is NodeKind.BUS

    @property
    def buffer_capacity(self) -> int:
        """Store-carry capacity of this node."""
        cfg: BusFerryConfig = self.config  # type: ignore[assignment]
        return cfg.bus_buffer_capacity if self.is_bus else cfg.car_buffer_capacity

    def start(self) -> None:
        """Start beaconing and the periodic carried-packet delivery check."""
        super().start()
        self.beacons.start()
        self._delivery_task = self.sim.schedule_periodic(
            self.config.delivery_check_interval_s,
            self._try_deliver_buffered,
            start_delay=self.config.delivery_check_interval_s,
            jitter=0.2,
            rng_stream=f"busferry-{self.node.node_id}",
        )

    def stop(self) -> None:
        """Stop beaconing and the delivery loop."""
        super().stop()
        self.beacons.stop()
        if self._delivery_task is not None:
            self._delivery_task.cancel()
            self._delivery_task = None

    # ------------------------------------------------------------------- data
    def route_data(self, packet: Packet) -> None:
        """Deliver directly, forward toward the destination, hand to a bus, or carry."""
        if packet.destination == self.node.node_id:
            self.deliver_locally(packet)
            return
        neighbors = self.beacons.neighbors()
        by_id = {entry.node_id: entry for entry in neighbors}
        if packet.destination in by_id:
            self.unicast(packet, packet.destination)
            return
        greedy_hop = self._greedy_next_hop(packet.destination, neighbors)
        if greedy_hop is not None:
            self.unicast(packet, greedy_hop)
            return
        if not self.is_bus:
            bus_neighbor = self._nearest_bus(neighbors)
            if bus_neighbor is not None:
                self.unicast(packet, bus_neighbor.node_id)
                return
        self._carry(packet)

    # -------------------------------------------------------------- reception
    def handle_packet(self, packet: Packet, sender_id: int) -> None:
        """Handle data frames (HELLOs reach the beacon service directly)."""
        if not packet.is_data:
            return
        if packet.destination == self.node.node_id:
            self.deliver_locally(packet)
            return
        if self._seen.seen((packet.flow_key, self.node.node_id), self.now):
            return
        if packet.ttl <= 1:
            self.stats.ttl_drop()
            return
        self.route_data(packet.forwarded())

    # -------------------------------------------------------------- internals
    def _greedy_next_hop(
        self, destination: int, neighbors: List[NeighborEntry]
    ) -> Optional[int]:
        destination_position = self.location.position_of(destination)
        if destination_position is None:
            return None
        own_distance = self.node.position.distance_to(destination_position)
        best_id: Optional[int] = None
        best_distance = own_distance
        for entry in neighbors:
            predicted = entry.predicted_position(self.now)
            if self.node.position.distance_to(predicted) > 230.0:
                continue
            distance = predicted.distance_to(destination_position)
            if distance < best_distance:
                best_distance = distance
                best_id = entry.node_id
        return best_id

    @staticmethod
    def _nearest_bus(neighbors: List[NeighborEntry]) -> Optional[NeighborEntry]:
        buses = [entry for entry in neighbors if entry.extra.get("is_bus")]
        if not buses:
            return None
        return buses[0]

    def _carry(self, packet: Packet) -> None:
        cfg: BusFerryConfig = self.config  # type: ignore[assignment]
        self._expire_buffer()
        if len(self._buffer) >= self.buffer_capacity:
            self.stats.buffer_drop()
            return
        self.stats.store_carry()
        self._buffer.append((self.now, packet))
        del cfg

    def _try_deliver_buffered(self) -> None:
        if not self._buffer:
            return
        self._expire_buffer()
        neighbors = self.beacons.neighbors()
        if not neighbors:
            return
        by_id = {entry.node_id: entry for entry in neighbors}
        remaining: List[Tuple[float, Packet]] = []
        for buffered_at, packet in self._buffer:
            if packet.destination in by_id:
                self.unicast(packet, packet.destination)
                continue
            greedy_hop = self._greedy_next_hop(packet.destination, neighbors)
            if greedy_hop is not None:
                self.unicast(packet, greedy_hop)
                continue
            remaining.append((buffered_at, packet))
        self._buffer = remaining

    def _expire_buffer(self) -> None:
        cfg: BusFerryConfig = self.config  # type: ignore[assignment]
        fresh = [
            (buffered_at, packet)
            for buffered_at, packet in self._buffer
            if self.now - buffered_at <= cfg.buffer_timeout_s
        ]
        dropped = len(self._buffer) - len(fresh)
        for _ in range(dropped):
            self.stats.buffer_drop()
        self._buffer = fresh
