"""Hop-by-hop data relays that forward over the beacon neighbour table.

Greedy, Grid-Gateway, the scored-forwarding family (REAR, GVGrid, CAR),
Bus-Ferry and RSU-Relay hold no routes: every vehicle beacons, and each data
packet is handed from neighbour to neighbour by the protocol's own rule.
They all receive data the same way -- a frame addressed to this node is
delivered, a frame this node has already relayed is ignored, a frame out of
hops is dropped, and anything else goes to the protocol's :meth:`_forward`
-- and :class:`RelayProtocol` writes that receive once.
"""

from __future__ import annotations

from typing import List, Optional

from repro.geometry import Vec2
from repro.protocols.base import ProtocolConfig, RoutingProtocol
from repro.protocols.discovery import DuplicateCache
from repro.protocols.location import LocationService
from repro.protocols.neighbors import NeighborEntry
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.packet import Packet


class RelayProtocol(RoutingProtocol):
    """Base class: relay each fresh data frame once, toward the destination."""

    uses_location_service = True

    def __init__(
        self,
        node: Node,
        network: Network,
        config: ProtocolConfig,
        location_service: Optional[LocationService] = None,
    ) -> None:
        super().__init__(node, network, config)
        self.location = (
            location_service if location_service is not None else LocationService(network)
        )
        #: ``(flow key, node id)`` of every data packet this node has relayed.
        self._seen = DuplicateCache(lifetime_s=30.0)

    def _forward(self, packet: Packet) -> None:
        """Send ``packet`` on toward its destination (subclass hook)."""
        raise NotImplementedError

    # ------------------------------------------------------------------- data
    def route_data(self, packet: Packet) -> None:
        """Deliver locally, or mark the packet relayed here and forward it."""
        if packet.destination == self.node.node_id:
            self.deliver_locally(packet)
            return
        self._seen.seen((packet.flow_key, self.node.node_id), self.now)
        self._forward(packet)

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
        self._forward(packet.forwarded())

    # -------------------------------------------------------------- next hops
    def _closest_neighbor(
        self,
        candidates: List[NeighborEntry],
        target: Vec2,
        max_distance_m: float = 230.0,
    ) -> Optional[int]:
        """The candidate predicted closest to ``target``, if closer than this node.

        Candidates predicted farther than ``max_distance_m`` away are skipped:
        they have likely drifted out of range since their last beacon.
        """
        best_id: Optional[int] = None
        best_distance = self.node.position.distance_to(target)
        for entry in candidates:
            predicted = entry.predicted_position(self.now)
            if self.node.position.distance_to(predicted) > max_distance_m:
                continue
            distance = predicted.distance_to(target)
            if distance < best_distance:
                best_distance = distance
                best_id = entry.node_id
        return best_id

    def _greedy_next_hop(
        self, destination: int, neighbors: List[NeighborEntry]
    ) -> Optional[int]:
        """The neighbour that brings a packet closest to ``destination``, if any."""
        destination_position = self.location.position_of(destination)
        if destination_position is None:
            return None
        return self._closest_neighbor(neighbors, destination_position)
