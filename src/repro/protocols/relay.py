"""The one data receive of the flood and relay protocols.

Blind flooding, Biswas's implicit-ack flooding, Zone's corridor flood,
Wedde's rating relay and the beacon-driven hop-by-hop relays -- Greedy,
Grid-Gateway, the scored-forwarding family (REAR, GVGrid, CAR), Bus-Ferry and
RSU-Relay -- hold no routes, and they all receive data the same way: a
control frame is ignored, a copy this node has already handled is dropped, a
frame addressed to this node is delivered, a frame out of hops is dropped,
and anything else goes, as a :meth:`~repro.sim.packet.Packet.forwarded`
copy, to the protocol's own :meth:`~ForwardingProtocol._forward`.
:class:`ForwardingProtocol` writes that receive once; :class:`RelayProtocol`
adds the location service and the greedy next hop of Wedde and the relays.

Three class constants carry what really differs between the members:

============  ====================  ===========  ===================
member        duplicate check       dedup life   delivers broadcasts
============  ====================  ===========  ===================
Flooding      before the dest test  60 s         yes
Biswas        before the dest test  60 s         yes
Zone          before the dest test  30 s         no
Wedde         before the dest test  30 s         no
Bus-Ferry     after the dest test   60 s         no
other relays  after the dest test   30 s         no
============  ====================  ===========  ===================

The order is behaviour: a flood destination delivers only the first copy it
hears, a relay destination every copy (the summary counts first deliveries
either way; the trace's ``delivered`` records see the difference).
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
from repro.sim.packet import BROADCAST, Packet


class ForwardingProtocol(RoutingProtocol):
    """Base class: handle each data packet once, then hand it to :meth:`_forward`."""

    #: True when a frame addressed to this node is delivered before the
    #: duplicate check, so the destination delivers every copy it hears.
    destination_first: bool = True
    #: How long a handled packet is remembered as a duplicate.
    seen_lifetime_s: float = 30.0
    #: True when a relay also delivers ``BROADCAST``-addressed data locally.
    delivers_broadcast: bool = False

    def __init__(self, node: Node, network: Network, config: ProtocolConfig) -> None:
        super().__init__(node, network, config)
        #: Flow key of every data packet this node has originated or handled.
        self._seen = DuplicateCache(lifetime_s=self.seen_lifetime_s)

    def _forward(self, packet: Packet) -> None:
        """Send ``packet`` on toward its destination (subclass hook)."""
        raise NotImplementedError

    # ------------------------------------------------------------------- data
    def route_data(self, packet: Packet) -> None:
        """Deliver locally, or mark the packet handled here and forward it."""
        if packet.destination == self.node.node_id:
            self.deliver_locally(packet)
            return
        self._seen.seen(packet.flow_key, self.now)
        self._forward(packet)

    def handle_packet(self, packet: Packet, sender_id: int) -> None:
        """Handle data frames (HELLOs reach the beacon service directly)."""
        if not packet.is_data:
            return
        if packet.destination == self.node.node_id:
            if not self.destination_first and self._seen.seen(packet.flow_key, self.now):
                return
            self.deliver_locally(packet)
            return
        if self._seen.seen(packet.flow_key, self.now):
            return
        if self.delivers_broadcast and packet.destination == BROADCAST:
            self.deliver_locally(packet)
        if packet.ttl <= 1:
            self.stats.ttl_drop()
            return
        self._forward(packet.forwarded())


class RelayProtocol(ForwardingProtocol):
    """Base class of Wedde and the relays: a location service and greedy next hops."""

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
