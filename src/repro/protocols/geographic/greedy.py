"""Greedy geographic forwarding (Gong [23], Lochert [24]; GPSR-style).

Each vehicle beacons its position; data packets are forwarded to the
neighbour that is geographically closest to the destination ("vehicles
transmit packets aggressively toward the destination").  Following the
predictive-directional variant of Gong et al., the next-hop score can also
reward neighbours moving toward the destination, which "helps to select
long-lived links".  When no neighbour makes progress (a local maximum) the
packet is either briefly carried (store-carry-forward recovery) or dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.taxonomy import Category, register_protocol
from repro.geometry import Vec2
from repro.protocols.base import ProtocolConfig, RoutingProtocol
from repro.protocols.discovery import DuplicateCache
from repro.protocols.location import LocationService
from repro.protocols.neighbors import BeaconService, NeighborEntry
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.packet import Packet


@dataclass
class GreedyConfig(ProtocolConfig):
    """Greedy forwarding parameters.

    Attributes:
        direction_weight: Weight of the "neighbour moving toward the
            destination" bonus (0 = plain greedy, GPSR-style).
        carry_on_local_maximum: Whether packets stuck at a local maximum are
            carried and retried instead of dropped.
        carry_timeout_s: How long a stuck packet may be carried.
        carry_retry_interval_s: How often carried packets are retried.
    """

    direction_weight: float = 0.2
    carry_on_local_maximum: bool = True
    carry_timeout_s: float = 10.0
    carry_retry_interval_s: float = 1.0
    #: Neighbours estimated to be farther than this are not used as next hops
    #: (edge-of-range candidates are likely to have drifted out of range since
    #: their last beacon).
    max_neighbor_distance_m: float = 230.0


@register_protocol(
    "Greedy",
    Category.GEOGRAPHIC,
    "Greedy position-based forwarding with a predictive-direction bonus and "
    "store-carry recovery at local maxima.",
    paper_reference="[23][24], Sec. VI.B",
)
class GreedyProtocol(RoutingProtocol):
    """Greedy geographic forwarding."""

    uses_location_service = True

    def __init__(
        self,
        node: Node,
        network: Network,
        config: Optional[GreedyConfig] = None,
        location_service: Optional[LocationService] = None,
    ) -> None:
        super().__init__(node, network, config if config is not None else GreedyConfig())
        self.location = (
            location_service if location_service is not None else LocationService(network)
        )
        self.beacons = BeaconService(
            self,
            interval_s=self.config.hello_interval_s,
            timeout_s=self.config.neighbor_timeout_s,
        )
        self._seen = DuplicateCache(lifetime_s=30.0)
        self._carried: List[Tuple[float, Packet]] = []
        self._carry_task = None

    # ------------------------------------------------------------------ setup
    def start(self) -> None:
        """Start beaconing and, if enabled, the carried-packet retry loop."""
        super().start()
        self.beacons.start()
        cfg: GreedyConfig = self.config  # type: ignore[assignment]
        if cfg.carry_on_local_maximum:
            self._carry_task = self.sim.schedule_periodic(
                cfg.carry_retry_interval_s,
                self._retry_carried,
                start_delay=cfg.carry_retry_interval_s,
                jitter=0.2,
                rng_stream=f"greedy-carry-{self.node.node_id}",
            )

    def stop(self) -> None:
        """Stop timers."""
        super().stop()
        self.beacons.stop()
        if self._carry_task is not None:
            self._carry_task.cancel()
            self._carry_task = None

    # ------------------------------------------------------------------- data
    def route_data(self, packet: Packet) -> None:
        """Forward greedily toward the destination's position."""
        if packet.destination == self.node.node_id:
            self.deliver_locally(packet)
            return
        self._seen.seen((packet.flow_key, self.node.node_id), self.now)
        self._forward(packet)

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
        self._forward(packet.forwarded())

    # -------------------------------------------------------------- internals
    def select_next_hop(
        self, destination: int, destination_position: Vec2
    ) -> Optional[int]:
        """Best next hop by greedy progress plus the directional bonus."""
        cfg: GreedyConfig = self.config  # type: ignore[assignment]
        neighbors = self.beacons.neighbors()
        by_id = {entry.node_id: entry for entry in neighbors}
        if destination in by_id:
            return destination
        own_distance = self.node.position.distance_to(destination_position)
        best_id: Optional[int] = None
        best_score = 0.0
        for entry in neighbors:
            # Dead-reckon the neighbour forward from its last beacon so the
            # decision uses where it is now, not where it was up to a beacon
            # interval ago (at highway speeds that is tens of metres).
            neighbor_position = entry.predicted_position(self.now)
            if self.node.position.distance_to(neighbor_position) > cfg.max_neighbor_distance_m:
                continue
            progress = own_distance - neighbor_position.distance_to(destination_position)
            if progress <= 0:
                continue
            score = progress
            if cfg.direction_weight > 0 and entry.speed > 0.1:
                toward = (destination_position - neighbor_position).normalized()
                alignment = entry.velocity.normalized().dot(toward)
                score *= 1.0 + cfg.direction_weight * max(0.0, alignment)
            if score > best_score:
                best_score = score
                best_id = entry.node_id
        return best_id

    def _forward(self, packet: Packet) -> None:
        cfg: GreedyConfig = self.config  # type: ignore[assignment]
        destination_position = self.location.position_of(packet.destination)
        if destination_position is None:
            self.stats.no_route_drop()
            return
        next_hop = self.select_next_hop(packet.destination, destination_position)
        if next_hop is not None:
            self.unicast(packet, next_hop)
            return
        if cfg.carry_on_local_maximum:
            self.stats.store_carry()
            self._carried.append((self.now, packet))
        else:
            self.stats.no_route_drop()

    def _retry_carried(self) -> None:
        if not self._carried:
            return
        cfg: GreedyConfig = self.config  # type: ignore[assignment]
        still_carried: List[Tuple[float, Packet]] = []
        for carried_at, packet in self._carried:
            if self.now - carried_at > cfg.carry_timeout_s:
                self.stats.buffer_drop()
                continue
            destination_position = self.location.position_of(packet.destination)
            if destination_position is None:
                self.stats.no_route_drop()
                continue
            next_hop = self.select_next_hop(packet.destination, destination_position)
            if next_hop is not None:
                self.unicast(packet, next_hop)
            else:
                still_carried.append((carried_at, packet))
        self._carried = still_carried
