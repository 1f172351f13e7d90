"""Shared hop-by-hop forwarding driven by a per-neighbour score.

REAR and GVGrid (and, outside this package, Wedde and Greedy) all follow the
same loop: beacon, learn neighbours, and forward each data packet to the
neighbour that maximises some protocol-specific score, subject to making
geographic progress.  This base class implements the loop once; subclasses
provide :meth:`neighbor_score`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.geometry import Vec2
from repro.protocols.base import ProtocolConfig, RoutingProtocol
from repro.protocols.discovery import DuplicateCache
from repro.protocols.location import LocationService
from repro.protocols.neighbors import BeaconService, NeighborEntry
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.packet import Packet


@dataclass
class ScoredForwardingConfig(ProtocolConfig):
    """Parameters of scored hop-by-hop forwarding.

    Attributes:
        require_progress: Only consider neighbours strictly closer to the
            destination; when False the best-scoring neighbour is used even
            without progress (useful for probabilistic detours).
        min_score: Neighbours scoring below this are never used.
    """

    require_progress: bool = True
    min_score: float = 0.0
    #: Neighbours estimated to be farther than this are skipped (edge-of-range
    #: candidates have likely drifted out of range since their last beacon).
    max_neighbor_distance_m: float = 230.0


class ScoredForwardingProtocol(RoutingProtocol):
    """Base class: forward data to the best-scoring neighbour."""

    uses_location_service = True

    def __init__(
        self,
        node: Node,
        network: Network,
        config: Optional[ScoredForwardingConfig] = None,
        location_service: Optional[LocationService] = None,
    ) -> None:
        super().__init__(
            node, network, config if config is not None else ScoredForwardingConfig()
        )
        self.location = (
            location_service if location_service is not None else LocationService(network)
        )
        self.beacons = BeaconService(
            self,
            interval_s=self.config.hello_interval_s,
            timeout_s=self.config.neighbor_timeout_s,
        )
        self._seen = DuplicateCache(lifetime_s=30.0)

    # ------------------------------------------------------------------ hooks
    def neighbor_score(
        self,
        entry: NeighborEntry,
        destination: int,
        destination_position: Vec2,
        progress_m: float,
    ) -> float:
        """Score of forwarding via ``entry`` (higher is better); subclass hook."""
        raise NotImplementedError

    # ------------------------------------------------------------------ setup
    def start(self) -> None:
        """Start beaconing."""
        super().start()
        self.beacons.start()

    def stop(self) -> None:
        """Stop beaconing."""
        super().stop()
        self.beacons.stop()

    # ------------------------------------------------------------------- data
    def route_data(self, packet: Packet) -> None:
        """Forward to the best-scoring neighbour."""
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
    def _forward(self, packet: Packet) -> None:
        cfg: ScoredForwardingConfig = self.config  # type: ignore[assignment]
        destination_position = self.location.position_of(packet.destination)
        if destination_position is None:
            self.stats.no_route_drop()
            return
        neighbors = self.beacons.neighbors()
        by_id = {entry.node_id: entry for entry in neighbors}
        if packet.destination in by_id:
            self.unicast(packet, packet.destination)
            return
        own_distance = self.node.position.distance_to(destination_position)
        best_id: Optional[int] = None
        best_score = cfg.min_score
        for entry in neighbors:
            neighbor_position = entry.predicted_position(self.now)
            if self.node.position.distance_to(neighbor_position) > cfg.max_neighbor_distance_m:
                continue
            progress = own_distance - neighbor_position.distance_to(destination_position)
            if cfg.require_progress and progress <= 0:
                continue
            score = self.neighbor_score(
                entry, packet.destination, destination_position, progress
            )
            if score > best_score:
                best_score = score
                best_id = entry.node_id
        if best_id is None:
            self.stats.no_route_drop()
            return
        self.unicast(packet, best_id)
