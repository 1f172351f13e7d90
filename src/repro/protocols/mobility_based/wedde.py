"""Wedde-style rating-value routing (paper ref. [15]).

Wedde et al. forward packets over links whose *rating value* -- a function of
the local traffic situation (average vehicle speed, density and congestion) --
exceeds a threshold.  The implementation computes each node's rating from its
neighbour table (density relative to a target, mean neighbour speed relative
to the free-flow speed), advertises the rating in HELLO beacons, and forwards
data hop-by-hop to the neighbour that combines sufficient rating with
geographic progress toward the destination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.taxonomy import Category, register_protocol
from repro.protocols.base import ProtocolConfig
from repro.protocols.location import LocationService
from repro.protocols.neighbors import NeighborEntry
from repro.protocols.relay import RelayProtocol
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.packet import Packet


@dataclass
class WeddeConfig(ProtocolConfig):
    """Rating-based forwarding parameters.

    Attributes:
        free_flow_speed_mps: Speed considered "uncongested" when rating a node.
        target_neighbor_count: Neighbourhood size that earns the full density
            score (fewer neighbours = sparse, many more = congested).
        rating_threshold: Minimum rating a next hop must advertise.
        rating_weight / progress_weight: Weights combining rating and
            geographic progress when ranking candidate next hops.
    """

    free_flow_speed_mps: float = 30.0
    target_neighbor_count: int = 8
    rating_threshold: float = 0.25
    rating_weight: float = 0.4
    progress_weight: float = 0.6
    #: Neighbours estimated to be farther than this are skipped as next hops.
    max_neighbor_distance_m: float = 230.0


@register_protocol(
    "Wedde",
    Category.MOBILITY,
    "Rating-value routing: forward over links whose traffic-situation rating is high enough.",
    paper_reference="[15], Sec. IV.B",
)
class WeddeProtocol(RelayProtocol):
    """Hop-by-hop forwarding driven by a traffic-situation rating."""

    destination_first = False

    def __init__(
        self,
        node: Node,
        network: Network,
        config: Optional[WeddeConfig] = None,
        location_service: Optional[LocationService] = None,
    ) -> None:
        super().__init__(
            node, network, config if config is not None else WeddeConfig(), location_service
        )
        self.beacons = self.beacon_service(extra_fields=lambda: {"rating": self.own_rating()})

    # ----------------------------------------------------------------- rating
    def own_rating(self) -> float:
        """Rating of this node's local traffic situation, in [0, 1].

        Combines a density score (how close the neighbourhood size is to the
        target) and a fluidity score (how close the mean neighbour speed is
        to free flow), mirroring the interdependency of density, speed and
        congestion Wedde et al. describe.
        """
        cfg: WeddeConfig = self.config  # type: ignore[assignment]
        neighbors = self.beacons.neighbors()
        count = len(neighbors)
        if count == 0:
            return 0.0
        density_score = min(1.0, count / cfg.target_neighbor_count)
        if count > 2 * cfg.target_neighbor_count:
            # Heavily congested neighbourhoods are penalised.
            density_score = max(
                0.2, 1.0 - (count - 2 * cfg.target_neighbor_count) / (4 * cfg.target_neighbor_count)
            )
        mean_speed = sum(entry.speed for entry in neighbors) / count
        fluidity_score = min(1.0, mean_speed / cfg.free_flow_speed_mps)
        return 0.5 * density_score + 0.5 * fluidity_score

    # -------------------------------------------------------------- internals
    def _forward(self, packet: Packet) -> None:
        """Unicast to the best-rated neighbour making progress toward the destination."""
        cfg: WeddeConfig = self.config  # type: ignore[assignment]
        destination_position = self.location.position_of(packet.destination)
        if destination_position is None:
            self.stats.no_route_drop()
            return
        neighbors = self.beacons.neighbors()
        if any(entry.node_id == packet.destination for entry in neighbors):
            self.unicast(packet, packet.destination)
            return
        own_distance = self.node.position.distance_to(destination_position)
        best_entry: Optional[NeighborEntry] = None
        best_score = -1.0
        for entry in neighbors:
            rating = float(entry.extra.get("rating", 0.0))
            if rating < cfg.rating_threshold:
                continue
            predicted = entry.predicted_position(self.now)
            if self.node.position.distance_to(predicted) > cfg.max_neighbor_distance_m:
                continue
            progress = own_distance - predicted.distance_to(destination_position)
            if progress <= 0:
                continue
            progress_score = min(1.0, progress / 250.0)
            score = cfg.rating_weight * rating + cfg.progress_weight * progress_score
            if score > best_score:
                best_score = score
                best_entry = entry
        if best_entry is None:
            self.stats.no_route_drop()
            return
        self.unicast(packet, best_entry.node_id)
