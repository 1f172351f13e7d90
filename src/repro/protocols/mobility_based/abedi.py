"""Abedi-style mobility-enhanced AODV (paper ref. [11]).

Abedi et al. extend AODV with three mobility parameters -- direction, position
and speed -- treating *direction* as the most important: next hops moving in
the same direction as the source/destination are preferred, then next hops
closer to the destination.  In this implementation the preference is encoded
in the accumulated path metric (direction match dominates, geographic
progress breaks ties), so the destination ends up selecting the path AODV
would have selected after Abedi's next-hop filtering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.direction import direction_similarity
from repro.core.link_lifetime import LinkLifetimePredictor
from repro.core.taxonomy import Category, register_protocol
from repro.geometry import Vec2
from repro.protocols.location import LocationService
from repro.protocols.mobility_based.lifetime_routing import (
    PathDiscoveryConfig,
    PathMetricDiscoveryProtocol,
)
from repro.sim.network import Network
from repro.sim.node import Node


@dataclass
class AbediConfig(PathDiscoveryConfig):
    """Abedi parameters.

    Attributes:
        communication_range_m: Range used for the secondary lifetime estimate.
        direction_weight: Weight of the direction-match component.
        position_weight: Weight of the progress-toward-destination component.
        speed_weight: Weight of the speed-similarity component.
    """

    communication_range_m: float = 250.0
    direction_weight: float = 0.6
    position_weight: float = 0.3
    speed_weight: float = 0.1
    #: The Abedi metric is a unitless score rather than a predicted lifetime,
    #: so routes are trusted for at most this long even with a perfect score.
    route_lifetime_cap_s: float = 8.0


@register_protocol(
    "Abedi",
    Category.MOBILITY,
    "AODV enhanced with direction (primary), position and speed for next-hop selection.",
    paper_reference="[11], Sec. IV.B",
)
class AbediProtocol(PathMetricDiscoveryProtocol):
    """Mobility-parameter-enhanced AODV."""

    uses_location_service = True

    def __init__(
        self,
        node: Node,
        network: Network,
        config: Optional[AbediConfig] = None,
        location_service: Optional[LocationService] = None,
    ) -> None:
        super().__init__(node, network, config if config is not None else AbediConfig())
        self.predictor = LinkLifetimePredictor(self.config.communication_range_m)
        self.location = (
            location_service if location_service is not None else LocationService(network)
        )

    def link_metric(
        self,
        previous_position: Vec2,
        previous_velocity: Vec2,
        own_position: Vec2,
        own_velocity: Vec2,
        headers: dict,
    ) -> float:
        """Score in [0, 1]: direction match first, then progress, then speed match."""
        cfg: AbediConfig = self.config  # type: ignore[assignment]
        direction_score = direction_similarity(previous_velocity, own_velocity)
        progress_score = 0.5
        destination_position = self.location.position_of(headers["target"])
        if destination_position is not None:
            before = previous_position.distance_to(destination_position)
            after = own_position.distance_to(destination_position)
            if before > 1e-9:
                progress_score = max(0.0, min(1.0, (before - after) / cfg.communication_range_m + 0.5))
        prev_speed = previous_velocity.norm()
        own_speed = own_velocity.norm()
        max_speed = max(prev_speed, own_speed, 1e-9)
        speed_score = 1.0 - abs(prev_speed - own_speed) / max_speed
        return (
            cfg.direction_weight * direction_score
            + cfg.position_weight * progress_score
            + cfg.speed_weight * speed_score
        )

    def path_score(self, metric: float, path: List[int]) -> float:
        """Higher bottleneck score wins; shorter paths break ties."""
        return metric - 1e-3 * len(path)

    def _route_lifetime_from_metric(self, metric: float) -> float:
        """The Abedi metric is a unitless score; map it onto a trusted lifetime."""
        # A perfect score (same direction, good progress) is trusted for the
        # configured cap; poor scores decay linearly down to one second.
        metric = max(0.0, min(1.0, metric))
        return 1.0 + metric * (self.config.route_lifetime_cap_s - 1.0)
