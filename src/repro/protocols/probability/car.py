"""CAR: Connectivity-Aware Routing (Yang et al., paper ref. [29]).

CAR routes over *road segments* rather than individual links: each segment of
the road graph gets a connectivity probability derived from the vehicle
density on it (the original partitions the segment into car-length cells and
asks how likely consecutive vehicles are within radio range).  The source
selects the road path with the highest product of segment connectivities,
then packets are forwarded greedily from anchor to anchor (the intersections
of the chosen road path).

The per-segment density comes from a traffic-statistics estimator; the
original CAR obtains it from historical/statistical data, so the estimator
here counts vehicles near each segment through the simulation oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.stability import GammaHeadwayModel
from repro.core.taxonomy import Category, register_protocol
from repro.geometry import Vec2
from repro.graphs import NoPathError
from repro.protocols.location import LocationService
from repro.protocols.neighbors import NeighborEntry
from repro.protocols.probability.scored_forwarding import (
    ScoredForwardingConfig,
    ScoredForwardingProtocol,
)
from repro.roadnet.graph import RoadGraph
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.packet import Packet


@dataclass
class CarConfig(ScoredForwardingConfig):
    """CAR parameters.

    Attributes:
        communication_range_m: Radio range used in the connectivity model.
        cell_length_m: Grid-cell length on a road segment ("the average
            length of a car, i.e., 5 meters").
        headway_shape: Shape parameter of the gamma headway distribution.
        anchor_reach_m: Distance at which an anchor counts as reached.
        density_refresh_interval_s: How often segment densities are re-estimated.
        assumed_density_veh_per_km: Density assumed when no measurement is
            available (also the value a miscalibrated deployment would use).
        use_measured_density: Estimate densities from the traffic oracle; when
            False the assumed density is used everywhere (the calibration-
            mismatch ablation, ``benchmarks/bench_ablation_probability_mismatch.py``).
    """

    communication_range_m: float = 250.0
    cell_length_m: float = 5.0
    headway_shape: float = 2.0
    anchor_reach_m: float = 150.0
    density_refresh_interval_s: float = 10.0
    assumed_density_veh_per_km: float = 15.0
    use_measured_density: bool = True


@register_protocol(
    "CAR",
    Category.PROBABILITY,
    "Connectivity-aware routing: pick the road path whose segments have the highest "
    "connectivity probability, then forward anchor to anchor.",
    paper_reference="[29], Sec. VII.B",
)
class CarProtocol(ScoredForwardingProtocol):
    """Connectivity-aware road-segment routing."""

    def __init__(
        self,
        node: Node,
        network: Network,
        config: Optional[CarConfig] = None,
        location_service: Optional[LocationService] = None,
        road_graph: Optional[RoadGraph] = None,
    ) -> None:
        super().__init__(
            node, network, config if config is not None else CarConfig(), location_service
        )
        self.road_graph = road_graph
        self._segment_connectivity: Dict[Tuple[str, str], float] = {}
        self._last_density_update = -math.inf

    # ----------------------------------------------------------- connectivity
    def segment_connectivity(self, a: str, b: str) -> float:
        """Connectivity probability of the road segment between two intersections."""
        self._refresh_densities()
        return self._segment_connectivity.get(
            (a, b), self._segment_connectivity.get((b, a), 0.5)
        )

    def _refresh_densities(self) -> None:
        cfg: CarConfig = self.config  # type: ignore[assignment]
        if self.road_graph is None:
            return
        if self.now - self._last_density_update < cfg.density_refresh_interval_s:
            return
        self._last_density_update = self.now
        for segment in self.road_graph.segments:
            density = self._segment_density(segment)
            mean_headway = 1000.0 / max(density, 0.1)
            headway = GammaHeadwayModel.from_mean_shape(mean_headway, cfg.headway_shape)
            probability = headway.segment_connectivity(
                segment.length, cfg.communication_range_m
            )
            key = self.road_graph.segment_endpoints(segment.segment_id)
            self._segment_connectivity[key] = probability

    def _segment_density(self, segment) -> float:
        """Vehicles per km currently on (near) the segment."""
        cfg: CarConfig = self.config  # type: ignore[assignment]
        if not cfg.use_measured_density:
            return cfg.assumed_density_veh_per_km
        count = 0
        for node in self.network.vehicles:
            if segment.distance_to(node.position) <= 20.0:
                count += 1
        return max(0.1, count / max(segment.length / 1000.0, 1e-3))

    # ----------------------------------------------------------------- anchors
    def _anchor_path(self, destination_position: Vec2) -> List[Vec2]:
        """Intersection positions of the most-connected road path to the destination."""
        if self.road_graph is None:
            return []
        self._refresh_densities()
        start = self.road_graph.nearest_intersection(self.node.position)
        end = self.road_graph.nearest_intersection(destination_position)
        if start == end:
            return [self.road_graph.position_of(end)]
        edge_cost: Dict[Tuple[str, str], float] = {}
        for (a, b), probability in self._segment_connectivity.items():
            probability = min(max(probability, 1e-6), 1.0)
            edge_cost[(a, b)] = -math.log(probability) * 1000.0 + 1.0
        try:
            path = self.road_graph.best_path(start, end, edge_cost)
        except NoPathError:
            return []
        return [self.road_graph.position_of(name) for name in path]

    # ------------------------------------------------------------------- data
    def route_data(self, packet: Packet) -> None:
        """Attach the anchor path on origination, then forward along it."""
        if packet.destination == self.node.node_id:
            self.deliver_locally(packet)
            return
        if "car_anchors" not in packet.headers and self.road_graph is not None:
            destination_position = self.location.position_of(packet.destination)
            if destination_position is not None:
                anchors = self._anchor_path(destination_position)
                # Drop leading anchors that would route the packet away from
                # the destination (the nearest intersection can lie behind us).
                own_to_destination = self.node.position.distance_to(destination_position)
                while anchors and anchors[0].distance_to(destination_position) >= own_to_destination:
                    anchors.pop(0)
                packet.headers["car_anchors"] = [(p.x, p.y) for p in anchors]
                packet.headers["car_anchor_index"] = 0
        super().route_data(packet)

    # ---------------------------------------------------------------- scoring
    def _current_target(self, packet_headers: dict, destination_position: Vec2) -> Vec2:
        """The position the packet is currently heading toward (anchor or destination)."""
        cfg: CarConfig = self.config  # type: ignore[assignment]
        anchors = packet_headers.get("car_anchors")
        if not anchors:
            return destination_position
        index = int(packet_headers.get("car_anchor_index", 0))
        while index < len(anchors):
            anchor = Vec2(*anchors[index])
            if self.node.position.distance_to(anchor) > cfg.anchor_reach_m:
                packet_headers["car_anchor_index"] = index
                return anchor
            index += 1
        packet_headers["car_anchor_index"] = len(anchors)
        return destination_position

    def _forward(self, packet: Packet) -> None:
        """Greedy forwarding toward the current anchor of the chosen road path."""
        destination_position = self.location.position_of(packet.destination)
        if destination_position is None:
            self.stats.no_route_drop()
            return
        neighbors = self.beacons.neighbors()
        by_id = {entry.node_id: entry for entry in neighbors}
        if packet.destination in by_id:
            self.unicast(packet, packet.destination)
            return
        cfg: CarConfig = self.config  # type: ignore[assignment]
        target = self._current_target(packet.headers, destination_position)
        best_id = self._closest_neighbor(neighbors, target, cfg.max_neighbor_distance_m)
        if best_id is None:
            self.stats.no_route_drop()
            return
        self.unicast(packet, best_id)

    def neighbor_score(
        self,
        entry: NeighborEntry,
        destination: int,
        destination_position: Vec2,
        progress_m: float,
    ) -> float:
        """Unused (CAR overrides ``_forward``), provided to satisfy the base class."""
        return progress_m
