"""Road-graph-driven mobility: vehicles walking an arbitrary road network.

The highway and Manhattan models hard-code their geometry; this model drives
vehicles over any :class:`~repro.roadnet.graph.RoadGraph` instead, which is
what city-scale scenarios need (arterial + grid topologies from
:mod:`repro.roadnet.city`, or any future imported map).  Vehicles travel
along road segments at a speed relaxed toward the segment's speed limit and
pick the next segment at every intersection (avoiding an immediate U-turn
whenever the intersection offers an alternative).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.geometry import Vec2
from repro.mobility.vehicle import VehicleState
from repro.roadnet.graph import RoadGraph


@dataclass
class GraphWalkConfig:
    """Driver behaviour on the road graph.

    Attributes:
        speed_factor: Global scaling of every speed limit (the traffic
            generators pass the density's congestion factor here).
        driver_spread: Relative std-dev of the per-driver speed preference
            (each driver targets ``preference x speed limit``).
        min_speed_mps: Lower clamp for vehicle speeds.
        speed_relaxation: First-order relaxation rate (1/s) of the current
            speed toward the target speed.
        p_u_turn: Probability of turning back at an intersection that offers
            other exits (dead ends always turn back).
    """

    speed_factor: float = 1.0
    driver_spread: float = 0.12
    min_speed_mps: float = 2.0
    speed_relaxation: float = 0.6
    p_u_turn: float = 0.02


class GraphWalkMobility:
    """Vehicles moving edge-to-edge over an arbitrary road graph."""

    def __init__(
        self,
        graph: RoadGraph,
        config: Optional[GraphWalkConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not graph.intersections:
            raise ValueError("graph-walk mobility needs a non-empty road graph")
        self.graph = graph
        self.config = config if config is not None else GraphWalkConfig()
        if rng is None:
            # No fixed-seed fallback: scenario.seed must reach every turn
            # decision (see the PR 2 random-waypoint regression).
            raise ValueError(
                "GraphWalkMobility needs the simulator's seeded 'mobility' "
                "stream (rng=sim.rng.stream('mobility'))"
            )
        self._rng = rng
        self.vehicles: List[VehicleState] = []
        #: vid -> (from intersection, to intersection); progress lives in
        #: ``VehicleState.route_progress`` (metres from the edge's start).
        self._edges: Dict[int, Tuple[str, str]] = {}
        #: vid -> the driver's personal speed preference multiplier.
        self._preference: Dict[int, float] = {}
        self._edge_list: List[Tuple[str, str]] = graph.edges()
        if not self._edge_list:
            raise ValueError("graph-walk mobility needs at least one road segment")
        self._next_vid = 0
        self.time = 0.0

    # ----------------------------------------------------------------- fleet
    def add_vehicle(
        self,
        edge: Optional[Tuple[str, str]] = None,
        offset_m: Optional[float] = None,
    ) -> VehicleState:
        """Add a vehicle on ``edge`` at ``offset_m`` (random edge/offset by default)."""
        cfg = self.config
        if edge is None:
            edge = self._rng.choice(self._edge_list)
            if self._rng.random() < 0.5:
                edge = (edge[1], edge[0])
        start, end = edge
        length = self._edge_length(start, end)
        if offset_m is None:
            offset_m = self._rng.uniform(0.0, length)
        offset_m = min(max(offset_m, 0.0), length)
        preference = max(0.5, self._rng.gauss(1.0, cfg.driver_spread))
        vehicle = VehicleState(
            vid=self._next_vid,
            lane=-1,
            route_progress=offset_m,
        )
        self._next_vid += 1
        self._edges[vehicle.vid] = (start, end)
        self._preference[vehicle.vid] = preference
        vehicle.desired_speed = self._target_speed(vehicle.vid, start, end)
        vehicle.speed = vehicle.desired_speed
        self._place(vehicle)
        self.vehicles.append(vehicle)
        return vehicle

    # ------------------------------------------------------------------ step
    def step(self, dt: float, now: float = 0.0) -> None:
        """Advance every vehicle by ``dt`` seconds."""
        self.time = now
        for vehicle in self.vehicles:
            self._step_vehicle(vehicle, dt)

    # -------------------------------------------------------------- internals
    def _edge_length(self, a: str, b: str) -> float:
        segment = self.graph.segment_between(a, b)
        if segment is None:
            raise KeyError(f"no road between {a} and {b}")
        return max(segment.length, 1e-9)

    def _edge_speed_limit(self, a: str, b: str) -> float:
        segment = self.graph.segment_between(a, b)
        if segment is None:
            raise KeyError(f"no road between {a} and {b}")
        return segment.speed_limit_mps

    def _target_speed(self, vid: int, a: str, b: str) -> float:
        cfg = self.config
        target = (
            self._preference[vid] * cfg.speed_factor * self._edge_speed_limit(a, b)
        )
        return max(cfg.min_speed_mps, target)

    def _place(self, vehicle: VehicleState) -> None:
        start, end = self._edges[vehicle.vid]
        origin = self.graph.position_of(start)
        target = self.graph.position_of(end)
        length = self._edge_length(start, end)
        alpha = min(1.0, vehicle.route_progress / length)
        vehicle.position = Vec2(
            origin.x + alpha * (target.x - origin.x),
            origin.y + alpha * (target.y - origin.y),
        )
        vehicle.heading = math.atan2(target.y - origin.y, target.x - origin.x)

    def _step_vehicle(self, vehicle: VehicleState, dt: float) -> None:
        self._advance_kinematics(vehicle, dt)
        self._place(vehicle)

    def _advance_kinematics(self, vehicle: VehicleState, dt: float) -> None:
        """Speed relaxation plus longitudinal advance (no placement)."""
        cfg = self.config
        start, end = self._edges[vehicle.vid]
        desired = self._target_speed(vehicle.vid, start, end)
        vehicle.desired_speed = desired
        vehicle.speed += (
            cfg.speed_relaxation * (desired - vehicle.speed) * dt
            + self._rng.gauss(0.0, 0.2) * dt
        )
        vehicle.speed = max(cfg.min_speed_mps * 0.5, vehicle.speed)
        remaining = vehicle.speed * dt
        # A vehicle may pass several intersections during one long step.
        for _ in range(8):
            if remaining <= 1e-9:
                break
            start, end = self._edges[vehicle.vid]
            length = self._edge_length(start, end)
            to_node = length - vehicle.route_progress
            if remaining < to_node:
                vehicle.route_progress += remaining
                remaining = 0.0
            else:
                remaining -= to_node
                self._choose_next_edge(vehicle, arrived_at=end, came_from=start)

    def _choose_next_edge(self, vehicle: VehicleState, arrived_at: str, came_from: str) -> None:
        options = self.graph.neighbors(arrived_at)
        forward = [name for name in options if name != came_from]
        if not forward:
            chosen = came_from  # dead end: forced U-turn
        elif self._rng.random() < self.config.p_u_turn and came_from in options:
            chosen = came_from
        else:
            chosen = self._rng.choice(forward)
        self._edges[vehicle.vid] = (arrived_at, chosen)
        vehicle.route_progress = 0.0


def populate_graph_walk(
    mobility: GraphWalkMobility,
    count: int,
    max_vehicles: Optional[int] = None,
) -> GraphWalkMobility:
    """Add ``count`` vehicles (capped at ``max_vehicles``) to ``mobility``."""
    if max_vehicles is not None:
        count = min(count, max_vehicles)
    for _ in range(max(0, count)):
        mobility.add_vehicle()
    return mobility


__all__ = ["GraphWalkConfig", "GraphWalkMobility", "populate_graph_walk"]
