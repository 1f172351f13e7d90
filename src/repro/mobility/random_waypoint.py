"""Random-waypoint mobility.

The classic MANET mobility model.  It is included as the baseline the paper
contrasts VANET mobility against (Sec. IV.A: conventional MANET nodes move
slowly and without road constraints), and it is useful for testing protocols
in an unconstrained setting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.geometry import Vec2
from repro.mobility.vehicle import VehicleState


@dataclass
class RandomWaypointConfig:
    """Area and speed parameters.

    Attributes:
        width_m: Width of the rectangular area.
        height_m: Height of the rectangular area.
        min_speed_mps: Minimum speed drawn for each leg.
        max_speed_mps: Maximum speed drawn for each leg.
        pause_time_s: Pause duration at each waypoint.
    """

    width_m: float = 1000.0
    height_m: float = 1000.0
    min_speed_mps: float = 1.0
    max_speed_mps: float = 20.0
    pause_time_s: float = 0.0


class RandomWaypointMobility:
    """Nodes move between uniformly random waypoints at uniformly random speeds."""

    def __init__(
        self,
        config: Optional[RandomWaypointConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.config = config if config is not None else RandomWaypointConfig()
        if rng is None:
            # A fixed-seed fallback here once made every scenario.seed
            # produce identical motion (fixed in PR 2); the stream is now
            # mandatory so the seed can never be silently ignored again.
            raise ValueError(
                "RandomWaypointMobility needs the simulator's seeded "
                "'mobility' stream (rng=sim.rng.stream('mobility'))"
            )
        self._rng = rng
        self.vehicles: List[VehicleState] = []
        self._targets: Dict[int, Vec2] = {}
        self._pause_until: Dict[int, float] = {}
        self._next_vid = 0
        self.time = 0.0

    def add_vehicle(self, position: Optional[Vec2] = None) -> VehicleState:
        """Add a node at ``position`` (random position by default)."""
        if position is None:
            position = self._random_point()
        vehicle = VehicleState(vid=self._next_vid, position=position, lane=-1)
        self._next_vid += 1
        self.vehicles.append(vehicle)
        self._assign_new_leg(vehicle)
        return vehicle

    def step(self, dt: float, now: float = 0.0) -> None:
        """Advance every node by ``dt`` seconds."""
        self.time = now
        for vehicle in self.vehicles:
            if self._pause_until.get(vehicle.vid, 0.0) > now:
                vehicle.speed = 0.0
                continue
            target = self._targets[vehicle.vid]
            to_target = target - vehicle.position
            distance = to_target.norm()
            travel = vehicle.speed * dt
            if travel >= distance:
                vehicle.position = target
                if self.config.pause_time_s > 0:
                    self._pause_until[vehicle.vid] = now + self.config.pause_time_s
                self._assign_new_leg(vehicle)
            else:
                direction = to_target.normalized()
                vehicle.position = vehicle.position + direction * travel
                vehicle.heading = direction.angle()

    def _assign_new_leg(self, vehicle: VehicleState) -> None:
        target = self._random_point()
        self._targets[vehicle.vid] = target
        vehicle.speed = self._rng.uniform(
            self.config.min_speed_mps, self.config.max_speed_mps
        )
        vehicle.desired_speed = vehicle.speed
        direction = (target - vehicle.position).normalized()
        if direction.norm_sq() > 0:
            vehicle.heading = direction.angle()

    def _random_point(self) -> Vec2:
        return Vec2(
            self._rng.uniform(0.0, self.config.width_m),
            self._rng.uniform(0.0, self.config.height_m),
        )
