"""Multi-lane, optionally bidirectional highway mobility.

This is the scenario the paper's introduction motivates (vehicles on an
interstate sharing content) and the setting of the mobility-based protocols
it surveys (PBR, Taleb).  Vehicles follow the IDM car-following law within
their lane and change lanes according to MOBIL.  The road is modelled as a
ring (periodic boundary), which keeps density constant over a run -- the
standard trick for steady-state vehicular experiments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.geometry import Vec2
from repro.mobility.idm import IdmParameters, idm_acceleration
from repro.mobility.lane_change import MobilParameters, should_change_lane
from repro.mobility.vehicle import VehicleState


@dataclass
class HighwayConfig:
    """Highway geometry and traffic parameters.

    Attributes:
        length_m: Length of the modelled stretch (ring circumference).
        lanes_per_direction: Number of lanes in each travel direction.
        bidirectional: When True a second carriageway runs the opposite way.
        lane_width_m: Lateral distance between lane centres.
        median_width_m: Gap between the two carriageways.
        speed_limit_mps: Mean desired (free-flow) speed.
        speed_stddev_mps: Standard deviation of per-driver desired speeds.
        min_desired_speed_mps: Lower clamp for desired speeds.
        lane_change_interval_s: Mean time between lane-change evaluations.
    """

    length_m: float = 2000.0
    lanes_per_direction: int = 2
    bidirectional: bool = True
    lane_width_m: float = 3.5
    median_width_m: float = 10.0
    speed_limit_mps: float = 33.0
    speed_stddev_mps: float = 3.0
    min_desired_speed_mps: float = 15.0
    lane_change_interval_s: float = 4.0

    @property
    def total_lanes(self) -> int:
        """Total number of lanes across both carriageways."""
        return self.lanes_per_direction * (2 if self.bidirectional else 1)


class HighwayMobility:
    """IDM + MOBIL traffic on a (possibly bidirectional) ring highway."""

    def __init__(
        self,
        config: Optional[HighwayConfig] = None,
        rng: Optional[random.Random] = None,
        idm: Optional[IdmParameters] = None,
        mobil: Optional[MobilParameters] = None,
    ) -> None:
        self.config = config if config is not None else HighwayConfig()
        if rng is None:
            # No fixed-seed fallback: scenario.seed must reach every driver
            # draw (see the PR 2 random-waypoint regression).
            raise ValueError(
                "HighwayMobility needs the simulator's seeded 'mobility' "
                "stream (rng=sim.rng.stream('mobility'))"
            )
        self._rng = rng
        self.idm = idm if idm is not None else IdmParameters()
        self.mobil = mobil if mobil is not None else MobilParameters()
        self.vehicles: List[VehicleState] = []
        self._next_vid = 0
        self.time = 0.0

    # --------------------------------------------------------------- geometry
    def lane_direction(self, lane: int) -> int:
        """+1 for the eastbound carriageway, -1 for the westbound one."""
        return 1 if lane < self.config.lanes_per_direction else -1

    def lane_heading(self, lane: int) -> float:
        """Heading (radians) of traffic in ``lane``."""
        return 0.0 if self.lane_direction(lane) > 0 else math.pi

    def lane_y(self, lane: int) -> float:
        """Lateral (y) coordinate of the centre of ``lane``."""
        cfg = self.config
        if lane < cfg.lanes_per_direction:
            return lane * cfg.lane_width_m
        westbound_index = lane - cfg.lanes_per_direction
        base = cfg.lanes_per_direction * cfg.lane_width_m + cfg.median_width_m
        return base + westbound_index * cfg.lane_width_m

    def _position_for(self, lane: int, progress: float) -> Vec2:
        """Map (lane, longitudinal progress) to a plane position."""
        cfg = self.config
        s = progress % cfg.length_m
        x = s if self.lane_direction(lane) > 0 else cfg.length_m - s
        return Vec2(x, self.lane_y(lane))

    # ----------------------------------------------------------------- fleet
    def add_vehicle(
        self,
        lane: int,
        progress: float,
        speed: Optional[float] = None,
        desired_speed: Optional[float] = None,
    ) -> VehicleState:
        """Add one vehicle at longitudinal position ``progress`` in ``lane``."""
        cfg = self.config
        if not 0 <= lane < cfg.total_lanes:
            raise ValueError(f"lane {lane} out of range (0..{cfg.total_lanes - 1})")
        if desired_speed is None:
            desired_speed = max(
                cfg.min_desired_speed_mps,
                self._rng.gauss(cfg.speed_limit_mps, cfg.speed_stddev_mps),
            )
        if speed is None:
            speed = max(0.0, desired_speed - abs(self._rng.gauss(0.0, 1.0)))
        vehicle = VehicleState(
            vid=self._next_vid,
            lane=lane,
            speed=speed,
            desired_speed=desired_speed,
            heading=self.lane_heading(lane),
            route_progress=progress % cfg.length_m,
        )
        vehicle.position = self._position_for(lane, vehicle.route_progress)
        self._next_vid += 1
        self.vehicles.append(vehicle)
        return vehicle

    def vehicle(self, vid: int) -> VehicleState:
        """Look up a vehicle by id."""
        for vehicle in self.vehicles:
            if vehicle.vid == vid:
                return vehicle
        raise KeyError(vid)

    # ------------------------------------------------------------------ step
    def step(self, dt: float, now: float = 0.0) -> None:
        """Advance every vehicle by ``dt`` seconds."""
        self.time = now
        by_lane = self._vehicles_by_lane()
        # 1. Car following: compute accelerations against current leaders.
        for lane, lane_vehicles in by_lane.items():
            ordered = sorted(lane_vehicles, key=lambda v: v.route_progress)
            count = len(ordered)
            for index, vehicle in enumerate(ordered):
                if count == 1:
                    gap = math.inf
                    approach = 0.0
                else:
                    leader = ordered[(index + 1) % count]
                    gap_centres = (leader.route_progress - vehicle.route_progress) % self.config.length_m
                    gap = max(0.0, gap_centres - 0.5 * (vehicle.length + leader.length))
                    approach = vehicle.speed - leader.speed
                vehicle.acceleration = idm_acceleration(
                    vehicle.speed, vehicle.desired_speed, gap, approach, self.idm
                )
        # 2. Lane changes (Poisson-thinned so the rate is step-size independent).
        change_probability = min(1.0, dt / self.config.lane_change_interval_s)
        for vehicle in self.vehicles:
            if self._rng.random() < change_probability:
                self._maybe_change_lane(vehicle, by_lane)
        # 3. Integrate.
        for vehicle in self.vehicles:
            new_speed = max(0.0, vehicle.speed + vehicle.acceleration * dt)
            distance = (vehicle.speed + new_speed) * 0.5 * dt
            vehicle.speed = new_speed
            vehicle.route_progress = (vehicle.route_progress + distance) % self.config.length_m
            vehicle.heading = self.lane_heading(vehicle.lane)
            vehicle.position = self._position_for(vehicle.lane, vehicle.route_progress)

    # -------------------------------------------------------------- internals
    def _vehicles_by_lane(self) -> Dict[int, List[VehicleState]]:
        by_lane: Dict[int, List[VehicleState]] = {}
        for vehicle in self.vehicles:
            by_lane.setdefault(vehicle.lane, []).append(vehicle)
        return by_lane

    def _adjacent_lanes(self, lane: int) -> List[int]:
        cfg = self.config
        direction_base = 0 if lane < cfg.lanes_per_direction else cfg.lanes_per_direction
        candidates = [lane - 1, lane + 1]
        return [
            c
            for c in candidates
            if direction_base <= c < direction_base + cfg.lanes_per_direction
        ]

    def _neighbours_in_lane(
        self, vehicle: VehicleState, lane: int, by_lane: Dict[int, List[VehicleState]]
    ) -> tuple[Optional[VehicleState], Optional[VehicleState]]:
        """(leader, follower) of ``vehicle`` if it were in ``lane``."""
        length = self.config.length_m
        leader: Optional[VehicleState] = None
        follower: Optional[VehicleState] = None
        best_ahead = math.inf
        best_behind = math.inf
        for other in by_lane.get(lane, []):
            if other.vid == vehicle.vid:
                continue
            ahead = (other.route_progress - vehicle.route_progress) % length
            behind = (vehicle.route_progress - other.route_progress) % length
            if ahead < best_ahead:
                best_ahead = ahead
                leader = other
            if behind < best_behind:
                best_behind = behind
                follower = other
        return leader, follower

    def _maybe_change_lane(
        self, vehicle: VehicleState, by_lane: Dict[int, List[VehicleState]]
    ) -> None:
        current_leader, _ = self._neighbours_in_lane(vehicle, vehicle.lane, by_lane)
        for target_lane in self._adjacent_lanes(vehicle.lane):
            target_leader, target_follower = self._neighbours_in_lane(
                vehicle, target_lane, by_lane
            )
            if should_change_lane(
                vehicle, current_leader, target_leader, target_follower, self.idm, self.mobil
            ):
                by_lane.get(vehicle.lane, []).remove(vehicle) if vehicle in by_lane.get(
                    vehicle.lane, []
                ) else None
                vehicle.lane = target_lane
                vehicle.heading = self.lane_heading(target_lane)
                by_lane.setdefault(target_lane, []).append(vehicle)
                return
