"""Vehicle kinematic state.

Every mobility model in the package manipulates :class:`VehicleState`
objects; the network layer reads them through
:class:`VehiclePositionProvider`, so a node's position always reflects the
latest mobility update without any copying.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.geometry import Vec2


@dataclass
class VehicleState:
    """Mutable kinematic state of one vehicle.

    Attributes:
        vid: Vehicle identifier (unique within a mobility model).
        position: Current position in metres.
        speed: Scalar speed in m/s (never negative).
        heading: Travel direction in radians (counter-clockwise from +x).
        acceleration: Current longitudinal acceleration in m/s^2.
        lane: Lane index (model-specific meaning; -1 when not applicable).
        length: Vehicle length in metres (used for gap computations).
        desired_speed: The driver's free-flow target speed in m/s.
        route_progress: Model-specific longitudinal coordinate (e.g. distance
            along the highway or along the current street).
    """

    vid: int
    position: Vec2 = field(default_factory=Vec2)
    speed: float = 0.0
    heading: float = 0.0
    acceleration: float = 0.0
    lane: int = -1
    length: float = 5.0
    desired_speed: float = 30.0
    route_progress: float = 0.0

    @property
    def velocity(self) -> Vec2:
        """Velocity vector derived from speed and heading."""
        return Vec2.from_polar(self.speed, self.heading)

    def advance_straight(self, dt: float) -> None:
        """Integrate position and speed assuming the heading stays fixed."""
        new_speed = max(0.0, self.speed + self.acceleration * dt)
        # Trapezoidal distance update keeps low-speed behaviour smooth.
        distance = max(0.0, (self.speed + new_speed) * 0.5 * dt)
        self.position = self.position + Vec2.from_polar(distance, self.heading)
        self.route_progress += distance
        self.speed = new_speed

    def gap_to(self, leader: "VehicleState") -> float:
        """Bumper-to-bumper gap to a leading vehicle in the same lane."""
        centre_distance = self.position.distance_to(leader.position)
        return max(0.0, centre_distance - 0.5 * (self.length + leader.length))


class VehiclePositionProvider:
    """Adapter exposing a :class:`VehicleState` as a node position provider."""

    #: Mobility models move vehicle states only inside the network's
    #: mobility step (see :class:`~repro.sim.node.PositionProvider`).
    stepped = True

    def __init__(self, state: VehicleState) -> None:
        self.state = state

    def position(self) -> Vec2:
        """The vehicle's current position."""
        return self.state.position

    def velocity(self) -> Vec2:
        """The vehicle's current velocity vector."""
        return self.state.velocity


def relative_speed(a: VehicleState, b: VehicleState) -> float:
    """Magnitude of the relative velocity between two vehicles (m/s)."""
    return (a.velocity - b.velocity).norm()


def same_lane_leader(
    vehicle: VehicleState, candidates: list[VehicleState]
) -> Optional[VehicleState]:
    """The nearest vehicle ahead of ``vehicle`` travelling in its heading.

    "Ahead" is evaluated along the vehicle's heading direction; only
    candidates in the same lane are considered.  Returns ``None`` when the
    lane is empty ahead.
    """
    direction = Vec2.from_polar(1.0, vehicle.heading)
    best: Optional[VehicleState] = None
    best_distance = float("inf")
    for other in candidates:
        if other.vid == vehicle.vid or other.lane != vehicle.lane:
            continue
        offset = other.position - vehicle.position
        along = offset.dot(direction)
        if along <= 0:
            continue
        if along < best_distance:
            best_distance = along
            best = other
    return best
