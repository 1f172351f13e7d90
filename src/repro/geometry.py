"""Small 2-D geometry helpers shared by the mobility, radio and core packages.

The paper reasons about vehicles in the plane: distances between vehicles
(Eqn. 2), the projection of velocity vectors onto the line joining two
vehicles (Fig. 4) and transmission ranges.  A tiny immutable vector type is
enough for all of that and keeps the rest of the code readable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, slots=True)
class Vec2:
    """An immutable 2-D vector / point."""

    x: float = 0.0
    y: float = 0.0

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Vec2":
        return Vec2(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vec2":
        return Vec2(self.x / scalar, self.y / scalar)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def dot(self, other: "Vec2") -> float:
        """Dot product with ``other``."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        """Z component of the 3-D cross product (signed parallelogram area)."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        """Euclidean length.

        Computed as ``sqrt(x*x + y*y)`` rather than ``math.hypot``: IEEE-754
        multiply, add and sqrt are all correctly rounded, so the value does
        not depend on the platform's ``hypot``, and the event traces pinned
        by the golden fixtures stay byte for byte.  Positions and ranges are
        metres (magnitudes ~1e0..1e4), so the overflow/underflow protection
        ``hypot`` adds is irrelevant here.
        """
        return math.sqrt(self.x * self.x + self.y * self.y)

    def norm_sq(self) -> float:
        """Squared Euclidean length (avoids a sqrt in hot loops)."""
        return self.x * self.x + self.y * self.y

    def distance_to(self, other: "Vec2") -> float:
        """Euclidean distance to ``other`` (see :meth:`norm` for the form)."""
        dx = self.x - other.x
        dy = self.y - other.y
        return math.sqrt(dx * dx + dy * dy)

    def normalized(self) -> "Vec2":
        """Unit vector with the same direction.

        The zero vector (and any vector too small to normalise without
        catastrophic loss of precision) is returned as the zero vector so
        callers do not have to special-case stationary vehicles.
        """
        length = self.norm()
        if length < 1e-12:
            return Vec2(0.0, 0.0)
        return Vec2(self.x / length, self.y / length)

    def angle(self) -> float:
        """Heading angle in radians, measured counter-clockwise from +x."""
        return math.atan2(self.y, self.x)

    def rotated(self, angle: float) -> "Vec2":
        """This vector rotated counter-clockwise by ``angle`` radians."""
        cos_a = math.cos(angle)
        sin_a = math.sin(angle)
        return Vec2(self.x * cos_a - self.y * sin_a, self.x * sin_a + self.y * cos_a)

    def projected_onto(self, direction: "Vec2") -> float:
        """Signed scalar projection of this vector onto ``direction``.

        This is the operation Fig. 4 of the paper performs: a velocity is
        decomposed along the line joining two vehicles ("horizontal") and
        its perpendicular ("vertical").  The result is positive when this
        vector points the same way as ``direction``.
        """
        unit = direction.normalized()
        return self.dot(unit)

    @staticmethod
    def from_polar(magnitude: float, angle: float) -> "Vec2":
        """Build a vector from a magnitude and an angle in radians."""
        return Vec2(magnitude * math.cos(angle), magnitude * math.sin(angle))


def angle_between(a: Vec2, b: Vec2) -> float:
    """Unsigned angle in radians between two vectors, in ``[0, pi]``.

    Zero vectors are treated as aligned with everything (angle 0) so that
    stationary vehicles never look like they move "against" a neighbour.
    """
    norm_product = a.norm() * b.norm()
    if norm_product == 0.0:
        return 0.0
    cosine = max(-1.0, min(1.0, a.dot(b) / norm_product))
    return math.acos(cosine)


def segment_point_distance(start: Vec2, end: Vec2, point: Vec2) -> float:
    """Distance from ``point`` to the segment ``start``-``end``."""
    segment = end - start
    length_sq = segment.norm_sq()
    if length_sq == 0.0:
        return start.distance_to(point)
    t = max(0.0, min(1.0, (point - start).dot(segment) / length_sq))
    closest = start + segment * t
    return closest.distance_to(point)
