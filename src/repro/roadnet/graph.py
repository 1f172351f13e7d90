"""Road graphs: intersections connected by road segments.

The geographic and probability protocols (CAR, GVGrid) run shortest-path
and best-reliability queries over road topology, the way they would over a
digital map; the searches live in :mod:`repro.graphs`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.geometry import Vec2
from repro.graphs import bidirectional_dijkstra, dijkstra_length
from repro.roadnet.segments import RoadSegment


class RoadGraph:
    """An undirected graph of intersections and road segments.

    Intersections, their neighbours and :meth:`edges` come out in insertion
    order, so every walk over the graph is reproducible.
    """

    def __init__(self) -> None:
        self._positions: Dict[str, Vec2] = {}
        #: name -> {neighbour -> segment id}, both directions.
        self._adj: Dict[str, Dict[str, int]] = {}
        self._segments: Dict[int, RoadSegment] = {}
        self._endpoints: Dict[int, Tuple[str, str]] = {}

    # ------------------------------------------------------------- structure
    def add_intersection(self, name: str, position: Vec2) -> str:
        """Add an intersection node (idempotent for the same name and position)."""
        known = self._positions.get(name)
        if known is None:
            self._positions[name] = position
            self._adj[name] = {}
        elif known != position:
            raise ValueError(
                f"intersection {name!r} already exists at {known}, not {position}"
            )
        return name

    def add_road(
        self,
        a: str,
        b: str,
        lanes: int = 2,
        speed_limit_mps: float = 13.9,
    ) -> RoadSegment:
        """Connect two existing intersections by a straight road segment."""
        if a not in self._adj or b not in self._adj:
            raise KeyError("both intersections must exist before adding a road")
        if a == b:
            raise ValueError(f"a road cannot join intersection {a!r} to itself")
        if b in self._adj[a]:
            raise ValueError(f"a road already joins {a!r} and {b!r}")
        segment = RoadSegment(
            segment_id=len(self._segments),
            start=self._positions[a],
            end=self._positions[b],
            lanes=lanes,
            speed_limit_mps=speed_limit_mps,
        )
        self._segments[segment.segment_id] = segment
        self._endpoints[segment.segment_id] = (a, b)
        self._adj[a][b] = segment.segment_id
        self._adj[b][a] = segment.segment_id
        return segment

    # ---------------------------------------------------------------- queries
    @property
    def intersections(self) -> List[str]:
        """Names of all intersections."""
        return list(self._positions)

    def edges(self) -> List[Tuple[str, str]]:
        """Every road once, as ``(earlier-added intersection, other end)``."""
        walked = set()
        result: List[Tuple[str, str]] = []
        for name, neighbours in self._adj.items():
            result.extend((name, other) for other in neighbours if other not in walked)
            walked.add(name)
        return result

    @property
    def segments(self) -> List[RoadSegment]:
        """All road segments."""
        return list(self._segments.values())

    def segment(self, segment_id: int) -> RoadSegment:
        """Look up a segment by id."""
        return self._segments[segment_id]

    def segment_endpoints(self, segment_id: int) -> Tuple[str, str]:
        """The intersections a segment joins, in the order it was added."""
        return self._endpoints[segment_id]

    def segment_between(self, a: str, b: str) -> Optional[RoadSegment]:
        """The segment connecting two intersections, if any."""
        segment_id = self._adj.get(a, {}).get(b)
        if segment_id is None:
            return None
        return self._segments[segment_id]

    def position_of(self, name: str) -> Vec2:
        """Position of an intersection."""
        return self._positions[name]

    def neighbors(self, name: str) -> List[str]:
        """Intersections directly connected to ``name``."""
        return list(self._adj[name])

    def nearest_intersection(self, position: Vec2) -> str:
        """The intersection closest to ``position``."""
        if not self._positions:
            raise ValueError("road graph has no intersections")
        positions = self._positions
        return min(positions, key=lambda name: position.distance_to(positions[name]))

    def nearest_segment(self, position: Vec2) -> Optional[RoadSegment]:
        """The road segment closest to ``position`` (None for an empty graph)."""
        if not self._segments:
            return None
        return min(self._segments.values(), key=lambda s: s.distance_to(position))

    def _length(self, a: str, b: str, segment_id: int) -> float:
        return self._segments[segment_id].length

    def shortest_path(self, a: str, b: str) -> List[str]:
        """Shortest path (by road length) between two intersections."""
        return bidirectional_dijkstra(self._adj, a, b, self._length)[1]

    def shortest_path_length(self, a: str, b: str) -> float:
        """Length in metres of the shortest path between two intersections."""
        return dijkstra_length(self._adj, a, b, self._length)

    def best_path(
        self, a: str, b: str, edge_cost: Dict[Tuple[str, str], float]
    ) -> List[str]:
        """Shortest path under an arbitrary per-edge cost.

        ``edge_cost`` maps (intersection, intersection) pairs (either order)
        to a non-negative cost.  Edges missing from the map use their length.
        This is the primitive CAR-style protocols use to pick the road path
        with the best connectivity (lowest ``-log`` connectivity probability).
        """

        def weight(u: str, v: str, segment_id: int) -> float:
            if (u, v) in edge_cost:
                return edge_cost[(u, v)]
            if (v, u) in edge_cost:
                return edge_cost[(v, u)]
            return self._segments[segment_id].length

        return bidirectional_dijkstra(self._adj, a, b, weight)[1]

    def path_segments(self, path: Sequence[str]) -> List[RoadSegment]:
        """Segments along a path of intersection names."""
        result: List[RoadSegment] = []
        for a, b in zip(path, path[1:]):
            segment = self.segment_between(a, b)
            if segment is None:
                raise KeyError(f"no road between {a} and {b}")
            result.append(segment)
        return result
