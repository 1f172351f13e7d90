"""Tests for road graphs, segments, zones and RSU placement."""

import pytest

from repro.geometry import Vec2
from repro.roadnet.graph import RoadGraph
from repro.roadnet.grid import build_highway_graph, build_manhattan_graph, intersection_name
from repro.roadnet.rsu_placement import (
    coverage_fraction,
    place_along_highway,
    place_at_intersections,
    place_on_grid,
    sample_highway_points,
)
from repro.roadnet.segments import RoadSegment
from repro.roadnet.zones import CorridorZone, GridPartition, RectZone


class TestRoadSegment:
    def test_length_direction_midpoint(self):
        segment = RoadSegment(0, Vec2(0, 0), Vec2(100, 0))
        assert segment.length == pytest.approx(100.0)
        assert segment.direction == Vec2(1, 0)
        assert segment.midpoint == Vec2(50, 0)

    def test_point_at_clamps_fraction(self):
        segment = RoadSegment(0, Vec2(0, 0), Vec2(100, 0))
        assert segment.point_at(0.25) == Vec2(25, 0)
        assert segment.point_at(-1.0) == Vec2(0, 0)
        assert segment.point_at(2.0) == Vec2(100, 0)

    def test_distance_and_containment(self):
        segment = RoadSegment(0, Vec2(0, 0), Vec2(100, 0))
        assert segment.distance_to(Vec2(50, 8)) == pytest.approx(8.0)
        assert segment.contains(Vec2(50, 8), lateral_tolerance=10.0)
        assert not segment.contains(Vec2(50, 30), lateral_tolerance=10.0)

    def test_projection_fraction(self):
        segment = RoadSegment(0, Vec2(0, 0), Vec2(100, 0))
        assert segment.projection_fraction(Vec2(30, 5)) == pytest.approx(0.3)
        assert segment.projection_fraction(Vec2(-50, 0)) == 0.0


class TestRoadGraph:
    def _simple_graph(self):
        graph = RoadGraph()
        graph.add_intersection("A", Vec2(0, 0))
        graph.add_intersection("B", Vec2(100, 0))
        graph.add_intersection("C", Vec2(100, 100))
        graph.add_intersection("D", Vec2(0, 100))
        graph.add_road("A", "B")
        graph.add_road("B", "C")
        graph.add_road("C", "D")
        graph.add_road("D", "A")
        return graph

    def test_shortest_path_prefers_short_side(self):
        graph = self._simple_graph()
        assert graph.shortest_path("A", "C") in (["A", "B", "C"], ["A", "D", "C"])
        assert graph.shortest_path_length("A", "C") == pytest.approx(200.0)

    def test_nearest_intersection_and_segment(self):
        graph = self._simple_graph()
        assert graph.nearest_intersection(Vec2(10, -5)) == "A"
        nearest = graph.nearest_segment(Vec2(50, 2))
        assert nearest is not None
        assert nearest.distance_to(Vec2(50, 2)) == pytest.approx(2.0)

    def test_best_path_follows_custom_costs(self):
        graph = self._simple_graph()
        # Make the A-B edge extremely expensive: the path must go the long way.
        costly = {("A", "B"): 10_000.0}
        assert graph.best_path("A", "C", costly) == ["A", "D", "C"]

    def test_segment_between_and_path_segments(self):
        graph = self._simple_graph()
        assert graph.segment_between("A", "B") is not None
        assert graph.segment_between("A", "C") is None
        segments = graph.path_segments(["A", "B", "C"])
        assert len(segments) == 2

    def test_add_road_requires_existing_intersections(self):
        graph = RoadGraph()
        graph.add_intersection("A", Vec2(0, 0))
        with pytest.raises(KeyError):
            graph.add_road("A", "Z")

    def test_repeated_road_and_self_loop_rejected(self):
        graph = self._simple_graph()
        with pytest.raises(ValueError, match="already joins"):
            graph.add_road("A", "B")
        with pytest.raises(ValueError, match="already joins"):
            graph.add_road("B", "A")
        with pytest.raises(ValueError, match="itself"):
            graph.add_road("A", "A")
        assert len(graph.segments) == 4

    def test_moving_an_intersection_rejected(self):
        graph = self._simple_graph()
        assert graph.add_intersection("A", Vec2(0, 0)) == "A"
        with pytest.raises(ValueError, match="already exists"):
            graph.add_intersection("A", Vec2(5, 0))
        assert graph.position_of("A") == Vec2(0, 0)
        assert graph.intersections == ["A", "B", "C", "D"]

    def test_edges_walk_each_road_once_in_insertion_order(self):
        graph = self._simple_graph()
        assert graph.edges() == [("A", "B"), ("A", "D"), ("B", "C"), ("C", "D")]
        assert graph.neighbors("A") == ["B", "D"]
        segment = graph.segment_between("D", "A")
        assert segment is not None
        assert graph.segment_endpoints(segment.segment_id) == ("D", "A")


class TestGridBuilders:
    def test_manhattan_graph_counts(self):
        graph = build_manhattan_graph(3, 2, 200.0)
        assert len(graph.intersections) == 4 * 3
        # Streets: horizontal 3 per row * 3 rows + vertical 2 per column * 4 columns.
        assert len(graph.segments) == 3 * 3 + 2 * 4

    def test_manhattan_graph_connectivity(self):
        graph = build_manhattan_graph(4, 4, 100.0)
        path = graph.shortest_path(intersection_name(0, 0), intersection_name(4, 4))
        assert len(path) == 9  # Manhattan distance of 8 blocks -> 9 intersections

    def test_manhattan_requires_positive_blocks(self):
        with pytest.raises(ValueError):
            build_manhattan_graph(0, 3)

    def test_highway_graph_is_a_chain(self):
        graph = build_highway_graph(5000.0, interchange_spacing_m=1000.0)
        assert len(graph.intersections) == 6
        assert len(graph.segments) == 5


class TestZones:
    def test_rect_zone_contains_and_center(self):
        zone = RectZone(0, 0, 100, 50)
        assert zone.contains(Vec2(50, 25))
        assert not zone.contains(Vec2(150, 25))
        assert zone.center == Vec2(50, 25)
        assert zone.area == pytest.approx(5000.0)

    def test_rect_zone_expand(self):
        zone = RectZone(0, 0, 10, 10).expanded(5)
        assert zone.contains(Vec2(-3, -3))

    def test_corridor_zone(self):
        corridor = CorridorZone(Vec2(0, 0), Vec2(1000, 0), width=100.0)
        assert corridor.contains(Vec2(500, 50))
        assert not corridor.contains(Vec2(500, 150))
        assert not corridor.contains(Vec2(1500, 0))

    def test_grid_partition_cells(self):
        grid = GridPartition(100.0)
        assert grid.cell_of(Vec2(50, 50)) == (0, 0)
        assert grid.cell_of(Vec2(250, 50)) == (2, 0)
        assert grid.cell_center((2, 0)) == Vec2(250, 50)
        assert grid.same_cell(Vec2(10, 10), Vec2(90, 90))
        assert not grid.same_cell(Vec2(10, 10), Vec2(110, 10))

    def test_grid_partition_distance_and_zone(self):
        grid = GridPartition(100.0)
        assert grid.cell_distance((0, 0), (3, -2)) == 3
        zone = grid.cell_zone((1, 1))
        assert zone.contains(Vec2(150, 150))

    def test_cells_between_traverses_the_line(self):
        grid = GridPartition(100.0)
        cells = grid.cells_between(Vec2(50, 50), Vec2(450, 50))
        assert cells[0] == (0, 0)
        assert cells[-1] == (4, 0)
        assert len(cells) == 5

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            GridPartition(0.0)


class TestRsuPlacement:
    def test_highway_placement_spacing(self):
        positions = place_along_highway(2000.0, 500.0)
        assert len(positions) == 4
        xs = [p.x for p in positions]
        assert xs == [250.0, 750.0, 1250.0, 1750.0]

    def test_no_rsus_for_non_positive_spacing(self):
        assert place_along_highway(2000.0, 0.0) == []
        assert place_along_highway(2000.0, float("inf")) == []

    def test_intersection_placement_every_k(self):
        graph = build_manhattan_graph(2, 2, 100.0)
        all_positions = place_at_intersections(graph, every_k=1)
        every_third = place_at_intersections(graph, every_k=3)
        assert len(all_positions) == 9
        assert len(every_third) == 3

    def test_grid_placement_covers_area(self):
        positions = place_on_grid(1000.0, 1000.0, 500.0)
        assert len(positions) == 4

    def test_coverage_fraction_monotone_in_rsu_count(self):
        points = sample_highway_points(2000.0, step_m=100.0)
        sparse = place_along_highway(2000.0, 1000.0)
        dense = place_along_highway(2000.0, 400.0)
        cov_none = coverage_fraction([], points, 250.0)
        cov_sparse = coverage_fraction(sparse, points, 250.0)
        cov_dense = coverage_fraction(dense, points, 250.0)
        assert cov_none == 0.0
        assert cov_none < cov_sparse < cov_dense <= 1.0
