"""Unit tests for the uniform-grid spatial index."""

import random

import pytest

from repro.geometry import Vec2
from repro.sim.spatial import UniformGridIndex


def brute_force(points, position, radius):
    """Ids whose exact position is within ``radius`` of ``position``."""
    return {
        item_id
        for item_id, point in points.items()
        if position.distance_to(point) <= radius
    }


class TestUniformGridIndex:
    def test_query_is_superset_of_exact_matches(self):
        rng = random.Random(7)
        index = UniformGridIndex(cell_size_m=100.0)
        points = {}
        for item_id in range(200):
            point = Vec2(rng.uniform(-1500, 1500), rng.uniform(-1500, 1500))
            points[item_id] = point
            index.insert(item_id, point)
        for _ in range(50):
            centre = Vec2(rng.uniform(-1500, 1500), rng.uniform(-1500, 1500))
            radius = rng.uniform(10, 400)
            candidates = set(index.query_ids(centre, radius))
            assert brute_force(points, centre, radius) <= candidates

    def test_query_returns_no_duplicates(self):
        index = UniformGridIndex(cell_size_m=50.0)
        for item_id in range(30):
            index.insert(item_id, Vec2(item_id * 10.0, 0.0))
        ids = index.query_ids(Vec2(100.0, 0.0), 500.0)
        assert len(ids) == len(set(ids))

    def test_update_moves_item_between_cells(self):
        index = UniformGridIndex(cell_size_m=10.0)
        index.insert(1, Vec2(0.0, 0.0))
        index.update(1, Vec2(1000.0, 1000.0))
        assert 1 not in index.query_ids(Vec2(0.0, 0.0), 5.0)
        assert 1 in index.query_ids(Vec2(1000.0, 1000.0), 5.0)

    def test_update_within_cell_is_a_no_op_move(self):
        index = UniformGridIndex(cell_size_m=100.0)
        index.insert(1, Vec2(10.0, 10.0))
        index.update(1, Vec2(20.0, 20.0))
        assert 1 in index.query_ids(Vec2(15.0, 15.0), 50.0)
        assert len(index) == 1

    def test_slack_widens_queries_to_cover_drift(self):
        # An item indexed at x=0 but queried after drifting 80 m must still
        # be found when the slack covers the drift.
        index = UniformGridIndex(cell_size_m=50.0, slack_m=100.0)
        index.insert(1, Vec2(0.0, 0.0))
        assert 1 in index.query_ids(Vec2(80.0, 0.0), 10.0)

    def test_remove_and_clear(self):
        index = UniformGridIndex(cell_size_m=50.0)
        index.insert(1, Vec2(0.0, 0.0))
        index.insert(2, Vec2(10.0, 0.0))
        index.remove(1)
        index.remove(99)  # unknown ids are ignored
        assert set(index.query_ids(Vec2(0.0, 0.0), 100.0)) == {2}
        index.clear()
        assert len(index) == 0
        assert index.query_ids(Vec2(0.0, 0.0), 100.0) == []

    def test_duplicate_insert_rejected(self):
        index = UniformGridIndex(cell_size_m=50.0)
        index.insert(1, Vec2(0.0, 0.0))
        with pytest.raises(ValueError):
            index.insert(1, Vec2(5.0, 5.0))

    def test_negative_coordinates(self):
        index = UniformGridIndex(cell_size_m=25.0)
        index.insert(1, Vec2(-310.0, -470.0))
        assert 1 in index.query_ids(Vec2(-300.0, -460.0), 20.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            UniformGridIndex(cell_size_m=0.0)
        with pytest.raises(ValueError):
            UniformGridIndex(cell_size_m=10.0, slack_m=-1.0)
