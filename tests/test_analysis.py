"""Tests for the topology-analysis package (connectivity and link dynamics)."""

import pytest

from repro.analysis.connectivity import (
    connectivity_graph,
    connectivity_over_time,
    snapshot_connectivity,
    summarize_snapshots,
)
from repro.analysis.link_dynamics import (
    LinkDurationTracker,
    measure_link_durations,
    prediction_error_statistics,
)
from repro.geometry import Vec2
from repro.mobility.generator import TrafficDensity, make_highway_scenario
from repro.mobility.vehicle import VehicleState


def _vehicle(vid, x, y=0.0, speed=0.0, heading=0.0):
    return VehicleState(vid=vid, position=Vec2(x, y), speed=speed, heading=heading)


class TestConnectivityGraph:
    def test_edges_follow_radio_range(self):
        vehicles = [_vehicle(0, 0), _vehicle(1, 200), _vehicle(2, 600)]
        graph = connectivity_graph(vehicles, communication_range=250.0)
        assert 1 in graph[0]
        assert 2 not in graph[1]
        assert len(graph) == 3

    def test_snapshot_statistics_for_a_partitioned_line(self):
        vehicles = [_vehicle(0, 0), _vehicle(1, 200), _vehicle(2, 1000), _vehicle(3, 1200)]
        snapshot = snapshot_connectivity(vehicles, communication_range=250.0, time=5.0)
        assert snapshot.time == 5.0
        assert snapshot.vehicle_count == 4
        assert snapshot.component_count == 2
        assert snapshot.largest_component_fraction == pytest.approx(0.5)
        # 2 reachable ordered pairs per component out of 12 possible.
        assert snapshot.reachable_pair_fraction == pytest.approx(4 / 12)
        assert not snapshot.is_fully_connected

    def test_snapshot_of_connected_cluster(self):
        vehicles = [_vehicle(i, i * 100) for i in range(5)]
        snapshot = snapshot_connectivity(vehicles, communication_range=150.0)
        assert snapshot.is_fully_connected
        assert snapshot.reachable_pair_fraction == pytest.approx(1.0)

    def test_empty_population(self):
        snapshot = snapshot_connectivity([], communication_range=250.0)
        assert snapshot.vehicle_count == 0
        assert snapshot.reachable_pair_fraction == 0.0

    def test_connectivity_over_time_and_summary(self):
        mobility = make_highway_scenario(TrafficDensity.SPARSE, seed=3, max_vehicles=20)
        snapshots = connectivity_over_time(mobility, duration=10.0, dt=2.0)
        assert len(snapshots) == 6
        summary = summarize_snapshots(snapshots)
        assert 0.0 <= summary["mean_reachable_pair_fraction"] <= 1.0
        assert summary["mean_degree"] >= 0.0

    def test_density_improves_connectivity(self):
        sparse = make_highway_scenario(TrafficDensity.SPARSE, seed=4, max_vehicles=200)
        congested = make_highway_scenario(TrafficDensity.CONGESTED, seed=4, max_vehicles=200)
        sparse_frac = snapshot_connectivity(sparse.vehicles).reachable_pair_fraction
        congested_frac = snapshot_connectivity(congested.vehicles).reachable_pair_fraction
        assert congested_frac > sparse_frac

    def test_invalid_interval_rejected(self):
        mobility = make_highway_scenario(TrafficDensity.SPARSE, seed=1, max_vehicles=5)
        with pytest.raises(ValueError):
            connectivity_over_time(mobility, duration=5.0, dt=0.0)


class TestLinkDurationTracker:
    def test_manual_link_break_is_observed(self):
        tracker = LinkDurationTracker(communication_range=250.0)
        a = _vehicle(0, 0, speed=0.0)
        b = _vehicle(1, 200, speed=0.0)
        tracker.observe([a, b], now=0.0)
        assert tracker.active_links == 1
        b.position = Vec2(600, 0)
        tracker.observe([a, b], now=10.0)
        assert tracker.active_links == 0
        assert len(tracker.observations) == 1
        observation = tracker.observations[0]
        assert observation.actual_lifetime == pytest.approx(10.0)

    def test_measure_link_durations_on_highway(self):
        mobility = make_highway_scenario(TrafficDensity.NORMAL, seed=6, max_vehicles=80)
        tracker = measure_link_durations(mobility, duration=60.0, dt=1.0)
        assert tracker.observations
        same = tracker.durations(same_direction=True)
        opposite = tracker.durations(same_direction=False)
        assert same and opposite
        # Fig. 3 / Fig. 4 relationship: same-direction links last longer.
        assert sum(same) / len(same) > sum(opposite) / len(opposite)

    def test_prediction_error_statistics(self):
        mobility = make_highway_scenario(TrafficDensity.NORMAL, seed=7, max_vehicles=30)
        tracker = measure_link_durations(mobility, duration=40.0, dt=1.0)
        stats = prediction_error_statistics(tracker.observations)
        assert stats["links"] == len(tracker.observations)
        assert stats["mean_relative_error"] >= 0.0
        assert stats["mean_actual_lifetime_s"] > 0.0

    def test_prediction_error_statistics_empty(self):
        stats = prediction_error_statistics([])
        assert stats["links"] == 0.0
        assert stats["mean_relative_error"] == 0.0
