"""Connectivity-graph statistics of a vehicle population.

A routing path can only exist if the connectivity graph (vehicles as nodes,
an edge whenever two vehicles are within radio range) contains one.  The
fraction of vehicle pairs in the same connected component is therefore an
upper bound on any protocol's delivery ratio, and the way it varies with
traffic density is the root cause of most of Table I's caveats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

from repro.graphs import component_sizes
from repro.mobility.vehicle import VehicleState


def connectivity_graph(
    vehicles: Sequence[VehicleState], communication_range: float = 250.0
) -> Dict[int, Set[int]]:
    """The snapshot connectivity graph of ``vehicles`` at their current positions.

    Maps each vehicle id to the ids of the vehicles within radio range.
    """
    graph: Dict[int, Set[int]] = {vehicle.vid: set() for vehicle in vehicles}
    for i, a in enumerate(vehicles):
        for b in vehicles[i + 1 :]:
            if a.position.distance_to(b.position) <= communication_range:
                graph[a.vid].add(b.vid)
                graph[b.vid].add(a.vid)
    return graph


@dataclass
class ConnectivitySnapshot:
    """Topology statistics at one instant."""

    time: float
    vehicle_count: int
    edge_count: int
    component_count: int
    largest_component_fraction: float
    mean_degree: float
    reachable_pair_fraction: float

    @property
    def is_fully_connected(self) -> bool:
        """True when every vehicle can (multi-hop) reach every other vehicle."""
        return self.component_count <= 1


def snapshot_connectivity(
    vehicles: Sequence[VehicleState],
    communication_range: float = 250.0,
    time: float = 0.0,
) -> ConnectivitySnapshot:
    """Compute a :class:`ConnectivitySnapshot` for the current vehicle positions."""
    graph = connectivity_graph(vehicles, communication_range)
    n = len(graph)
    if n == 0:
        return ConnectivitySnapshot(time, 0, 0, 0, 0.0, 0.0, 0.0)
    edge_count = sum(len(neighbours) for neighbours in graph.values()) // 2
    components = component_sizes(graph)
    largest = max(components)
    reachable_pairs = sum(size * (size - 1) for size in components)
    total_pairs = n * (n - 1)
    return ConnectivitySnapshot(
        time=time,
        vehicle_count=n,
        edge_count=edge_count,
        component_count=len(components),
        largest_component_fraction=largest / n,
        mean_degree=2.0 * edge_count / n,
        reachable_pair_fraction=(reachable_pairs / total_pairs) if total_pairs else 0.0,
    )


def connectivity_over_time(
    mobility,
    duration: float,
    dt: float = 1.0,
    communication_range: float = 250.0,
) -> List[ConnectivitySnapshot]:
    """Step ``mobility`` for ``duration`` seconds and record one snapshot per ``dt``."""
    if dt <= 0:
        raise ValueError("sampling interval must be positive")
    snapshots: List[ConnectivitySnapshot] = []
    steps = int(round(duration / dt))
    now = 0.0
    for _ in range(steps + 1):
        snapshots.append(snapshot_connectivity(mobility.vehicles, communication_range, now))
        mobility.step(dt, now + dt)
        now += dt
    return snapshots


def summarize_snapshots(snapshots: Sequence[ConnectivitySnapshot]) -> Dict[str, float]:
    """Average the headline statistics over a sequence of snapshots."""
    if not snapshots:
        return {
            "mean_reachable_pair_fraction": 0.0,
            "mean_largest_component_fraction": 0.0,
            "mean_degree": 0.0,
            "mean_component_count": 0.0,
            "fully_connected_fraction": 0.0,
        }
    count = len(snapshots)
    return {
        "mean_reachable_pair_fraction": sum(s.reachable_pair_fraction for s in snapshots) / count,
        "mean_largest_component_fraction": sum(
            s.largest_component_fraction for s in snapshots
        )
        / count,
        "mean_degree": sum(s.mean_degree for s in snapshots) / count,
        "mean_component_count": sum(s.component_count for s in snapshots) / count,
        "fully_connected_fraction": sum(1.0 for s in snapshots if s.is_fully_connected) / count,
    }
