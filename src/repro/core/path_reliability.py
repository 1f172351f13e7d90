"""Composition of link metrics into path metrics.

Two composition rules recur throughout the survey:

* The lifetime of a path is the *minimum* lifetime of its links
  (Sec. IV.A.1) -- selecting the best path is therefore a widest
  (maximum-bottleneck) path problem.
* The reliability of a path is the *product* of its links' availability
  probabilities (Sec. VII) -- selecting the best path is a shortest-path
  problem on ``-log`` probabilities.

Both selections are implemented here on top of :mod:`repro.graphs` so
every probability/mobility protocol and the benchmarks share one
implementation.
"""

from __future__ import annotations

import heapq
import math
from itertools import islice
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.graphs import (
    NoPathError,
    bidirectional_dijkstra,
    dijkstra_length,
    edge_data,
    shortest_simple_paths,
    undirected,
)

LinkKey = Tuple[Hashable, Hashable]


def path_lifetime(link_lifetimes: Sequence[float]) -> float:
    """Path lifetime = minimum link lifetime (0 for an empty path)."""
    if not link_lifetimes:
        return 0.0
    return min(link_lifetimes)


def path_reliability(link_probabilities: Sequence[float]) -> float:
    """Path reliability = product of link availability probabilities."""
    result = 1.0
    for probability in link_probabilities:
        if probability < 0.0 or probability > 1.0:
            raise ValueError(f"link probability {probability} outside [0, 1]")
        result *= probability
    return result


def widest_lifetime_path(
    links: Dict[LinkKey, float], source: Hashable, destination: Hashable
) -> Tuple[List[Hashable], float]:
    """Path maximising the minimum link lifetime.

    Args:
        links: Mapping of (node, node) to the link's (predicted) lifetime.
        source: Path start node.
        destination: Path end node.

    Returns:
        ``(path, bottleneck_lifetime)``.  Raises ``NoPathError`` when the
        destination is unreachable.
    """
    graph = undirected(links)
    if source not in graph or destination not in graph:
        raise NoPathError(f"no path between {source} and {destination}")
    # Binary search over distinct lifetimes would be faster asymptotically;
    # a modified Dijkstra (maximise the minimum) is simpler and fast enough.
    best_bottleneck: Dict[Hashable, float] = {source: math.inf}
    predecessor: Dict[Hashable, Hashable] = {}
    heap: List[Tuple[float, Hashable]] = [(-math.inf, source)]
    visited: set = set()
    while heap:
        negative_bottleneck, node = heapq.heappop(heap)
        bottleneck = -negative_bottleneck
        if node in visited:
            continue
        visited.add(node)
        if node == destination:
            break
        for neighbour, lifetime in graph[node].items():
            if neighbour in visited:
                continue
            candidate = min(bottleneck, lifetime)
            if candidate > best_bottleneck.get(neighbour, -math.inf):
                best_bottleneck[neighbour] = candidate
                predecessor[neighbour] = node
                heapq.heappush(heap, (-candidate, neighbour))
    if destination not in best_bottleneck:
        raise NoPathError(f"no path between {source} and {destination}")
    path = [destination]
    while path[-1] != source:
        path.append(predecessor[path[-1]])
    path.reverse()
    return path, best_bottleneck[destination]


def most_reliable_path(
    links: Dict[LinkKey, float], source: Hashable, destination: Hashable
) -> Tuple[List[Hashable], float]:
    """Path maximising the product of link probabilities.

    Args:
        links: Mapping of (node, node) to the link availability probability.
        source: Path start node.
        destination: Path end node.

    Returns:
        ``(path, reliability)``.  Raises ``NoPathError`` when no path with
        strictly positive reliability exists.
    """
    costs: Dict[LinkKey, float] = {}
    for link, probability in links.items():
        if probability < 0.0 or probability > 1.0:
            raise ValueError(f"link probability {probability} outside [0, 1]")
        if probability > 0.0:
            costs[link] = -math.log(probability)
    graph = undirected(costs)
    if source not in graph or destination not in graph:
        raise NoPathError(f"no path between {source} and {destination}")
    path = bidirectional_dijkstra(graph, source, destination, edge_data)[1]
    cost = dijkstra_length(graph, source, destination, edge_data)
    return path, math.exp(-cost)


def minimum_delay_path_with_reliability(
    delay_links: Dict[LinkKey, float],
    reliability_links: Dict[LinkKey, float],
    source: Hashable,
    destination: Hashable,
    min_reliability: float,
) -> Optional[Tuple[List[Hashable], float, float]]:
    """Smallest-delay path whose reliability meets a threshold (GVGrid-style QoS).

    Enumerate paths in increasing delay order (Yen's algorithm) and return
    the first one whose reliability is at least ``min_reliability``.  Returns
    ``None`` when no such path exists among the first 50 candidates, or no
    path at all.
    """
    graph = undirected(delay_links)
    if source not in graph or destination not in graph:
        return None

    def reliability_of(path: List[Hashable]) -> float:
        probabilities = []
        for a, b in zip(path, path[1:]):
            probability = reliability_links.get((a, b), reliability_links.get((b, a), 0.0))
            probabilities.append(probability)
        return path_reliability(probabilities)

    candidates = shortest_simple_paths(graph, source, destination, edge_data)
    try:
        for path in islice(candidates, 50):
            reliability = reliability_of(path)
            if reliability >= min_reliability:
                delay = sum(graph[a][b] for a, b in zip(path, path[1:]))
                return path, delay, reliability
    except NoPathError:
        return None
    return None
