"""Shortest paths and components on plain adjacency dicts.

A graph here is a mapping ``node -> {neighbour -> edge data}`` (both
directions present for an undirected edge), walked in insertion order.
Path weights come from a ``weight(u, v, data)`` callable, so one
adjacency serves several costs (road length, CAR's connectivity cost).

The path searches port networkx 3.6.1 (BSD-3-Clause, (c) NetworkX
Developers): ``bidirectional_dijkstra``, ``_dijkstra_multisource`` and
``shortest_simple_paths`` with its ``PathBuffer``.  Their heap keys
``(distance, counter, node)``, strict ``<`` relaxation and meeting-point
rule are kept as they are, so equal-cost paths resolve the same way and
lengths are the same floats.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Collection, Dict, Hashable, Iterable, Iterator, List
from typing import Mapping, Optional, Set, Tuple, TypeVar

N = TypeVar("N", bound=Hashable)
D = TypeVar("D")

Adjacency = Mapping[Any, Mapping[Any, Any]]
Weight = Callable[[Any, Any, Any], float]


class NoPathError(Exception):
    """No path joins the source to the target."""


def undirected(edges: Mapping[Tuple[N, N], D]) -> Dict[N, Dict[N, D]]:
    """Adjacency of the undirected graph with ``edges`` (a repeat overwrites)."""
    adj: Dict[N, Dict[N, D]] = {}
    for (a, b), data in edges.items():
        adj.setdefault(a, {})[b] = data
        adj.setdefault(b, {})[a] = data
    return adj


def edge_data(u: Any, v: Any, data: float) -> float:
    """The weight of an adjacency whose edge data is the weight itself."""
    return data


def bidirectional_dijkstra(
    adj: Adjacency,
    source: Any,
    target: Any,
    weight: Weight,
    ignore_nodes: Collection[Any] = (),
    ignore_edges: Collection[Tuple[Any, Any]] = (),
) -> Tuple[float, List[Any]]:
    """``(length, path)`` of a least-weight path from ``source`` to ``target``.

    Nodes in ``ignore_nodes`` and edges in ``ignore_edges`` (either
    orientation) are skipped.  Raises ``KeyError`` for an unknown endpoint
    and :class:`NoPathError` when the target is unreachable.
    """
    if ignore_nodes and (source in ignore_nodes or target in ignore_nodes):
        raise NoPathError(f"no path between {source} and {target}")
    if source not in adj:
        raise KeyError(f"source {source!r} is not in the graph")
    if target not in adj:
        raise KeyError(f"target {target!r} is not in the graph")
    if source == target:
        return (0, [source])
    dists: List[Dict[Any, float]] = [{}, {}]
    preds: List[Dict[Any, Any]] = [{source: None}, {target: None}]
    seen: List[Dict[Any, float]] = [{source: 0}, {target: 0}]
    fringe: List[List[Tuple[float, int, Any]]] = [[], []]
    c = count()
    heappush(fringe[0], (0, next(c), source))
    heappush(fringe[1], (0, next(c), target))
    finaldist: Optional[float] = None
    meetnode = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heappop(fringe[direction])
        if v in dists[direction]:
            continue
        dists[direction][v] = dist
        if v in dists[1 - direction]:
            forward: List[Any] = []
            node = meetnode
            while node is not None:
                forward.append(node)
                node = preds[0][node]
            forward.reverse()
            node = preds[1][meetnode]
            while node is not None:
                forward.append(node)
                node = preds[1][node]
            assert finaldist is not None
            return (finaldist, forward)
        for w, data in adj[v].items():
            if w in ignore_nodes:
                continue
            if ignore_edges and ((v, w) in ignore_edges or (w, v) in ignore_edges):
                continue
            # The backward search weighs the edge in its forward orientation.
            cost = weight(v, w, data) if direction == 0 else weight(w, v, data)
            vw_length = dist + cost
            if w in dists[direction]:
                if vw_length < dists[direction][w]:
                    raise ValueError("contradictory paths found: negative weights?")
            elif w not in seen[direction] or vw_length < seen[direction][w]:
                seen[direction][w] = vw_length
                heappush(fringe[direction], (vw_length, next(c), w))
                preds[direction][w] = v
                if w in seen[1 - direction]:
                    candidate = vw_length + seen[1 - direction][w]
                    if finaldist is None or finaldist > candidate:
                        finaldist, meetnode = candidate, w
    raise NoPathError(f"no path between {source} and {target}")


def dijkstra_length(adj: Adjacency, source: Any, target: Any, weight: Weight) -> float:
    """Least path weight from ``source`` to ``target`` by one-directional Dijkstra.

    Sums the edges in the order a forward search settles them, so the float
    can differ in its last bits from :func:`bidirectional_dijkstra`'s length.
    """
    if source not in adj:
        raise KeyError(f"source {source!r} is not in the graph")
    if source == target:
        return 0
    dist: Dict[Any, float] = {}
    seen: Dict[Any, float] = {source: 0}
    c = count()
    fringe: List[Tuple[float, int, Any]] = [(0, next(c), source)]
    while fringe:
        dist_v, _, v = heappop(fringe)
        if v in dist:
            continue
        dist[v] = dist_v
        if v == target:
            return dist_v
        for u, data in adj[v].items():
            vu_dist = dist_v + weight(v, u, data)
            if u in dist:
                if vu_dist < dist[u]:
                    raise ValueError("contradictory paths found: negative weights?")
            elif u not in seen or vu_dist < seen[u]:
                seen[u] = vu_dist
                heappush(fringe, (vu_dist, next(c), u))
    raise NoPathError(f"no path between {source} and {target}")


def shortest_simple_paths(
    adj: Adjacency, source: Any, target: Any, weight: Weight
) -> Iterator[List[Any]]:
    """Loop-free paths from ``source`` to ``target`` in increasing weight (Yen).

    Equal weights come out in the order the paths were found.  The first
    ``next()`` raises :class:`NoPathError` when the target is unreachable.
    """

    def length_of(path: List[Any]) -> float:
        return sum(weight(u, v, adj[u][v]) for u, v in zip(path, path[1:]))

    found: List[List[Any]] = []
    buffer: List[Tuple[float, int, List[Any]]] = []
    buffered: Set[Tuple[Any, ...]] = set()
    counter = count()

    def push(cost: float, path: List[Any]) -> None:
        key = tuple(path)
        if key not in buffered:
            heappush(buffer, (cost, next(counter), path))
            buffered.add(key)

    prev_path: List[Any] = []
    while True:
        if not prev_path:
            length, path = bidirectional_dijkstra(adj, source, target, weight)
            push(length, path)
        else:
            ignore_nodes: Set[Any] = set()
            ignore_edges: Set[Tuple[Any, Any]] = set()
            for i in range(1, len(prev_path)):
                root = prev_path[:i]
                root_length = length_of(root)
                for path in found:
                    if path[:i] == root:
                        ignore_edges.add((path[i - 1], path[i]))
                try:
                    length, spur = bidirectional_dijkstra(
                        adj, root[-1], target, weight, ignore_nodes, ignore_edges
                    )
                    push(root_length + length, root[:-1] + spur)
                except NoPathError:
                    pass
                ignore_nodes.add(root[-1])
        if not buffer:
            return
        path = heappop(buffer)[2]
        buffered.remove(tuple(path))
        yield path
        found.append(path)
        prev_path = path


def component_sizes(adj: Mapping[N, Iterable[N]]) -> List[int]:
    """Sizes of the connected components of an undirected graph."""
    sizes: List[int] = []
    visited: Set[N] = set()
    for start in adj:
        if start in visited:
            continue
        visited.add(start)
        frontier = [start]
        size = 0
        while frontier:
            node = frontier.pop()
            size += 1
            for neighbour in adj[node]:
                if neighbour not in visited:
                    visited.add(neighbour)
                    frontier.append(neighbour)
        sizes.append(size)
    return sizes
