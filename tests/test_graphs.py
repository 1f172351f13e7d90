"""``repro.graphs`` against networkx, the implementation it ports.

networkx is a test-only oracle: small random graphs with a handful of edge
weights (so equal-cost paths are common) must give the same paths, the same
length floats, the same Yen order and the same component sizes.
"""

from __future__ import annotations

from itertools import islice

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.simple_paths import _bidirectional_dijkstra

from repro.geometry import Vec2
from repro.graphs import (
    NoPathError,
    bidirectional_dijkstra,
    component_sizes,
    dijkstra_length,
    edge_data,
    shortest_simple_paths,
    undirected,
)
from repro.roadnet.graph import RoadGraph

NO_PATH = "no path"

#: Integer weights tie often; the decimals make the summation order visible.
WEIGHTS = st.sampled_from([1, 2, 3, 0.1, 0.2, 0.3])

EDGES = st.dictionaries(
    st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda e: e[0] != e[1]),
    WEIGHTS,
    min_size=1,
    max_size=18,
)


def _both(edges):
    graph = nx.Graph()
    for (a, b), weight in edges.items():
        graph.add_edge(a, b, weight=weight)
    return undirected(edges), graph


def _outcome(call, no_path):
    try:
        return call()
    except no_path:
        return NO_PATH


def _endpoints(data, adj):
    nodes = sorted(adj)
    return data.draw(st.sampled_from(nodes)), data.draw(st.sampled_from(nodes))


@given(EDGES, st.data())
@settings(max_examples=200, deadline=None)
def test_bidirectional_dijkstra_matches_networkx(edges, data):
    adj, graph = _both(edges)
    source, target = _endpoints(data, adj)
    ours = _outcome(lambda: bidirectional_dijkstra(adj, source, target, edge_data), NoPathError)
    theirs = _outcome(
        lambda: nx.bidirectional_dijkstra(graph, source, target, weight="weight"),
        nx.NetworkXNoPath,
    )
    assert ours == theirs


@given(EDGES, st.data())
@settings(max_examples=200, deadline=None)
def test_ignored_nodes_and_edges_match_networkx(edges, data):
    adj, graph = _both(edges)
    source, target = _endpoints(data, adj)
    ignore_nodes = set(data.draw(st.lists(st.sampled_from(sorted(adj)), max_size=3)))
    ignore_edges = set(data.draw(st.lists(st.sampled_from(sorted(edges)), max_size=4)))
    ours = _outcome(
        lambda: bidirectional_dijkstra(
            adj, source, target, edge_data, ignore_nodes, ignore_edges
        ),
        NoPathError,
    )
    theirs = _outcome(
        lambda: _bidirectional_dijkstra(
            graph,
            source,
            target,
            weight="weight",
            ignore_nodes=ignore_nodes,
            ignore_edges=ignore_edges,
        ),
        nx.NetworkXNoPath,
    )
    assert ours == theirs


@given(EDGES, st.data())
@settings(max_examples=200, deadline=None)
def test_dijkstra_length_is_networkx_float(edges, data):
    adj, graph = _both(edges)
    source, target = _endpoints(data, adj)
    ours = _outcome(lambda: dijkstra_length(adj, source, target, edge_data), NoPathError)
    theirs = _outcome(
        lambda: nx.shortest_path_length(graph, source, target, weight="weight"),
        nx.NetworkXNoPath,
    )
    assert repr(ours) == repr(theirs)


@given(EDGES, st.data())
@settings(max_examples=100, deadline=None)
def test_yen_paths_come_in_networkx_order(edges, data):
    adj, graph = _both(edges)
    source, target = _endpoints(data, adj)
    ours = _outcome(
        lambda: list(islice(shortest_simple_paths(adj, source, target, edge_data), 8)),
        NoPathError,
    )
    theirs = _outcome(
        lambda: list(islice(nx.shortest_simple_paths(graph, source, target, "weight"), 8)),
        nx.NetworkXNoPath,
    )
    assert ours == theirs


@given(EDGES, st.lists(st.integers(8, 11), max_size=3))
@settings(max_examples=100, deadline=None)
def test_component_sizes_match_networkx(edges, isolated):
    adj, graph = _both(edges)
    for node in isolated:
        adj.setdefault(node, {})
        graph.add_node(node)
    assert component_sizes(adj) == [len(c) for c in nx.connected_components(graph)]


@given(
    st.permutations([f"I{i}" for i in range(7)]),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=16),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_road_graph_walks_and_paths_match_networkx(names, pairs, data):
    roads = RoadGraph()
    graph = nx.Graph()
    for index, name in enumerate(names):
        position = Vec2(100.0 * (index % 3), 100.0 * (index // 3))
        roads.add_intersection(name, position)
        graph.add_node(name)
    for i, j in pairs:
        a, b = names[i], names[j]
        if a == b or graph.has_edge(a, b):
            continue
        segment = roads.add_road(a, b)
        graph.add_edge(a, b, length=segment.length)
    assert roads.intersections == list(graph.nodes)
    assert roads.edges() == list(graph.edges)
    for name in names:
        assert roads.neighbors(name) == list(graph.neighbors(name))

    source = data.draw(st.sampled_from(names))
    target = data.draw(st.sampled_from(names))
    edge_cost = {edge: data.draw(WEIGHTS) for edge in graph.edges if data.draw(st.booleans())}

    def weight(u, v, attributes):
        return edge_cost.get((u, v), edge_cost.get((v, u), attributes["length"]))

    assert _outcome(lambda: roads.shortest_path(source, target), NoPathError) == _outcome(
        lambda: nx.shortest_path(graph, source, target, weight="length"), nx.NetworkXNoPath
    )
    assert _outcome(
        lambda: repr(roads.shortest_path_length(source, target)), NoPathError
    ) == _outcome(
        lambda: repr(nx.shortest_path_length(graph, source, target, weight="length")),
        nx.NetworkXNoPath,
    )
    assert _outcome(lambda: roads.best_path(source, target, edge_cost), NoPathError) == _outcome(
        lambda: nx.shortest_path(graph, source, target, weight=weight), nx.NetworkXNoPath
    )
