"""Property tests: the grid backend is indistinguishable from the oracle.

Random topologies, random traffic, several seeds -- with the deterministic
unit-disk channel the uniform-grid index must reproduce the linear scan's
behaviour exactly: identical event traces, identical neighbourhoods.
"""

import random

import pytest

from repro.geometry import Vec2
from tests.helpers import build_static_network, run_data_flow
from tests.sim.test_medium_backends import normalized_records


def random_positions(seed, count=60, side=2000.0):
    rng = random.Random(seed)
    return [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(count)]


def flooded_run(seed, oracle):
    """A flooding storm over a random topology, traced."""
    sim, network, stats, nodes = build_static_network(
        random_positions(seed),
        protocol="Flooding",
        seed=seed,
        trace=True,
        oracle=oracle,
    )
    network.start()
    run_data_flow(sim, stats, nodes[0], nodes[-1], packets=3, start=1.0, until=6.0)
    return network.trace, stats


class TestTraceEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_flooding_traces_identical_across_backends(self, seed):
        grid_trace, grid_stats = flooded_run(seed, oracle=False)
        linear_trace, linear_stats = flooded_run(seed, oracle=True)
        assert normalized_records(grid_trace) == normalized_records(linear_trace)
        assert grid_stats.summary() == linear_stats.summary()


class TestNeighborhoodEquivalence:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_nodes_within_matches_oracle(self, seed):
        rng = random.Random(seed)
        positions = random_positions(seed, count=80, side=3000.0)
        _, grid_net, _, _ = build_static_network(positions)
        _, linear_net, _, _ = build_static_network(positions, oracle=True)
        for _ in range(40):
            centre = Vec2(rng.uniform(-200, 3200), rng.uniform(-200, 3200))
            radius = rng.uniform(0.0, 900.0)
            grid_ids = [n.node_id for n in grid_net.nodes_within(centre, radius)]
            linear_ids = [n.node_id for n in linear_net.nodes_within(centre, radius)]
            assert grid_ids == linear_ids

    @pytest.mark.parametrize("seed", [21, 22])
    def test_nodes_within_tracks_mobility_refresh(self, seed):
        # Vehicles drift with constant velocity; after each mobility step the
        # refreshed grid must agree with the oracle on live neighbourhoods.
        rng = random.Random(seed)
        positions = random_positions(seed, count=40, side=1500.0)
        velocities = [
            (rng.uniform(-30, 30), rng.uniform(-30, 30)) for _ in positions
        ]

        def build(oracle):
            sim, network, stats, nodes = build_static_network(
                positions,
                velocities=velocities,
                seed=seed,
                oracle=oracle,
            )
            network.mobility = type("NullMobility", (), {"step": lambda *a, **k: None})()
            network.start()
            return sim, network

        grid_sim, grid_net = build(oracle=False)
        linear_sim, linear_net = build(oracle=True)
        for until in (0.5, 1.0, 2.5, 5.0, 10.0):
            grid_sim.run(until=until)
            linear_sim.run(until=until)
            for node in list(grid_net.nodes.values())[:10]:
                centre = node.position
                grid_ids = [n.node_id for n in grid_net.nodes_within(centre, 250.0)]
                linear_ids = [
                    n.node_id for n in linear_net.nodes_within(centre, 250.0)
                ]
                assert grid_ids == linear_ids
