"""Property tests: the medium's hard-edge shortcuts agree with the reference path.

On a hard-edge channel the medium folds a receiver's interference into an
interferer count, decides once per count under a deterministic reception
model, settles untraced broadcasts in bulk and builds in-range tables from
the positions recorded at the last refresh.  Each shortcut is checked here
against what it replaces on random inputs: the fold against
``_interference_at`` on random geometry, the tables against an exhaustive
scan, and whole flooding storms on random topologies -- at a transmit power
whose mW value is an integer, at one whose value is not, and with mixed
powers, where the fold must decline -- against the same storm run with every
shortcut off (``tests.helpers.caches_off``).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Vec2
from repro.radio.interference import (
    NO_SIGNAL_DBM,
    AdditiveInterference,
    NoInterference,
    combine_dbm,
)
from repro.radio.propagation import (
    FreeSpacePropagation,
    LogNormalShadowing,
    NakagamiFading,
    TwoRayGroundPropagation,
    UnitDiskPropagation,
)
from repro.radio.stack import RadioStack
from repro.sim.engine import Simulator
from repro.sim.medium import POSITION_REFRESH_S, ActiveTransmission, WirelessMedium
from repro.sim.packet import BROADCAST, make_data_packet
from tests.helpers import build_static_network, caches_off, run_data_flow
from tests.sim.test_medium_backends import normalized_records

RANGE_M = 250.0

tx_powers = st.floats(min_value=-10.0, max_value=40.0, allow_nan=False)
coords = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
points = st.tuples(coords, coords)


def transmission(uid, position, tx_power_dbm, start=0.0, end=1.0):
    return ActiveTransmission(
        sender_id=uid,
        sender_position=Vec2(*position),
        tx_power_dbm=tx_power_dbm,
        packet=make_data_packet("test", 0, 1, seq=uid),
        next_hop=BROADCAST,
        start=start,
        end=end,
        uid=uid,
    )


def hard_edge_medium(interference=None):
    stack = RadioStack(
        propagation=UnitDiskPropagation(RANGE_M),
        interference=interference if interference is not None else AdditiveInterference(),
    )
    return WirelessMedium(Simulator(seed=1), stack=stack)


class TestFoldEqualsPerReceiverSum:
    @settings(max_examples=60, deadline=None)
    @given(level=tx_powers, count=st.integers(min_value=0, max_value=40))
    def test_levels_equal_combine_of_the_repeated_level(self, level, count):
        levels = hard_edge_medium()._interference_levels(level, count)
        assert len(levels) == count + 1
        assert levels[0] == NO_SIGNAL_DBM
        for k in range(1, count + 1):
            assert levels[k] == combine_dbm([level] * k)

    @settings(max_examples=60, deadline=None)
    @given(
        tx_power=tx_powers,
        senders=st.lists(points, min_size=1, max_size=12),
        receiver=points,
    )
    def test_count_of_holding_tables_gives_interference_at(self, tx_power, senders, receiver):
        # The fold's claim: a receiver's interference is the level combined
        # once per interferer whose in-range table holds it -- bit for bit
        # what the per-receiver sum over those interferers gives.
        medium = hard_edge_medium()
        interferers = [
            transmission(uid, position, tx_power)
            for uid, position in enumerate(senders, start=1)
        ]
        frame = transmission(0, receiver, tx_power)
        rx_level, level, reach = medium._count_fold(frame, interferers)
        assert (rx_level, level, reach) == (tx_power, tx_power, RANGE_M)
        position = Vec2(*receiver)
        count = sum(
            1 for other in interferers if other.sender_position.distance_to(position) <= reach
        )
        levels = medium._interference_levels(level, len(interferers))
        assert levels[count] == medium._interference_at(position, interferers)

    def test_no_interference_model_folds_to_silence(self):
        medium = hard_edge_medium(NoInterference())
        levels = medium._interference_levels(23.0, 5)
        assert levels == [NO_SIGNAL_DBM] * 6


class TestFoldDeclines:
    def test_mixed_interferer_powers_decline(self):
        medium = hard_edge_medium()
        frame = transmission(0, (0.0, 0.0), 20.0)
        interferers = [
            transmission(1, (100.0, 0.0), 20.0),
            transmission(2, (0.0, 100.0), 23.0),
        ]
        assert medium._count_fold(frame, interferers) is None

    def test_frame_without_interferers_folds_to_count_zero(self):
        medium = hard_edge_medium()
        frame = transmission(0, (0.0, 0.0), 23.0)
        assert medium._count_fold(frame, []) == (23.0, NO_SIGNAL_DBM, 0.0)

    @pytest.mark.parametrize(
        "propagation",
        [
            FreeSpacePropagation(),
            TwoRayGroundPropagation(),
            LogNormalShadowing(sigma_db=4.0),
            NakagamiFading(),
        ],
        ids=lambda model: type(model).__name__,
    )
    def test_channels_without_a_hard_edge_decline(self, propagation):
        medium = WirelessMedium(Simulator(seed=1), propagation=propagation)
        frame = transmission(0, (0.0, 0.0), 20.0)
        assert medium._count_fold(frame, [transmission(1, (50.0, 0.0), 20.0)]) is None
        assert medium._count_fold(frame, []) is None


class TestTablesFromRecordedPositions:
    @settings(max_examples=30, deadline=None)
    @given(
        before=st.lists(points, min_size=1, max_size=25),
        moves=st.lists(points, min_size=25, max_size=25),
        centre=points,
        radius=st.floats(min_value=0.0, max_value=600.0, allow_nan=False),
    )
    def test_tables_follow_each_refresh(self, before, moves, centre, radius):
        # Stepped nodes move only between refreshes; a table built after a
        # refresh must hold exactly the nodes an exhaustive scan finds.
        sim, network, _, nodes = build_static_network(before)
        medium = network.medium
        position = Vec2(*centre)

        def scan():
            return [
                node for node in nodes if node.position.distance_to(position) <= radius
            ]

        assert medium.nodes_within(position, radius) == scan()
        for node, target in zip(nodes, moves):
            node._position_provider._position = Vec2(*target)
        medium.refresh_positions()
        assert medium.nodes_within(position, radius) == scan()

    def test_a_live_node_is_read_where_it_is_now(self):
        sim, network, _, nodes = build_static_network(
            [(0.0, 0.0), (300.0, 0.0)], velocities=[(0.0, 0.0), (-200.0, 0.0)]
        )
        medium = network.medium
        origin = Vec2(0.0, 0.0)
        assert medium.nodes_within(origin, RANGE_M) == [nodes[0]]
        # 0.4 s on, the moving node is 220 m away: inside the disk, though
        # no refresh has recorded its position since (that comes at 0.5 s).
        sim.run(until=0.4)
        assert sim.now - medium._last_position_refresh < POSITION_REFRESH_S
        assert medium.nodes_within(origin, RANGE_M) == [nodes[0], nodes[1]]


def random_positions(seed, count=60, side=1000.0):
    rng = random.Random(seed)
    return [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(count)]


#: Transmit power per node index: 20 dBm is 100 mW exactly, 23 dBm is not an
#: integer in mW (every sum rounds), and mixed powers make the fold decline
#: for frames whose overlapping frames differ in power.
TX_POWERS = {
    "20dbm": lambda index: 20.0,
    "23dbm": lambda index: 23.0,
    "mixed": lambda index: 20.0 if index % 2 else 23.0,
}


def flooded_storm(seed, powers, traced):
    """A flooding storm over a random topology; returns its run and fold tallies."""
    sim, network, stats, nodes = build_static_network(
        random_positions(seed), protocol="Flooding", seed=seed, trace=traced
    )
    for index, node in enumerate(nodes):
        node.tx_power_dbm = TX_POWERS[powers](index)
    medium = network.medium
    tally = {"folded": 0, "declined": 0, "overlapped": 0}
    count_fold = medium._count_fold

    def counting(frame, interferers):
        fold = count_fold(frame, interferers)
        tally["folded" if fold is not None else "declined"] += 1
        if interferers:
            tally["overlapped"] += 1
        return fold

    medium._count_fold = counting
    deliver_in_bulk = medium._deliver_in_bulk

    def counting_bulk(*args):
        tally["bulk"] += 1
        return deliver_in_bulk(*args)

    tally["bulk"] = 0
    medium._deliver_in_bulk = counting_bulk
    network.start()
    run_data_flow(sim, stats, nodes[0], nodes[-1], packets=3, start=1.0, until=6.0)
    return network.trace, stats, tally


class TestRandomStormsMatchTheReference:
    @pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
    @pytest.mark.parametrize("powers", sorted(TX_POWERS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_storm_with_shortcuts_equals_storm_without(self, seed, powers, traced):
        trace, stats, tally = flooded_storm(seed, powers, traced)
        with caches_off():
            reference_trace, reference_stats, _ = flooded_storm(seed, powers, traced)
        assert stats.summary() == reference_stats.summary()
        assert normalized_records(trace) == normalized_records(reference_trace)
        # The storm exercised the shortcut: frames overlapped, and folded
        # exactly when every overlapping frame shared one power.
        assert tally["overlapped"] > 0
        assert tally["folded"] > 0
        if powers == "mixed":
            assert tally["declined"] > 0
        else:
            assert tally["declined"] == 0
        # Only untraced broadcasts are settled in bulk.
        if traced:
            assert tally["bulk"] == 0
        else:
            assert tally["bulk"] > 0
        assert stats.summary()["mac_collisions"] > 0
