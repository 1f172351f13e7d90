"""Property-based tests (hypothesis) for core invariants."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.link_lifetime import link_lifetime_1d, link_lifetime_2d
from repro.core.path_reliability import path_lifetime, path_reliability, widest_lifetime_path
from repro.core.stability import link_alive_probability
from repro.geometry import Vec2, angle_between
from repro.graphs import NoPathError
from repro.protocols.discovery import DuplicateCache, PendingPacketBuffer, RouteEntry, RouteTable
from repro.radio.interference import combine_dbm, dbm_to_mw, mw_to_dbm
from repro.sim.events import EventQueue
from repro.sim.packet import make_data_packet
from repro.sim.rng import RandomStreams

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
speeds = st.floats(min_value=-60.0, max_value=60.0, allow_nan=False)
positions = st.floats(min_value=-5000.0, max_value=5000.0, allow_nan=False)


class TestGeometryProperties:
    @given(finite_floats, finite_floats, finite_floats, finite_floats)
    def test_distance_is_symmetric(self, ax, ay, bx, by):
        a, b = Vec2(ax, ay), Vec2(bx, by)
        assert a.distance_to(b) == b.distance_to(a)

    @given(finite_floats, finite_floats)
    def test_normalized_is_unit_or_zero(self, x, y):
        vector = Vec2(x, y)
        length = vector.normalized().norm()
        assert length == 0.0 or math.isclose(length, 1.0, rel_tol=1e-9)

    @given(finite_floats, finite_floats, finite_floats, finite_floats)
    def test_angle_between_is_bounded(self, ax, ay, bx, by):
        angle = angle_between(Vec2(ax, ay), Vec2(bx, by))
        assert 0.0 <= angle <= math.pi + 1e-12

    @given(finite_floats, finite_floats, finite_floats, finite_floats, finite_floats, finite_floats)
    def test_triangle_inequality(self, ax, ay, bx, by, cx, cy):
        a, b, c = Vec2(ax, ay), Vec2(bx, by), Vec2(cx, cy)
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-6


class TestLinkLifetimeProperties:
    @given(
        st.floats(min_value=-240.0, max_value=240.0),
        st.floats(min_value=-30.0, max_value=30.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_lifetime_is_never_negative(self, d0, dv, da):
        lifetime = link_lifetime_1d(d0, dv, da, 250.0)
        assert lifetime >= 0.0

    @given(
        st.floats(min_value=-200.0, max_value=200.0),
        st.floats(min_value=0.5, max_value=30.0),
    )
    def test_faster_separation_never_lengthens_the_link(self, d0, dv):
        slow = link_lifetime_1d(d0, dv, 0.0, 250.0)
        fast = link_lifetime_1d(d0, dv * 2.0, 0.0, 250.0)
        assert fast <= slow + 1e-9

    @given(
        st.floats(min_value=-200.0, max_value=200.0),
        st.floats(min_value=-30.0, max_value=30.0),
    )
    def test_separation_at_predicted_breakage_equals_range(self, d0, dv):
        assume(abs(dv) > 0.1)
        lifetime = link_lifetime_1d(d0, dv, 0.0, 250.0)
        assume(math.isfinite(lifetime) and lifetime > 0.0)
        separation = abs(d0 + dv * lifetime)
        assert math.isclose(separation, 250.0, rel_tol=1e-6, abs_tol=1e-6)

    @given(positions, positions, speeds, speeds, positions, positions, speeds, speeds)
    def test_2d_lifetime_never_negative_and_zero_when_out_of_range(
        self, ax, ay, avx, avy, bx, by, bvx, bvy
    ):
        lifetime = link_lifetime_2d(Vec2(ax, ay), Vec2(avx, avy), Vec2(bx, by), Vec2(bvx, bvy))
        assert lifetime >= 0.0
        if Vec2(ax, ay).distance_to(Vec2(bx, by)) > 250.0:
            assert lifetime == 0.0


class TestStabilityProperties:
    @given(
        st.floats(min_value=-240.0, max_value=240.0),
        st.floats(min_value=0.0, max_value=120.0),
        st.floats(min_value=-20.0, max_value=20.0),
        st.floats(min_value=0.1, max_value=15.0),
    )
    def test_alive_probability_is_a_probability(self, d0, t, mean, std):
        probability = link_alive_probability(d0, t, mean, std, 250.0)
        assert 0.0 <= probability <= 1.0

    @given(
        st.floats(min_value=-200.0, max_value=200.0),
        st.floats(min_value=0.1, max_value=15.0),
    )
    def test_alive_probability_decreases_with_time(self, d0, std):
        earlier = link_alive_probability(d0, 10.0, 0.0, std, 250.0)
        later = link_alive_probability(d0, 60.0, 0.0, std, 250.0)
        assert later <= earlier + 1e-9


class TestPathCompositionProperties:
    lifetimes = st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=10)
    probabilities = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=10)

    @given(lifetimes)
    def test_path_lifetime_bounded_by_every_link(self, values):
        lifetime = path_lifetime(values)
        assert all(lifetime <= v for v in values)
        assert lifetime in values

    @given(probabilities)
    def test_path_reliability_in_unit_interval_and_monotone(self, values):
        reliability = path_reliability(values)
        assert 0.0 <= reliability <= 1.0
        assert reliability <= (min(values) if values else 1.0) + 1e-12

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda e: e[0] < e[1]),
            st.floats(min_value=0.1, max_value=100.0),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=50)
    def test_widest_path_bottleneck_is_achievable(self, links):
        nodes = sorted({n for edge in links for n in edge})
        assume(len(nodes) >= 2)
        source, destination = nodes[0], nodes[-1]
        try:
            path, bottleneck = widest_lifetime_path(links, source, destination)
        except NoPathError:
            return
        assert path[0] == source and path[-1] == destination
        for a, b in zip(path, path[1:]):
            value = links.get((a, b), links.get((b, a)))
            assert value is not None
            assert value >= bottleneck - 1e-9


class TestPowerProperties:
    @given(st.floats(min_value=-150.0, max_value=50.0))
    def test_dbm_mw_round_trip(self, power):
        assert math.isclose(mw_to_dbm(dbm_to_mw(power)), power, rel_tol=1e-9, abs_tol=1e-9)

    @given(st.lists(st.floats(min_value=-120.0, max_value=30.0), min_size=1, max_size=8))
    def test_combined_power_at_least_max_component(self, powers):
        combined = combine_dbm(powers)
        assert combined >= max(powers) - 1e-9


class TestDataStructureProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=50))
    def test_event_queue_pops_in_sorted_order(self, times):
        queue = EventQueue()
        for t in times:
            queue.push(t, lambda: None)
        popped = []
        while queue:
            popped.append(queue.pop().time)
        assert popped == sorted(popped)

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=100))
    def test_duplicate_cache_reports_repeats(self, keys):
        cache = DuplicateCache(lifetime_s=1e9)
        seen_before = set()
        for key in keys:
            expected = key in seen_before
            assert cache.seen(key, now=0.0) == expected
            seen_before.add(key)

    @given(
        st.lists(
            st.tuples(st.integers(1, 5), st.integers(0, 100), st.integers(1, 10)),
            min_size=1,
            max_size=30,
        )
    )
    def test_route_table_always_keeps_freshest_sequence(self, updates):
        table = RouteTable()
        best_seen = {}
        for destination, sequence, hops in updates:
            entry = RouteEntry(
                destination=destination,
                next_hop=sequence % 7,
                hop_count=hops,
                expiry=1e9,
                sequence=sequence,
            )
            table.update_if_better(entry, now=0.0)
            current_best = best_seen.get(destination)
            if current_best is None or sequence > current_best:
                best_seen[destination] = sequence
        for destination, best_sequence in best_seen.items():
            assert table.get(destination, 0.0).sequence == best_sequence

    @given(st.integers(min_value=1, max_value=40))
    def test_pending_buffer_never_exceeds_capacity(self, count):
        buffer = PendingPacketBuffer(capacity_per_destination=8)
        for _ in range(count):
            buffer.add(make_data_packet("p", 1, 9), now=0.0)
        assert len(buffer) <= 8

    @given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=12))
    def test_rng_streams_are_deterministic(self, seed, name):
        a = RandomStreams(seed).stream(name).random()
        b = RandomStreams(seed).stream(name).random()
        assert a == b
