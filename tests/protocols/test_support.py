"""Tests for the shared protocol machinery (beacons, discovery state, location, registry)."""

import random

import pytest

from repro.geometry import Vec2
from repro.protocols.discovery import (
    DuplicateCache,
    PendingPacketBuffer,
    RouteEntry,
    RouteTable,
)
from repro.protocols.location import LocationService
from repro.protocols.neighbors import NeighborEntry, NeighborTable
from repro.protocols.base import RoutingProtocol
from repro.protocols.registry import make_protocol_factory
from repro.core.taxonomy import PROTOCOLS
from repro.sim.packet import make_data_packet
from tests.helpers import build_static_network, line_positions


class TestDuplicateCache:
    def test_first_sighting_is_not_seen(self):
        cache = DuplicateCache()
        assert not cache.seen(("a", 1), now=0.0)
        assert cache.seen(("a", 1), now=1.0)

    def test_entries_expire(self):
        cache = DuplicateCache(lifetime_s=5.0)
        cache.seen("x", now=0.0)
        assert not cache.seen("x", now=10.0)

    def test_eviction_keeps_cache_bounded(self):
        cache = DuplicateCache(lifetime_s=100.0, max_entries=50)
        for i in range(500):
            cache.seen(i, now=float(i))
        assert len(cache) <= 51


class TestRouteTable:
    def test_put_get_and_expiry(self):
        table = RouteTable()
        table.put(RouteEntry(destination=9, next_hop=2, hop_count=3, expiry=10.0))
        assert table.get(9, now=5.0) is not None
        assert table.get(9, now=15.0) is None

    def test_update_if_better_prefers_fresher_sequence(self):
        table = RouteTable()
        table.put(RouteEntry(9, next_hop=2, hop_count=3, expiry=100.0, sequence=4))
        worse = RouteEntry(9, next_hop=3, hop_count=1, expiry=100.0, sequence=2)
        better = RouteEntry(9, next_hop=4, hop_count=5, expiry=100.0, sequence=6)
        assert not table.update_if_better(worse, now=0.0)
        assert table.update_if_better(better, now=0.0)
        assert table.get(9, 0.0).next_hop == 4

    def test_update_if_better_prefers_shorter_at_equal_sequence(self):
        table = RouteTable()
        table.put(RouteEntry(9, next_hop=2, hop_count=3, expiry=100.0, sequence=4))
        shorter = RouteEntry(9, next_hop=7, hop_count=2, expiry=100.0, sequence=4)
        assert table.update_if_better(shorter, now=0.0)
        assert table.get(9, 0.0).next_hop == 7

    def test_invalidate_via_next_hop(self):
        table = RouteTable()
        table.put(RouteEntry(1, next_hop=5, hop_count=1, expiry=100.0))
        table.put(RouteEntry(2, next_hop=5, hop_count=2, expiry=100.0))
        table.put(RouteEntry(3, next_hop=6, hop_count=1, expiry=100.0))
        affected = table.invalidate_via(5)
        assert sorted(affected) == [1, 2]
        assert table.get(3, 0.0) is not None

    def test_destinations_listing(self):
        table = RouteTable()
        table.put(RouteEntry(1, next_hop=5, hop_count=1, expiry=100.0))
        table.put(RouteEntry(2, next_hop=5, hop_count=1, expiry=0.5))
        assert table.destinations(now=1.0) == [1]


class TestPendingPacketBuffer:
    def test_add_and_pop(self):
        buffer = PendingPacketBuffer()
        packet = make_data_packet("p", 1, 9)
        assert buffer.add(packet, now=0.0)
        assert buffer.has_pending(9)
        popped = buffer.pop_all(9, now=1.0)
        assert [p.uid for p in popped] == [packet.uid]
        assert not buffer.has_pending(9)

    def test_capacity_limit(self):
        buffer = PendingPacketBuffer(capacity_per_destination=2)
        results = [buffer.add(make_data_packet("p", 1, 9), 0.0) for _ in range(4)]
        assert results == [True, True, False, False]

    def test_old_packets_expire(self):
        buffer = PendingPacketBuffer(max_age_s=5.0)
        buffer.add(make_data_packet("p", 1, 9), now=0.0)
        assert buffer.pop_all(9, now=10.0) == []

    def test_drop_all_counts(self):
        buffer = PendingPacketBuffer()
        for _ in range(3):
            buffer.add(make_data_packet("p", 1, 9), 0.0)
        assert buffer.drop_all(9) == 3


class TestNeighborTable:
    def _entry(self, node_id, last_seen, x=0.0):
        return NeighborEntry(node_id, Vec2(x, 0), Vec2(10, 0), last_seen=last_seen)

    def test_update_and_freshness(self):
        table = NeighborTable(timeout_s=3.0)
        table.update(self._entry(1, last_seen=0.0))
        assert table.contains(1, now=2.0)
        assert not table.contains(1, now=5.0)

    def test_purge_removes_stale_entries(self):
        table = NeighborTable(timeout_s=3.0)
        table.update(self._entry(1, last_seen=0.0))
        table.update(self._entry(2, last_seen=9.0))
        fresh = table.neighbors(now=10.0)
        assert [entry.node_id for entry in fresh] == [2]

    def test_predicted_position_dead_reckons(self):
        entry = NeighborEntry(1, Vec2(100, 0), Vec2(20, 0), last_seen=5.0)
        predicted = entry.predicted_position(now=7.0)
        assert predicted.x == pytest.approx(140.0)

    def test_remove(self):
        table = NeighborTable()
        table.update(self._entry(1, 0.0))
        table.remove(1)
        assert table.get(1) is None


class TestLocationService:
    def test_oracle_returns_exact_positions(self):
        sim, network, stats, nodes = build_static_network(line_positions(3, 100))
        service = LocationService(network)
        assert service.position_of(nodes[1].node_id) == Vec2(100, 0)
        assert service.distance_between(nodes[0].node_id, nodes[2].node_id) == pytest.approx(200.0)

    def test_unknown_node_returns_none(self):
        sim, network, stats, nodes = build_static_network([(0, 0)])
        service = LocationService(network)
        assert service.position_of(9999) is None

    def test_noise_and_staleness_perturb_position(self):
        sim, network, stats, nodes = build_static_network(
            [(0, 0)], velocities=[(20, 0)]
        )
        exact = LocationService(network)
        stale = LocationService(network, staleness_s=2.0)
        sim.schedule(5.0, lambda: None)
        sim.run()
        true_position = nodes[0].position
        assert exact.position_of(nodes[0].node_id) == true_position
        rewound = stale.position_of(nodes[0].node_id)
        assert rewound.x == pytest.approx(true_position.x - 40.0)
        noisy = LocationService(
            network, position_error_std_m=10.0, rng=random.Random(7)
        )
        assert noisy.position_of(nodes[0].node_id) != true_position


class TestRegistry:
    def test_every_registered_protocol_carries_its_taxonomy_entry(self):
        for name in PROTOCOLS.names():
            cls = PROTOCOLS[name]
            assert issubclass(cls, RoutingProtocol), name
            assert cls.protocol_name == name
            assert cls.category is not None and cls.description, name

    def test_factory_builds_attached_protocol(self):
        sim, network, stats, nodes = build_static_network([(0, 0), (100, 0)])
        factory = make_protocol_factory("AODV")
        protocol = factory(nodes[0])
        assert protocol.node is nodes[0]
        assert protocol.protocol_name == "AODV"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(KeyError):
            make_protocol_factory("NotARealProtocol")

    def test_every_factory_instantiates(self):
        for name in PROTOCOLS.names():
            sim, network, stats, nodes = build_static_network([(0, 0), (100, 0)], protocol=name)
            assert nodes[0].protocol is not None
            assert nodes[0].protocol.protocol_name == name
