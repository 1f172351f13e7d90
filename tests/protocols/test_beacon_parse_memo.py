"""Safety of the once-per-frame HELLO parse and the shared entry.

A :class:`BeaconService` claims ``HELLO`` frames on its medium, so the
medium opens each received HELLO once -- one parse of its header dict --
and hands over its receivers; each hand-off builds one frozen
:class:`NeighborEntry` that all of its receivers record.  These tests pin
what sharing must not leak: a later send of a mutated dict, a receiver's
writes to an entry (refused), a second opening of the same packet, and
each hand-off's own signal strength.
"""

from dataclasses import FrozenInstanceError
from types import SimpleNamespace

import pytest

from repro.geometry import Vec2
from repro.protocols.neighbors import BeaconService
from repro.sim.packet import make_control_packet


def _hello(**extra):
    headers = {"pos_x": 10.0, "pos_y": 20.0, "vel_x": 1.0, "vel_y": 0.0, "is_rsu": False}
    headers.update(extra)
    return make_control_packet("test", "HELLO", source=1, headers=headers)


def _receivers(count, now=1.0):
    """``(clock, HELLO opener, receiver nodes)``, each node running a beacon service."""
    clock = SimpleNamespace(now=now)
    claims = {}
    medium = SimpleNamespace(claim_frames=claims.__setitem__)
    nodes = []
    for node_id in range(10, 10 + count):
        protocol = SimpleNamespace(sim=clock, network=SimpleNamespace(medium=medium))
        protocol.beacons = BeaconService(protocol)
        nodes.append(SimpleNamespace(node_id=node_id, protocol=protocol))
    return clock, claims["HELLO"], nodes


def _entry(node, sender_id=1):
    return node.protocol.beacons.table.get(sender_id)


class TestSharedParse:
    def test_receivers_of_one_frame_share_the_vectors(self):
        _, open_hello, (first, second) = _receivers(2)
        receive = open_hello(_hello(), 1)
        receive([first], -70.0)
        receive([second], -70.0)
        a, b = _entry(first), _entry(second)
        assert a.position == Vec2(10.0, 20.0) and a.velocity == Vec2(1.0, 0.0)
        assert a.position is b.position and a.velocity is b.velocity
        # Two hand-offs, two entries.
        assert a is not b

    def test_one_hand_off_records_one_entry_at_every_receiver(self):
        clock, open_hello, (first, second, third) = _receivers(3)
        open_hello(_hello(rating=0.5), 1)([first, second, third], -70.0)
        a, b, c = _entry(first), _entry(second), _entry(third)
        assert a is b is c
        assert (a.node_id, a.last_seen, a.rx_power_dbm) == (1, clock.now, -70.0)
        assert a.extra == {"rating": 0.5}

    def test_header_dict_mutated_in_place_and_resent_later_is_reparsed(self):
        clock, open_hello, (first, second) = _receivers(2)
        frame = _hello(rating=0.5)
        open_hello(frame, 1)([first], -70.0)
        frame.headers["pos_x"] = 99.0
        frame.headers["rating"] = 0.9
        clock.now = 2.0
        open_hello(frame, 1)([second], -70.0)
        before, after = _entry(first), _entry(second)
        assert before.position == Vec2(10.0, 20.0)
        assert before.extra == {"rating": 0.5}
        assert after.position == Vec2(99.0, 20.0)
        assert after.extra == {"rating": 0.9}
        assert after.last_seen == 2.0

    def test_receivers_cannot_write_to_a_shared_entry(self):
        _, open_hello, (first, writer, third) = _receivers(3)
        frame = _hello(rating=0.5)
        open_hello(frame, 1)([first, writer, third], -70.0)
        entry = _entry(writer)
        with pytest.raises(FrozenInstanceError):
            entry.last_seen = 5.0
        with pytest.raises(TypeError):
            entry.extra["rating"] = -5.0
        assert _entry(first).extra == _entry(third).extra == {"rating": 0.5}
        assert frame.headers["rating"] == 0.5


class TestPerReceiverState:
    def test_each_opening_parses_afresh(self):
        # Same packet, same instant: a memo keyed on the dict and the clock
        # would hand the second opening the stale parse.
        _, open_hello, (first, second) = _receivers(2)
        frame = _hello()
        open_hello(frame, 1)([first], -70.0)
        frame.headers["pos_y"] = -1.0
        open_hello(frame, 1)([second], -70.0)
        assert _entry(first).position == Vec2(10.0, 20.0)
        assert _entry(second).position == Vec2(10.0, -1.0)

    def test_extra_is_a_read_only_copy_of_the_headers(self):
        _, open_hello, (first, second) = _receivers(2)
        frame = _hello(rating=0.5, is_bus=True)
        open_hello(frame, 1)([first, second], -70.0)
        frame.headers["rating"] = 0.0
        a, b = _entry(first), _entry(second)
        assert a.extra == b.extra == {"rating": 0.5, "is_bus": True}
        with pytest.raises(TypeError):
            a.extra["rating"] = 0.0

    def test_an_empty_extra_is_read_only_too(self):
        _, open_hello, (first, second) = _receivers(2)
        receive = open_hello(_hello(), 1)
        receive([first], -70.0)
        receive([second], -70.0)
        a, b = _entry(first), _entry(second)
        assert a.extra == b.extra == {}
        with pytest.raises(TypeError):
            a.extra["rating"] = 0.0

    def test_each_entry_keeps_its_own_rx_power_and_sender(self):
        _, open_hello, (first, second) = _receivers(2)
        receive = open_hello(_hello(), 7)
        receive([first], -60.0)
        receive([second], -85.0)
        a, b = _entry(first, 7), _entry(second, 7)
        assert (a.rx_power_dbm, b.rx_power_dbm) == (-60.0, -85.0)
        assert (a.node_id, b.node_id) == (7, 7)
        assert first.protocol.beacons.table.get(7) is a
        assert second.protocol.beacons.table.get(7) is b

    def test_receivers_without_a_beacon_service_ignore_the_frame(self):
        _, open_hello, (first, second) = _receivers(2)
        receive = open_hello(_hello(), 1)
        receive([SimpleNamespace(node_id=99, protocol=None)], -70.0)
        receive(
            [
                SimpleNamespace(node_id=98, protocol=SimpleNamespace(beacons=None)),
                first,
                SimpleNamespace(node_id=97, protocol=None),
                second,
            ],
            -70.0,
        )
        assert _entry(first) is not None
        assert _entry(first) is _entry(second)

    def test_on_beacon_sees_each_fresh_entry_after_the_table_update(self):
        _, open_hello, (node,) = _receivers(1)
        service = node.protocol.beacons
        seen = []
        service.on_beacon = lambda entry: seen.append(
            (entry, service.table.get(entry.node_id) is entry)
        )
        open_hello(_hello(), 3)([node], -70.0)
        open_hello(_hello(), 4)([node], -71.0)
        assert [(entry.node_id, fresh) for entry, fresh in seen] == [(3, True), (4, True)]
