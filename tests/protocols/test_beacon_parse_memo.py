"""Safety of the once-per-frame HELLO parse in ``BeaconService.handle_beacon``.

Every receiver of one broadcast frame shares the frame's header dict, so
the parse is reused across receivers keyed on that dict and the
simulation time.  These tests pin what must *not* be shared: later sends
of a mutated dict, a receiver's own header writes, plain packets and the
per-receiver ``extra`` dicts.
"""

from types import SimpleNamespace

from repro.geometry import Vec2
from repro.protocols.neighbors import BeaconService
from repro.sim.packet import CowMapping, make_control_packet


def _hello(**extra):
    headers = {"pos_x": 10.0, "pos_y": 20.0, "vel_x": 1.0, "vel_y": 0.0, "is_rsu": False}
    headers.update(extra)
    return make_control_packet("test", "HELLO", source=1, headers=headers)


def _receivers(count, now=1.0):
    clock = SimpleNamespace(now=now)
    services = [BeaconService(SimpleNamespace(sim=clock)) for _ in range(count)]
    return clock, services


class TestSharedParse:
    def test_receivers_of_one_frame_share_the_vectors(self):
        _, (first, second) = _receivers(2)
        frame = _hello()
        a = first.handle_beacon(frame.view(), 1)
        b = second.handle_beacon(frame.view(), 1)
        assert a.position == Vec2(10.0, 20.0) and a.velocity == Vec2(1.0, 0.0)
        assert a.position is b.position and a.velocity is b.velocity
        assert a is not b

    def test_header_dict_mutated_in_place_and_resent_later_is_reparsed(self):
        clock, (first, second) = _receivers(2)
        frame = _hello(rating=0.5)
        before = first.handle_beacon(frame.view(), 1)
        frame.headers["pos_x"] = 99.0
        frame.headers["rating"] = 0.9
        clock.now = 2.0
        after = second.handle_beacon(frame.view(), 1)
        assert before.position == Vec2(10.0, 20.0)
        assert before.extra == {"rating": 0.5}
        assert after.position == Vec2(99.0, 20.0)
        assert after.extra == {"rating": 0.9}
        assert after.last_seen == 2.0

    def test_receiver_sees_its_own_header_write_and_others_do_not(self):
        _, (first, writer, third) = _receivers(3)
        frame = _hello()
        views = [frame.view() for _ in range(3)]
        a = first.handle_beacon(views[0], 1)
        views[1].headers["pos_x"] = -5.0
        b = writer.handle_beacon(views[1], 1)
        c = third.handle_beacon(views[2], 1)
        assert b.position == Vec2(-5.0, 20.0)
        assert a.position == c.position == Vec2(10.0, 20.0)
        assert frame.headers["pos_x"] == 10.0


class TestPerReceiverState:
    def test_plain_packets_parse_on_every_call(self):
        _, (first, second) = _receivers(2)
        frame = _hello()
        a = first.handle_beacon(frame, 1)
        # Same packet, same instant: only a fresh parse sees the write.
        frame.headers["pos_y"] = -1.0
        b = second.handle_beacon(frame, 1)
        assert a.position == Vec2(10.0, 20.0)
        assert b.position == Vec2(10.0, -1.0)

    def test_extra_dicts_are_distinct_per_receiver(self):
        _, (first, second) = _receivers(2)
        frame = _hello(rating=0.5, is_bus=True)
        a = first.handle_beacon(frame.view(), 1)
        b = second.handle_beacon(frame.view(), 1)
        assert a.extra == b.extra == {"rating": 0.5, "is_bus": True}
        assert a.extra is not b.extra
        a.extra["rating"] = 0.0
        assert b.extra["rating"] == 0.5

    def test_empty_extra_dicts_are_distinct_too(self):
        _, (first, second) = _receivers(2)
        frame = _hello()
        a = first.handle_beacon(frame.view(), 1)
        b = second.handle_beacon(frame.view(), 1)
        assert a.extra == b.extra == {}
        assert a.extra is not b.extra

    def test_each_entry_keeps_its_own_rx_power_and_sender(self):
        _, (first, second) = _receivers(2)
        frame = _hello()
        near, far = frame.view(), frame.view()
        near.rx_power_dbm = -60.0
        far.rx_power_dbm = -85.0
        a = first.handle_beacon(near, 7)
        b = second.handle_beacon(far, 7)
        assert (a.rx_power_dbm, b.rx_power_dbm) == (-60.0, -85.0)
        assert first.table.get(7) is a and second.table.get(7) is b


class TestCowMappingScalarReads:
    def test_get_and_in_read_the_shared_dict(self):
        shared = {"a": 1}
        cow = CowMapping(shared)
        assert cow.get("a") == 1 and cow.get("z", 7) == 7 and cow.get("z") is None
        assert "a" in cow and "z" not in cow
        assert cow.shared_content() is shared

    def test_get_and_in_see_the_local_dict_after_a_write(self):
        shared = {"a": 1}
        cow = CowMapping(shared)
        cow["b"] = 2
        del cow["a"]
        assert cow.shared_content() is None
        assert cow.get("b") == 2 and cow.get("a") is None
        assert "b" in cow and "a" not in cow
        assert shared == {"a": 1}

    def test_key_views_stay_live_across_copy_on_write(self):
        cow = CowMapping({"a": 1})
        keys, items = cow.keys(), cow.items()
        cow["b"] = 2
        assert set(keys) == {"a", "b"}
        assert ("b", 2) in items
