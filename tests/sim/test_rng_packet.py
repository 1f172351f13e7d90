"""Tests for random streams and the packet model."""

from dataclasses import dataclass

import pytest

from repro.sim.packet import (
    BROADCAST,
    Packet,
    PacketKind,
    make_control_packet,
    make_data_packet,
    next_uid,
)
from repro.sim.rng import RandomStreams


class TestRandomStreams:
    def test_same_seed_same_stream_reproduces(self):
        a = RandomStreams(7).stream("mobility")
        b = RandomStreams(7).stream("mobility")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_are_independent(self):
        streams = RandomStreams(7)
        a = [streams.stream("a").random() for _ in range(5)]
        b = [streams.stream("b").random() for _ in range(5)]
        assert a != b

    def test_stream_not_perturbed_by_other_streams(self):
        solo = RandomStreams(3)
        solo_draws = [solo.stream("target").random() for _ in range(3)]
        mixed = RandomStreams(3)
        mixed.stream("noise").random()
        mixed_draws = [mixed.stream("target").random() for _ in range(3)]
        assert solo_draws == mixed_draws

    def test_same_name_returns_same_stream_object(self):
        streams = RandomStreams(1)
        assert streams.stream("x") is streams.stream("x")

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("s").random()
        b = RandomStreams(2).stream("s").random()
        assert a != b

    def test_spawn_creates_namespaced_child(self):
        parent = RandomStreams(5)
        child_a = parent.spawn("node-1").stream("mac").random()
        child_b = parent.spawn("node-2").stream("mac").random()
        assert child_a != child_b


class TestPacket:
    def test_data_packet_constructor(self):
        packet = make_data_packet("AODV", 1, 2, flow_id=3, seq=4, created_at=1.5)
        assert packet.is_data and not packet.is_control
        assert packet.flow_key == (1, 3, 4)
        assert packet.created_at == 1.5
        assert packet.ptype == "DATA"

    def test_control_packet_constructor(self):
        packet = make_control_packet("AODV", "RREQ", 1, headers={"rreq_id": 9})
        assert packet.is_control
        assert packet.destination == BROADCAST
        assert packet.headers["rreq_id"] == 9

    def test_uids_are_unique(self):
        packets = [make_data_packet("p", 0, 1) for _ in range(100)]
        assert len({p.uid for p in packets}) == 100

    def test_copy_gets_new_uid_and_independent_headers(self):
        original = make_control_packet("p", "RREQ", 1, headers={"path": [1]})
        clone = original.copy()
        assert clone.uid != original.uid
        clone.headers["path"] = [1, 2]
        assert original.headers["path"] == [1]

    def test_copy_with_overrides(self):
        packet = make_data_packet("p", 1, 2)
        clone = packet.copy(destination=9)
        assert clone.destination == 9
        assert packet.destination == 2

    def test_forwarded_updates_hops_and_ttl(self):
        packet = make_data_packet("p", 1, 2, ttl=5)
        forwarded = packet.forwarded()
        assert forwarded.hop_count == 1
        assert forwarded.ttl == 4
        assert forwarded.flow_key == packet.flow_key

    def test_copy_uid_is_fresh_and_from_the_shared_counter(self):
        packet = make_data_packet("p", 1, 2)
        first, second = packet.copy(), packet.copy()
        assert first.uid != packet.uid
        # One counter for packets, copies and claimed receptions.
        assert second.uid == first.uid + 1
        assert next_uid() == second.uid + 1

    def test_copy_carries_every_field_but_the_uid(self):
        packet = make_data_packet("p", 1, 2, size_bytes=256, flow_id=7, seq=3)
        packet.payload["blob"] = {"k": "v"}
        clone = packet.copy()
        assert type(clone) is Packet
        assert {**vars(clone), "uid": packet.uid} == vars(packet)
        # Shallow: nested values are shared, never changed in place.
        assert clone.payload["blob"] is packet.payload["blob"]

    def test_copy_snapshots_fields(self):
        packet = make_data_packet("p", 1, 2, flow_id=7)
        clone = packet.copy()
        packet.ttl = 3
        packet.flow_id = 99
        packet.headers["late"] = True
        assert (clone.ttl, clone.flow_id) == (64, 7)
        assert "late" not in clone.headers

    def test_forwarded_leaves_the_base_untouched(self):
        packet = make_data_packet("p", 1, 2, headers={"path": [1]})
        forwarded = packet.forwarded()
        forwarded.headers["path"] = [1, 2]
        assert (packet.hop_count, packet.ttl) == (0, 64)
        assert packet.headers["path"] == [1]

    def test_copy_keeps_flow_key_and_kind_predicates(self):
        packet = make_data_packet("p", 1, 2, flow_id=7, seq=3)
        clone = packet.copy()
        assert clone.flow_key == packet.flow_key == (1, 7, 3)
        assert clone.is_data and not clone.is_control
        control = make_control_packet("p", "HELLO", 5, BROADCAST)
        assert control.copy().is_control

    def test_copy_of_empty_headers_and_payload_gets_fresh_dicts(self):
        packet = make_control_packet("p", "HELLO", 5, BROADCAST)
        clone = packet.copy()
        assert clone.headers is not packet.headers
        assert clone.payload is not packet.payload
        clone.headers["seen"] = True
        clone.payload["note"] = "x"
        assert packet.headers == {} and packet.payload == {}

    def test_copy_keeps_the_subclass_and_its_fields(self):
        @dataclass
        class TaggedPacket(Packet):
            tag: str = "none"

        packet = TaggedPacket(PacketKind.DATA, "p", "DATA", 1, 2, tag="blue")
        clone = packet.copy()
        assert type(clone) is TaggedPacket
        assert clone.tag == "blue"
        assert clone.forwarded().tag == "blue"

    def test_two_copies_do_not_alias_each_other(self):
        packet = make_data_packet("p", 1, 2, headers={"path": [1]})
        first, second = packet.copy(), packet.copy()
        first.headers["path"] = [1, 2]
        first.ttl = 3
        assert second.headers["path"] == [1]
        assert second.ttl == 64

    def test_copy_of_a_copy_carries_the_middle_changes(self):
        packet = make_data_packet("p", 1, 2, headers={"path": [1]})
        middle = packet.copy(ttl=9)
        middle.headers["path"] = [1, 2]
        last = middle.copy()
        assert last.ttl == 9
        assert last.headers["path"] == [1, 2]
        assert packet.ttl == 64 and packet.headers["path"] == [1]

    def test_header_delete_on_a_copy_is_isolated(self):
        packet = make_data_packet("p", 1, 2, headers={"a": 1, "b": 2})
        clone = packet.copy()
        del clone.headers["a"]
        assert packet.headers == {"a": 1, "b": 2}
        assert clone.headers == {"b": 2}

    def test_kind_enum_values(self):
        assert PacketKind.DATA.value == "data"
        assert PacketKind.CONTROL.value == "control"
