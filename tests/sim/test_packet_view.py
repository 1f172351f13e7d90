"""Unit tests for the zero-copy delivery path: PacketView and CowMapping."""

import pytest

from repro.sim.packet import (
    BROADCAST,
    CowMapping,
    Packet,
    PacketView,
    make_control_packet,
    make_data_packet,
)


def _fresh_packet(**overrides):
    packet = make_data_packet(
        "test", source=1, destination=2, size_bytes=256, flow_id=7, seq=3
    )
    packet.headers.update({"path": [1], "weight": 2.5})
    packet.payload.update({"blob": {"k": "v"}})
    for name, value in overrides.items():
        setattr(packet, name, value)
    return packet


class TestCowMapping:
    def test_reads_delegate_to_shared_dict(self):
        shared = {"a": 1, "b": [2, 3]}
        cow = CowMapping(shared)
        assert cow["a"] == 1
        assert list(cow) == ["a", "b"]
        assert len(cow) == 2
        assert bool(cow)
        assert cow.content() is shared

    def test_first_write_materializes_private_copy(self):
        shared = {"a": 1, "nested": {"x": 1}}
        cow = CowMapping(shared)
        cow["a"] = 99
        assert shared["a"] == 1
        assert cow["a"] == 99
        assert cow.content() is not shared
        # Nested values were deep-copied at materialization, so later
        # in-place mutation through the cow cannot leak either.
        cow["nested"]["x"] = 42
        assert shared["nested"]["x"] == 1

    def test_delete_materializes_too(self):
        shared = {"a": 1, "b": 2}
        cow = CowMapping(shared)
        del cow["a"]
        assert "a" in shared
        assert "a" not in cow
        assert len(cow) == 1


class TestPacketView:
    def test_view_delegates_every_field(self):
        packet = _fresh_packet()
        view = packet.view()
        assert isinstance(view, PacketView)
        for name in (
            "kind",
            "protocol",
            "ptype",
            "source",
            "destination",
            "size_bytes",
            "created_at",
            "ttl",
            "hop_count",
            "flow_id",
            "seq",
            "rx_power_dbm",
        ):
            assert getattr(view, name) == getattr(packet, name)

    def test_view_uid_is_fresh_and_from_the_shared_counter(self):
        packet = _fresh_packet()
        view = packet.view()
        copy = packet.copy()
        assert view.uid != packet.uid
        # Same counter: uids are strictly increasing across view/copy.
        assert copy.uid == view.uid + 1

    def test_attribute_write_shadows_base(self):
        packet = _fresh_packet()
        view = packet.view()
        view.rx_power_dbm = -61.5
        assert view.rx_power_dbm == -61.5
        assert packet.rx_power_dbm is None

    def test_header_item_write_is_isolated(self):
        packet = _fresh_packet()
        view = packet.view()
        view.headers["hop"] = 4
        assert view.headers["hop"] == 4
        assert "hop" not in packet.headers
        # Reads that never wrote still share storage.
        other = packet.view()
        assert other.headers.content() is packet.headers

    def test_two_views_do_not_alias_each_other(self):
        packet = _fresh_packet()
        a, b = packet.view(), packet.view()
        a.headers["only-a"] = 1
        assert "only-a" not in b.headers
        assert "only-a" not in packet.headers

    def test_copy_materializes_full_packet(self):
        packet = _fresh_packet()
        view = packet.view()
        view.headers["mark"] = True
        materialized = view.copy()
        assert type(materialized) is Packet
        assert materialized.headers["mark"] is True
        assert "mark" not in packet.headers
        materialized.headers["path"].append(99)
        assert packet.headers["path"] == [1]

    def test_forwarded_from_view_does_not_touch_base(self):
        packet = _fresh_packet()
        view = packet.view()
        forwarded = view.forwarded()
        assert forwarded.hop_count == packet.hop_count + 1
        assert forwarded.ttl == packet.ttl - 1
        assert packet.hop_count == 0

    def test_view_of_view_walks_the_chain(self):
        packet = _fresh_packet()
        first = packet.view()
        first.rx_power_dbm = -70.0
        second = first.view()
        assert second.rx_power_dbm == -70.0
        assert second.source == packet.source
        materialized = second.copy()
        assert materialized.rx_power_dbm == -70.0

    def test_base_write_after_view_is_not_seen_like_copy(self):
        packet = _fresh_packet()
        view, copy = packet.view(), packet.copy()
        packet.ttl = 3
        packet.flow_id = 99
        assert (view.ttl, view.flow_id) == (copy.ttl, copy.flow_id) == (64, 7)

    def test_view_fields_are_instance_dict_hits(self):
        view = _fresh_packet().view()
        for name in ("kind", "source", "flow_id", "seq", "created_at", "ttl"):
            assert name in view.__dict__
        # The mappings stay lazy until first read.
        assert "headers" not in view.__dict__
        assert "payload" not in view.__dict__

    def test_view_of_view_carries_shadowed_field_and_materialised_header(self):
        packet = _fresh_packet()
        first = packet.view()
        first.ttl = 5
        first.headers["mark"] = "first"
        second = first.view()
        assert second.ttl == 5
        assert second.headers["mark"] == "first"
        assert second.headers["path"] == [1]
        second.headers["mark"] = "second"
        assert first.headers["mark"] == "first"
        assert "mark" not in packet.headers
        assert packet.ttl == 64
        materialized = second.copy()
        assert materialized.ttl == 5
        assert materialized.headers["mark"] == "second"
        assert "_base" not in materialized.__dict__

    def test_unknown_attribute_is_a_plain_miss(self):
        view = _fresh_packet().view()
        with pytest.raises(AttributeError):
            view.no_such_field
        with pytest.raises(AttributeError):
            view._private_probe

    def test_flow_key_and_kind_predicates(self):
        packet = _fresh_packet()
        view = packet.view()
        assert view.flow_key == packet.flow_key
        assert view.is_data and not view.is_control
        control = make_control_packet("test", "HELLO", 5, BROADCAST)
        assert control.view().is_control


class TestMutatesInFlightOptOut:
    def test_attach_protocol_reads_the_flag(self):
        from repro.sim.node import Node

        class InPlaceMutator:
            mutates_in_flight = True

        class ReadOnly:
            pass

        mutating = Node.__new__(Node)
        mutating.attach_protocol(InPlaceMutator())
        assert mutating.cow_frames_ok is False

        safe = Node.__new__(Node)
        safe.attach_protocol(ReadOnly())
        assert safe.cow_frames_ok is True

    def test_base_protocol_defaults_to_cow_safe(self):
        from repro.protocols.base import RoutingProtocol

        assert RoutingProtocol.mutates_in_flight is False


def test_default_grid_cell_imports_no_numpy():
    """The default (grid, pure-Python) delivery path must not need numpy."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    script = (
        "import sys\n"
        "from repro.harness.runner import ExperimentRunner\n"
        "from repro.harness.scenarios import scenario_from_name\n"
        "scenario = scenario_from_name('city-core-1km-congested', seed=1, duration_s=0.6,\n"
        "    drain_s=0.1, max_vehicles=30, workload='safety-beacon-10hz',\n"
        "    workload_params={'start_time_s': 0.3})\n"
        "assert scenario.spatial_backend == 'grid'\n"
        "result = ExperimentRunner().run(scenario, 'Greedy')\n"
        "assert result.summary['data_sent'] > 0\n"
        "print('numpy' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.strip().splitlines()[-1] == "False"
