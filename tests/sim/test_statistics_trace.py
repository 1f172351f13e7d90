"""Tests for metric collection and event tracing."""

import pytest

from repro.sim.packet import make_control_packet, make_data_packet
from repro.sim.statistics import StatsCollector
from repro.sim.trace import EventTrace


class TestFlowAccounting:
    def test_delivery_ratio_counts_unique_deliveries(self, stats):
        stats.register_flow(1, 10, 20)
        for seq in range(4):
            packet = make_data_packet("p", 10, 20, flow_id=1, seq=seq, created_at=0.0)
            stats.data_originated(packet)
            if seq < 2:
                stats.data_delivered(packet, now=1.0)
        assert stats.total_sent == 4
        assert stats.total_delivered == 2
        assert stats.delivery_ratio == pytest.approx(0.5)

    def test_duplicate_deliveries_not_double_counted(self, stats):
        packet = make_data_packet("p", 1, 2, flow_id=1, seq=1)
        stats.data_originated(packet)
        # The return value distinguishes first deliveries from duplicates so
        # callers (e.g. the app-layer delivery hook) can react exactly once.
        assert stats.data_delivered(packet, 1.0) is True
        assert stats.data_delivered(packet.copy(), 2.0) is False
        flow = stats.flows[1]
        assert flow.delivered == 1
        assert flow.duplicates == 1

    def test_delay_and_hops_recorded(self, stats):
        packet = make_data_packet("p", 1, 2, flow_id=1, seq=1, created_at=2.0)
        packet.hop_count = 3  # three forwarders -> four links traversed
        stats.data_originated(packet)
        stats.data_delivered(packet, now=2.5)
        assert stats.mean_delay == pytest.approx(0.5)
        assert stats.mean_hops == pytest.approx(4.0)

    def test_packets_without_flow_id_are_ignored(self, stats):
        packet = make_data_packet("p", 1, 2)
        stats.data_originated(packet)
        stats.data_delivered(packet, 1.0)
        assert stats.total_sent == 0
        assert stats.total_delivered == 0

    def test_empty_collector_ratios_are_zero(self, stats):
        assert stats.delivery_ratio == 0.0
        assert stats.mean_delay == 0.0
        assert stats.mean_hops == 0.0


class TestBroadcastFlowAccounting:
    def test_broadcast_flow_counts_per_receiver(self, stats):
        from repro.sim.packet import BROADCAST

        stats.register_flow(1, 10, BROADCAST, mode="broadcast")
        packet = make_data_packet("app", 10, BROADCAST, flow_id=1, seq=1)
        stats.data_originated(packet, expected_receivers=3)
        stats.data_delivered(packet, 1.0, receiver=20)
        stats.data_delivered(packet.copy(), 1.1, receiver=30)
        flow = stats.flows[1]
        assert flow.sent == 1
        assert flow.offered == 3
        assert flow.delivered == 2
        assert flow.delivery_ratio == pytest.approx(2 / 3)
        assert stats.delivery_ratio == pytest.approx(2 / 3)

    def test_same_receiver_same_packet_is_a_duplicate(self, stats):
        from repro.sim.packet import BROADCAST

        stats.register_flow(1, 10, BROADCAST, mode="broadcast")
        packet = make_data_packet("app", 10, BROADCAST, flow_id=1, seq=1)
        stats.data_originated(packet, expected_receivers=2)
        stats.data_delivered(packet, 1.0, receiver=20)
        stats.data_delivered(packet.copy(), 1.5, receiver=20)
        flow = stats.flows[1]
        assert flow.delivered == 1
        assert flow.duplicates == 1

    def test_unicast_flows_keep_classic_pdr_semantics(self, stats):
        """Unicast offered == sent, so the aggregate ratio is unchanged by
        the per-receiver extension."""
        stats.register_flow(1, 1, 2)
        for seq in range(4):
            packet = make_data_packet("p", 1, 2, flow_id=1, seq=seq)
            stats.data_originated(packet)
            if seq < 3:
                stats.data_delivered(packet, 1.0, receiver=2)
        flow = stats.flows[1]
        assert flow.offered == flow.sent == 4
        assert stats.delivery_ratio == pytest.approx(0.75)

    def test_zero_receiver_broadcast_sends_offer_nothing(self, stats):
        """A beacon sent with nobody in range physically offers no delivery;
        falling back to the packet count would add phantom opportunities and
        deflate reachability in sparse regimes."""
        from repro.sim.packet import BROADCAST

        stats.register_flow(1, 10, BROADCAST, mode="broadcast")
        stats.register_flow(2, 11, BROADCAST, mode="broadcast")
        for seq in range(5):  # isolated vehicle: all sends unheard
            stats.data_originated(
                make_data_packet("app", 10, BROADCAST, flow_id=1, seq=seq),
                expected_receivers=0,
            )
        for seq in range(5):  # fully-reached vehicle: 2 receivers each
            packet = make_data_packet("app", 11, BROADCAST, flow_id=2, seq=seq)
            stats.data_originated(packet, expected_receivers=2)
            stats.data_delivered(packet, 1.0, receiver=20)
            stats.data_delivered(packet.copy(), 1.0, receiver=21)
        assert stats.flows[1].delivery_ratio == 0.0
        assert stats.total_offered == 10
        assert stats.delivery_ratio == pytest.approx(1.0)

    def test_mixed_unicast_and_broadcast_aggregate(self, stats):
        from repro.sim.packet import BROADCAST

        unicast = make_data_packet("p", 1, 2, flow_id=1, seq=1)
        stats.data_originated(unicast)
        stats.data_delivered(unicast, 1.0, receiver=2)
        stats.register_flow(2, 3, BROADCAST, mode="broadcast")
        beacon = make_data_packet("app", 3, BROADCAST, flow_id=2, seq=1)
        stats.data_originated(beacon, expected_receivers=4)
        stats.data_delivered(beacon, 1.0, receiver=5)
        assert stats.total_offered == 5
        assert stats.total_delivered == 2
        assert stats.delivery_ratio == pytest.approx(0.4)

    def test_broadcast_counter_needs_a_registered_broadcast_flow(self, stats):
        from repro.sim.packet import BROADCAST

        stats.register_flow(1, 1, 2)
        with pytest.raises(ValueError, match="broadcast flow"):
            stats.broadcast_counter(make_data_packet("p", 1, 2, flow_id=1), 1.0)
        with pytest.raises(ValueError, match="broadcast flow"):
            stats.broadcast_counter(make_data_packet("p", 1, BROADCAST, flow_id=9), 1.0)
        with pytest.raises(ValueError, match="broadcast flow"):
            stats.broadcast_counter(make_data_packet("p", 1, BROADCAST), 1.0)

    def test_broadcast_counter_counts_like_data_delivered(self, stats):
        from repro.sim.packet import BROADCAST

        stats.register_flow(1, 10, BROADCAST, mode="broadcast")
        packet = make_data_packet("app", 10, BROADCAST, flow_id=1, seq=1, created_at=0.5)
        stats.data_originated(packet, expected_receivers=2)
        count = stats.broadcast_counter(packet, 1.0)
        assert [count(20), count(30), count(20)] == [True, True, False]
        flow = stats.flows[1]
        assert (flow.delivered, flow.duplicates) == (2, 1)
        assert flow.delays == [0.5, 0.5] and flow.hop_counts == [1, 1]


class TestBroadcastDedupMemory:
    def test_retire_bounds_the_dedup_table(self, stats):
        """Memory regression: broadcast dedup used to keep one
        (receiver, packet) tuple per delivery for the whole run -- millions
        in city-scale 10 Hz beacon sweeps.  Retiring packets as they leave
        flight must bound the table by the in-flight window while the
        delivered count keeps growing."""
        from repro.sim.packet import BROADCAST

        stats.register_flow(1, 10, BROADCAST, mode="broadcast")
        receivers, window = 50, 5
        in_flight = []
        for seq in range(1, 201):
            packet = make_data_packet("app", 10, BROADCAST, flow_id=1, seq=seq)
            stats.data_originated(packet, expected_receivers=receivers)
            for receiver in range(100, 100 + receivers):
                stats.data_delivered(packet.copy(), 1.0, receiver=receiver)
            in_flight.append(packet.flow_key)
            if len(in_flight) > window:
                stats.packet_retired(1, in_flight.pop(0))
        flow = stats.flows[1]
        assert flow.delivered == 200 * receivers
        assert flow.duplicates == 0
        # Bounded by the sliding window, not by the 10 000 total deliveries.
        assert stats.dedup_entries <= window * receivers

    def test_duplicates_still_detected_before_retire(self, stats):
        from repro.sim.packet import BROADCAST

        stats.register_flow(1, 10, BROADCAST, mode="broadcast")
        packet = make_data_packet("app", 10, BROADCAST, flow_id=1, seq=1)
        stats.data_originated(packet, expected_receivers=2)
        assert stats.data_delivered(packet, 1.0, receiver=20) is True
        assert stats.data_delivered(packet.copy(), 1.1, receiver=20) is False
        stats.packet_retired(1, packet.flow_key)
        assert stats.dedup_entries == 0
        assert stats.flows[1].delivered == 1
        assert stats.flows[1].duplicates == 1

    def test_retiring_unknown_flow_or_key_is_a_noop(self, stats):
        stats.packet_retired(99, (1, 99, 1))
        stats.register_flow(1, 10, -1, mode="broadcast")
        stats.packet_retired(1, (10, 1, 77))  # never delivered
        assert stats.dedup_entries == 0

    def test_unicast_dedup_is_untouched_by_retire(self, stats):
        packet = make_data_packet("p", 1, 2, flow_id=1, seq=1)
        stats.data_originated(packet)
        stats.data_delivered(packet, 1.0, receiver=2)
        stats.packet_retired(1, packet.flow_key)
        # Unicast keys feed the path-stretch metric and stay for the run.
        assert stats.flows[1].delivered_keys == {packet.flow_key}
        assert stats.data_delivered(packet.copy(), 2.0, receiver=2) is False


class TestOverheadAccounting:
    def test_control_and_data_transmissions_separated(self, stats):
        stats.transmission(make_control_packet("p", "RREQ", 1, size_bytes=50))
        stats.transmission(make_control_packet("p", "HELLO", 1, size_bytes=32))
        stats.transmission(make_data_packet("p", 1, 2, size_bytes=512))
        assert stats.control_transmissions == 2
        assert stats.data_transmissions == 1
        assert stats.control_bytes == 82
        assert stats.data_bytes == 512

    def test_beacon_vs_discovery_split(self, stats):
        for _ in range(3):
            stats.transmission(make_control_packet("p", "HELLO", 1))
        for _ in range(2):
            stats.transmission(make_control_packet("p", "RREQ", 1))
        assert stats.beacon_transmissions == 3
        assert stats.discovery_transmissions == 2

    def test_overhead_ratio_uses_deliveries(self, stats):
        packet = make_data_packet("p", 1, 2, flow_id=1, seq=1)
        stats.data_originated(packet)
        stats.data_delivered(packet, 1.0)
        for _ in range(4):
            stats.transmission(make_control_packet("p", "RREQ", 1))
        assert stats.overhead_ratio == pytest.approx(4.0)

    def test_overhead_ratio_without_delivery_reports_raw_control(self, stats):
        for _ in range(7):
            stats.transmission(make_control_packet("p", "RREQ", 1))
        assert stats.overhead_ratio == pytest.approx(7.0)

    def test_summary_contains_headline_metrics(self, stats):
        summary = stats.summary()
        for key in (
            "delivery_ratio",
            "overhead_ratio",
            "mean_delay_s",
            "mac_collisions",
            "control_transmissions",
            "beacon_transmissions",
            "discovery_transmissions",
        ):
            assert key in summary


class TestRoutingEvents:
    def test_route_discovery_latency(self, stats):
        stats.route_discovery_started()
        stats.route_discovery_completed(0.25)
        stats.route_discovery_completed(0.75)
        assert stats.route_discoveries_started == 1
        assert stats.route_discoveries_completed == 2
        assert stats.mean_route_discovery_latency == pytest.approx(0.5)

    def test_route_lifetime_mean(self, stats):
        stats.route_lifetime(2.0)
        stats.route_lifetime(4.0)
        assert stats.mean_route_lifetime == pytest.approx(3.0)

    def test_loss_counters_increment(self, stats):
        stats.collision()
        stats.weak_signal()
        stats.queue_drop()
        stats.ttl_drop()
        stats.no_route_drop()
        stats.buffer_drop()
        summary = stats.summary()
        assert summary["mac_collisions"] == 1
        assert summary["phy_weak_signal"] == 1
        assert summary["mac_queue_drops"] == 1
        assert summary["ttl_drops"] == 1
        assert summary["no_route_drops"] == 1
        assert summary["buffer_drops"] == 1

    def test_summary_covers_every_scalar_counter(self, stats):
        """Every integer counter on the collector must surface in summary().

        Regression test: ``buffer_drops`` (and ``data_bytes``) were counted
        but silently missing from the summary, so store-carry protocols could
        drop packets without the loss ever appearing in reports.
        """
        summary = stats.summary()
        scalar_counters = [
            name
            for name, value in vars(stats).items()
            if isinstance(value, int) and not isinstance(value, bool)
        ]
        missing = [name for name in scalar_counters if name not in summary]
        assert not missing, f"counters absent from summary(): {missing}"

    def test_loss_counters_all_reported(self, stats):
        loss_counters = (
            "mac_collisions",
            "phy_weak_signal",
            "mac_queue_drops",
            "ttl_drops",
            "no_route_drops",
            "buffer_drops",
        )
        summary = stats.summary()
        for counter in loss_counters:
            assert counter in summary


class TestEventTrace:
    def test_disabled_trace_records_nothing(self):
        trace = EventTrace(enabled=False)
        trace.record(1.0, "tx", 5)
        assert len(trace) == 0

    def test_enabled_trace_records_and_filters(self):
        trace = EventTrace(enabled=True)
        trace.record(1.0, "tx", 5, ptype="RREQ")
        trace.record(2.0, "rx", 6, ptype="RREQ")
        trace.record(3.0, "tx", 6)
        assert len(trace) == 3
        assert len(trace.records(category="tx")) == 2
        assert len(trace.records(node_id=6)) == 2
        assert trace.records(category="tx", node_id=6)[0].time == 3.0

    def test_max_records_cap(self):
        trace = EventTrace(enabled=True, max_records=2)
        for i in range(5):
            trace.record(float(i), "tx", i)
        assert len(trace) == 2
        assert trace.dropped == 3

    def test_clear(self):
        trace = EventTrace(enabled=True)
        trace.record(1.0, "tx", 1)
        trace.clear()
        assert len(trace) == 0
