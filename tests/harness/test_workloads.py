"""Tests for the workload registry and the built-in traffic models."""

import random
from dataclasses import replace

import pytest

from repro.harness.runner import ExperimentRunner
from repro.harness.scenario import Scenario, highway_scenario
from repro.mobility.generator import TrafficDensity
from repro.protocols.location import LocationService
from repro.protocols.registry import make_protocol_factory
from repro.sim.packet import BROADCAST
from repro.workloads import WORKLOADS, CbrWorkload, SafetyBeaconWorkload, Workload
from repro.workloads.cbr import CbrFlow
from repro.workloads.registry import with_traffic


def _small_scenario(**overrides) -> Scenario:
    """A small highway run with two flows (or sessions) where the workload takes a count."""
    base = highway_scenario(
        TrafficDensity.SPARSE,
        duration_s=12.0,
        max_vehicles=25,
        seed=3,
    )
    return with_traffic(base.with_overrides(**overrides), {"flows": 2})


class TestRegistry:
    def test_builtin_kinds_are_registered(self):
        kinds = WORKLOADS.names()
        for kind in ("cbr", "poisson", "safety-beacon", "event-burst", "v2i"):
            assert kind in kinds

    def test_unknown_workload_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="safety-beacon"):
            WORKLOADS.resolve("nothing-like-this")

    def test_kind_resolution_instantiates_with_params(self):
        workload = WORKLOADS.resolve("safety-beacon", interval_s=0.25)
        assert isinstance(workload, SafetyBeaconWorkload)
        assert workload.interval_s == 0.25

    def test_preset_resolution_applies_overrides_on_top(self):
        preset = WORKLOADS.resolve("safety-beacon-10hz")
        assert preset.interval_s == pytest.approx(0.1)
        overridden = WORKLOADS.resolve("safety-beacon-10hz", size_bytes=400)
        assert overridden.interval_s == pytest.approx(0.1)
        assert overridden.size_bytes == 400

    def test_register_and_unregister_plugin_kind(self):
        @WORKLOADS.register("test-noop")
        class NoopWorkload(Workload):
            """Does nothing (test plug-in)."""

            def build(self, scenario, built, rng):
                return []

        try:
            assert isinstance(WORKLOADS.resolve("test-noop"), NoopWorkload)
            with pytest.raises(ValueError, match="already registered"):
                WORKLOADS.register("test-noop")(NoopWorkload)
        finally:
            WORKLOADS.unregister("test-noop")
        assert "test-noop" not in WORKLOADS

    def test_rows_cover_every_kind_and_preset(self):
        assert {row["workload"] for row in WORKLOADS.kind_rows()} == set(WORKLOADS.kinds)
        preset_rows = WORKLOADS.preset_rows()
        assert {row["preset"] for row in preset_rows} == set(WORKLOADS.presets)
        assert all(row["workload"] in WORKLOADS.kinds for row in preset_rows)

    def test_default_flow_count_is_unified(self):
        """The ``cbr`` constructor is the one source of the flow count: a
        bare-kind CLI run and a default ``Scenario`` run the same flows."""
        from repro.cli import _run_scenario, build_parser

        args = build_parser().parse_args(
            ["run", "Greedy", "--duration", "6", "--max-vehicles", "10"]
        )
        via_cli = ExperimentRunner().run(_run_scenario(args), "Greedy")
        via_python = ExperimentRunner().run(Scenario(duration_s=6.0, max_vehicles=10), "Greedy")
        assert len(via_cli.flow_details) == len(via_python.flow_details)
        assert len(via_python.flow_details) == CbrWorkload().flow_count


def _legacy_schedule_flows(built):
    """Verbatim copy of the pre-redesign ``ExperimentRunner._schedule_flows``.

    The trace-equivalence acceptance test runs this frozen reference next to
    the registry-resolved ``cbr`` workload: both must produce the same
    schedule (and therefore the same summary) for the same seed.  The
    scenario fields it used to read (``flows``, ``flow_template``,
    ``default_flow_count``) are now the workload's ``flows`` and constructor
    values; a pinned flow's unset fields take the workload's values, as they
    took the template's defaults.
    """
    import math

    scenario = built.scenario
    workload = WORKLOADS.resolve(scenario.workload, **scenario.workload_params)
    rng = built.sim.rng.stream("traffic")
    timing = ("start_time_s", "interval_s", "packet_count", "size_bytes")
    specs = [
        replace(
            flow,
            **{name: getattr(workload, name) for name in timing if getattr(flow, name) is None},
        )
        for flow in workload.flows
    ]
    if not specs:
        specs = [
            CbrFlow(
                start_time_s=workload.start_time_s,
                interval_s=workload.interval_s,
                packet_count=workload.packet_count,
                size_bytes=workload.size_bytes,
            )
            for _ in range(workload.flow_count)
        ]
    flows = []
    vehicles = built.vehicle_nodes
    if len(vehicles) < 2:
        return flows

    def ideal_hops(source, destination):
        range_m = built.radio_range_m
        distance = source.position.distance_to(destination.position)
        return max(1.0, math.ceil(distance / max(range_m, 1.0)))

    def send_flow_packet(source, destination, size_bytes, flow_id, seq):
        built.ideal_hop_samples[(source.node_id, flow_id, seq)] = ideal_hops(
            source, destination
        )
        if source.protocol is not None:
            source.protocol.send_data(
                destination.node_id, size_bytes=size_bytes, flow_id=flow_id, seq=seq
            )

    for flow_id, spec in enumerate(specs, start=1):
        source_index = spec.source_index
        destination_index = spec.destination_index
        if source_index is None or destination_index is None:
            source_index = rng.randrange(len(vehicles))
            destination_index = rng.randrange(len(vehicles))
            while destination_index == source_index:
                destination_index = rng.randrange(len(vehicles))
        source = vehicles[source_index % len(vehicles)]
        destination = vehicles[destination_index % len(vehicles)]
        built.stats.register_flow(flow_id, source.node_id, destination.node_id)
        flows.append(
            {
                "flow_id": flow_id,
                "source": source.node_id,
                "destination": destination.node_id,
            }
        )
        for packet_index in range(spec.packet_count):
            send_time = spec.start_time_s + packet_index * spec.interval_s
            if send_time > scenario.duration_s:
                break
            built.sim.schedule_at(
                send_time,
                send_flow_packet,
                source,
                destination,
                spec.size_bytes,
                flow_id,
                packet_index + 1,
            )
    return flows


def _legacy_run_summary(scenario, protocol_name):
    """Run ``scenario`` the pre-redesign way and return the metric summary."""
    runner = ExperimentRunner()
    built = runner.build(scenario)
    location_service = LocationService(built.network)
    factory = make_protocol_factory(
        protocol_name,
        config=None,
        location_service=location_service,
        road_graph=built.road_graph,
    )
    built.network.attach_protocols(factory)
    _legacy_schedule_flows(built)
    built.network.start()
    built.sim.run(until=scenario.duration_s + scenario.drain_s)
    return built.stats.summary()


class TestCbrTraceEquivalence:
    @pytest.mark.parametrize("seed", [3, 21])
    @pytest.mark.parametrize("protocol", ["Greedy", "Flooding"])
    def test_default_cbr_reproduces_the_pre_redesign_runner(self, seed, protocol):
        """Acceptance: same seeds -> same ``RunRecord.summary`` as before the
        workload redesign."""
        scenario = _small_scenario(seed=seed)
        legacy = _legacy_run_summary(scenario, protocol)
        current = ExperimentRunner().run(scenario, protocol)
        assert current.workload == "cbr"
        assert current.summary == legacy

    def test_explicit_flows_and_pinned_endpoints_match_legacy(self):
        flows = [
            CbrFlow(source_index=0, destination_index=4, start_time_s=2.0, packet_count=5),
            CbrFlow(start_time_s=3.0, packet_count=4),
        ]
        scenario = _small_scenario(workload_params={"flows": flows})
        legacy = _legacy_run_summary(scenario, "Greedy")
        current = ExperimentRunner().run(scenario, "Greedy")
        assert current.summary == legacy


class TestCbrWorkload:
    def test_degenerate_flow_start_warns_and_is_excluded(self):
        flows = [
            CbrFlow(source_index=0, destination_index=1, start_time_s=2.0, packet_count=3),
            CbrFlow(source_index=2, destination_index=3, start_time_s=12.5, packet_count=3),
        ]
        scenario = _small_scenario(workload_params={"flows": flows})
        runner = ExperimentRunner()
        with pytest.warns(RuntimeWarning, match="past the"):
            result = runner.run(scenario, "Flooding")
        # Only the live flow is registered and counted.
        assert len(result.flow_details) == 1
        assert result.summary["data_sent"] == 3.0

    def test_degenerate_flow_does_not_shift_later_endpoint_draws(self):
        """Skipping a degenerate flow must consume the same RNG draws the
        legacy scheduler consumed for it, so the surviving unpinned flows
        keep their legacy endpoints."""
        def with_flows():
            flows = [CbrFlow(start_time_s=50.0, packet_count=3), CbrFlow(packet_count=3)]
            return _small_scenario(workload_params={"flows": flows})

        runner = ExperimentRunner()
        built = runner.build(with_flows())
        _legacy_schedule_flows(built)
        legacy_flow = built.stats.flows[2]  # the live flow; flow 1 is dead
        with pytest.warns(RuntimeWarning, match="past the"):
            result = runner.run(with_flows(), "Flooding")
        (current_flow,) = [f for f in result.stats.flows.values()]
        assert current_flow.flow_id == 2
        assert (current_flow.source, current_flow.destination) == (
            legacy_flow.source,
            legacy_flow.destination,
        )

    def test_flow_starting_exactly_at_duration_sends_one_packet(self):
        """The guard boundary agrees with the scheduling loop (and the
        legacy scheduler): a start exactly at duration_s is not degenerate
        -- it sends its first packet at t == duration."""
        flow = CbrFlow(source_index=0, destination_index=1, start_time_s=12.0, packet_count=3)
        scenario = _small_scenario(workload_params={"flows": [flow]})
        result = ExperimentRunner().run(scenario, "Flooding")
        assert len(result.flow_details) == 1
        assert result.summary["data_sent"] == 1.0

    def test_workload_params_override_the_template(self):
        scenario = _small_scenario(
            workload_params={"flow_count": 1, "packet_count": 4, "start_time_s": 1.0}
        )
        result = ExperimentRunner().run(scenario, "Flooding")
        assert len(result.flow_details) == 1
        assert result.summary["data_sent"] == 4.0

    def test_single_vehicle_schedules_nothing(self):
        workload = CbrWorkload()
        scenario = _small_scenario(max_vehicles=1)
        runner = ExperimentRunner()
        built = runner.build(scenario)
        assert workload.build(scenario, built, random.Random(0)) == []


class TestSafetyBeaconWorkload:
    def test_runs_end_to_end_with_per_receiver_accounting(self):
        scenario = _small_scenario(workload="safety-beacon")
        result = ExperimentRunner().run(scenario, "Greedy")
        assert result.workload == "safety-beacon"
        assert result.summary["data_sent"] > 0
        assert 0.0 <= result.summary["delivery_ratio"] <= 1.0
        assert "mean_beacon_receivers" in result.extra
        # One broadcast flow per vehicle.
        assert len(result.flow_details) == result.vehicle_count
        for flow in result.stats.flows.values():
            assert flow.mode == "broadcast"
            assert flow.destination == BROADCAST

    def test_beacon_interval_preset_sends_proportionally_more(self):
        slow = ExperimentRunner().run(
            _small_scenario(workload="safety-beacon", workload_params={"interval_s": 2.0}),
            "Greedy",
        )
        fast = ExperimentRunner().run(
            _small_scenario(workload="safety-beacon-10hz"), "Greedy"
        )
        assert fast.summary["data_sent"] > 5 * slow.summary["data_sent"]

    def test_reproducible_per_seed(self):
        scenario = _small_scenario(workload="safety-beacon")
        first = ExperimentRunner().run(scenario, "Greedy")
        second = ExperimentRunner().run(scenario, "Greedy")
        assert first.summary == second.summary

    def test_jittered_phase_past_duration_excludes_the_dead_flow(self):
        """A vehicle whose randomised first beacon lands after duration_s
        must not leave a registered zero-send flow behind."""
        scenario = _small_scenario(
            workload="safety-beacon",
            workload_params={"start_time_s": 11.8, "interval_s": 0.5},
        )
        result = ExperimentRunner().run(scenario, "Greedy")
        # With a 0.5 s phase window over the last 0.2 s of a 12 s run, some
        # vehicles send and some do not; whoever is registered must have sent.
        assert result.stats.flows
        assert all(flow.sent > 0 for flow in result.stats.flows.values())
        assert len(result.flow_details) < result.vehicle_count

    def test_beacon_dedup_memory_stays_bounded(self):
        """Memory regression (ROADMAP PR 4 follow-up): the stats collector
        used to keep one (receiver, packet) dedup tuple per delivery for the
        whole run.  Beacons past their scope linger must release their dedup
        entries, so a long run holds a sliding window rather than every
        delivery ever made."""
        from repro.workloads.safety_beacon import SCOPE_LINGER_S

        scenario = _small_scenario(
            workload="safety-beacon",
            duration_s=SCOPE_LINGER_S + 6.0,
            max_vehicles=12,
        )
        result = ExperimentRunner().run(scenario, "Greedy")
        delivered = result.stats.total_delivered
        assert delivered > 0
        # Everything delivered before (end - linger) has been retired; only
        # the trailing window may still hold dedup state.
        assert result.stats.dedup_entries < delivered

    def test_reachability_bounded_under_shadowing(self):
        """Shadowed channels occasionally deliver beyond the nominal range;
        such receptions must be consumed without counting, or the
        reachability ratio would exceed 1 (delivered against a frozen
        in-range denominator)."""
        scenario = _small_scenario(
            workload="safety-beacon",
            radio_stack="shadowing",
            radio_params={"sigma_db": 8.0},
        )
        result = ExperimentRunner().run(scenario, "Greedy")
        assert result.summary["data_sent"] > 0
        assert 0.0 <= result.summary["delivery_ratio"] <= 1.0
        for flow in result.stats.flows.values():
            assert flow.delivered <= flow.offered


class TestEventBurstWorkload:
    def test_runs_end_to_end_with_scoped_accounting(self):
        scenario = _small_scenario(
            workload="event-burst",
            workload_params={"event_count": 3, "repeats": 2},
        )
        result = ExperimentRunner().run(scenario, "Greedy")
        assert result.summary["data_sent"] == 3 * 2
        assert 0.0 <= result.summary["delivery_ratio"] <= 1.0
        assert result.extra["events_triggered"] == 3.0

    def test_warning_repeats_never_originate_past_duration(self):
        """Short runs clamp the trigger near the end of the window; the
        repeat burst must cut off at duration_s like every other workload
        instead of originating fresh traffic in the drain period."""
        scenario = _small_scenario(
            duration_s=1.2,
            workload="event-burst",
            workload_params={"event_count": 1, "repeats": 3, "repeat_interval_s": 0.5},
        )
        result = ExperimentRunner().run(scenario, "Flooding")
        # Trigger at t=1.0: only the t=1.0 repeat fits inside 1.2 s.
        assert result.summary["data_sent"] == 1.0

    def test_zero_events_is_a_quiet_run(self):
        scenario = _small_scenario(workload="event-burst", workload_params={"event_count": 0})
        result = ExperimentRunner().run(scenario, "Greedy")
        assert result.summary["data_sent"] == 0.0

    def test_dedup_state_expires_on_the_scope_linger_bound(self):
        """Frozen scopes, the rebroadcast dedup and the stats dedup must be
        released SCOPE_LINGER_S after each burst instead of accumulating for
        the whole run (they used to leak until teardown)."""
        from repro.workloads.safety_beacon import SCOPE_LINGER_S

        scenario = _small_scenario(
            duration_s=6.0,
            workload="event-burst",
            workload_params={"event_count": 2, "repeats": 2},
        )
        runner = ExperimentRunner()
        built = runner.build(scenario)
        from repro.protocols.location import LocationService
        from repro.protocols.registry import make_protocol_factory

        factory = make_protocol_factory(
            "Flooding",
            location_service=LocationService(built.network),
            road_graph=built.road_graph,
        )
        built.network.attach_protocols(factory)
        workload = WORKLOADS.resolve(
            scenario.workload, **dict(scenario.workload_params)
        )
        workload.build(scenario, built, built.sim.rng.stream("traffic"))
        built.network.start()
        built.sim.run(until=scenario.duration_s)
        delivered_before = built.stats.summary()["data_delivered"]
        assert built.stats.dedup_entries > 0
        # Past the last burst plus the linger bound every dedup table is
        # empty again, and no late counting happened.
        built.sim.run(until=scenario.duration_s + SCOPE_LINGER_S + 1.0)
        assert built.stats.dedup_entries == 0
        assert built.stats.summary()["data_delivered"] == delivered_before


class TestV2IWorkload:
    def test_request_response_sessions_run_over_rsus(self):
        scenario = _small_scenario(
            workload="v2i",
            rsu_spacing_m=500.0,
            workload_params={"session_count": 2, "requests_per_session": 4},
        )
        result = ExperimentRunner().run(scenario, "Greedy")
        assert result.workload == "v2i"
        assert result.summary["data_sent"] >= 8  # requests, plus any responses
        assert "v2i_round_trip_ratio" in result.extra
        request_flows = [f for fid, f in result.stats.flows.items() if fid % 2 == 1]
        assert request_flows and all(f.sent > 0 for f in request_flows)
        delivered_requests = sum(f.delivered for f in request_flows)
        response_flows = [f for fid, f in result.stats.flows.items() if fid % 2 == 0]
        # Every delivered request triggers exactly one response offer.
        assert sum(f.sent for f in response_flows) == delivered_requests

    def test_without_rsus_warns_and_sends_nothing(self):
        scenario = _small_scenario(workload="v2i")
        runner = ExperimentRunner()
        with pytest.warns(RuntimeWarning, match="road-side units"):
            result = runner.run(scenario, "Greedy")
        assert result.summary["data_sent"] == 0.0


class TestPoissonWorkload:
    def test_runs_and_is_reproducible_per_seed(self):
        scenario = _small_scenario(workload="poisson")
        first = ExperimentRunner().run(scenario, "Flooding")
        second = ExperimentRunner().run(scenario, "Flooding")
        assert first.summary == second.summary
        assert first.summary["data_sent"] > 0

    def test_different_seeds_draw_different_schedules(self):
        first = ExperimentRunner().run(_small_scenario(workload="poisson"), "Flooding")
        second = ExperimentRunner().run(
            _small_scenario(workload="poisson", seed=77), "Flooding"
        )
        assert first.summary != second.summary

    def test_nonpositive_parameters_rejected(self):
        from repro.workloads import PoissonWorkload

        with pytest.raises(ValueError, match="arrival_rate_per_s"):
            PoissonWorkload(arrival_rate_per_s=0.0)
        with pytest.raises(ValueError, match="mean_interval_s"):
            PoissonWorkload(mean_interval_s=-1.0)


class TestParameterValidation:
    """Out-of-range workload parameters fail at construction, by name."""

    @pytest.mark.parametrize(
        "param, value",
        [
            ("flow_count", -1),
            ("packet_count", -1),
            ("interval_s", -0.5),
            ("size_bytes", -300),
            ("size_bytes", 0),
        ],
    )
    def test_cbr_rejects_out_of_range(self, param, value):
        with pytest.raises(ValueError, match=param):
            CbrWorkload(**{param: value})

    def test_cbr_zero_interval_is_a_legal_burst(self):
        assert CbrWorkload(interval_s=0.0, flow_count=0, packet_count=0).interval_s == 0.0

    def test_beacon_rejects_negative_size(self):
        with pytest.raises(ValueError, match="size_bytes"):
            SafetyBeaconWorkload(size_bytes=-300)

    def test_registry_resolution_surfaces_the_named_error(self):
        with pytest.raises(ValueError, match="flow_count"):
            WORKLOADS.resolve("cbr", flow_count=-1)

    @pytest.mark.parametrize(
        "kind, param, value",
        [
            ("poisson", "size_bytes", -10),
            ("poisson", "size_bytes", 0),
            ("event-burst", "size_bytes", 0),
            ("event-burst", "repeat_interval_s", -0.5),
            ("event-burst", "repeat_interval_s", float("nan")),
            ("event-burst", "repeat_interval_s", float("inf")),
            ("v2i", "request_size_bytes", -1),
            ("v2i", "response_size_bytes", 0),
            ("v2i", "session_count", -1),
            ("v2i", "requests_per_session", -1),
            ("v2i", "request_interval_s", -0.5),
        ],
    )
    def test_sizes_and_repeat_interval_rejected(self, kind, param, value):
        with pytest.raises(ValueError, match=param):
            WORKLOADS.resolve(kind, **{param: value})

    def test_v2i_zero_counts_and_interval_are_legal(self):
        workload = WORKLOADS.resolve(
            "v2i", session_count=0, requests_per_session=0, request_interval_s=0.0
        )
        assert (workload.session_count, workload.request_interval_s) == (0, 0.0)

    def test_zero_repeat_interval_and_default_poisson_size_are_legal(self):
        assert WORKLOADS.resolve("event-burst", repeat_interval_s=0.0).repeat_interval_s == 0.0
        assert WORKLOADS.resolve("poisson").size_bytes == 512

    def test_bad_size_fails_a_preset_run_by_name(self):
        from repro.harness.scenarios import scenario_from_name

        scenario = scenario_from_name(
            "city-grid-2km-sparse",
            seed=1,
            duration_s=4.0,
            max_vehicles=20,
            workload="poisson",
            workload_params={"size_bytes": -10},
        )
        with pytest.raises(ValueError, match="size_bytes"):
            ExperimentRunner().run(scenario, "Greedy")


class TestDegenerateStartGuards:
    """Every timed workload warns (instead of silently idling) when its
    start time leaves nothing to schedule -- the cbr guard's semantics,
    applied across the registry."""

    @pytest.mark.parametrize(
        "workload, params",
        [
            ("safety-beacon", {"start_time_s": 50.0}),
            ("poisson", {"start_time_s": 50.0}),
            ("v2i", {"start_time_s": 50.0}),
        ],
    )
    def test_start_past_duration_warns_and_sends_nothing(self, workload, params):
        scenario = _small_scenario(
            workload=workload, workload_params=params, rsu_spacing_m=500.0
        )
        with pytest.warns(RuntimeWarning):
            result = ExperimentRunner().run(scenario, "Flooding")
        assert result.summary["data_sent"] == 0.0
        assert not result.stats.flows
