"""Tests for shared-memory mobility staging (repro.harness.shared_build)."""

import glob

import pytest

from repro.harness import shared_build
from repro.harness.runner import ExperimentRunner
from repro.harness.scenario import Scenario
from repro.harness.sweep import sweep_replications
from repro.sim.rng import RandomStreams

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _scenario(**overrides):
    base = dict(
        name="shared-build-test",
        kind="highway",
        duration_s=4.0,
        seed=11,
        max_vehicles=10,
    )
    base.update(overrides)
    return Scenario(**base)


class TestMobilityBuildKey:
    def test_key_ignores_non_mobility_axes(self):
        base = _scenario()
        for variant in (
            _scenario(name="renamed"),
            _scenario(workload="safety-beacon"),
            _scenario(workload_params={"interval_s": 0.5}),
            _scenario(radio_stack="dsrc-highway-los"),
            _scenario(radio_params={"communication_range_m": 100.0}),
            _scenario(bus_count=2),
        ):
            assert shared_build.mobility_build_key(variant) == (
                shared_build.mobility_build_key(base)
            )

    def test_key_keeps_mobility_axes(self):
        base = _scenario()
        for variant in (
            _scenario(seed=12),
            _scenario(max_vehicles=11),
            _scenario(duration_s=5.0),
            _scenario(kind="manhattan"),
            _scenario(mobility_step_s=0.25),
        ):
            assert shared_build.mobility_build_key(variant) != (
                shared_build.mobility_build_key(base)
            )


class TestArenaLifecycle:
    def test_stage_deduplicates_by_key(self):
        with shared_build.MobilityArena() as arena:
            a = arena.stage(_scenario())
            b = arena.stage(_scenario(workload="poisson", bus_count=3))
            c = arena.stage(_scenario(seed=99))
            assert a is b
            assert c.shm_name != a.shm_name

    def test_close_unlinks_segments(self):
        arena = shared_build.MobilityArena()
        ticket = arena.stage(_scenario())
        path = f"/dev/shm/{ticket.shm_name}"
        assert glob.glob(path)
        arena.close()
        shared_build.detach_all()
        assert not glob.glob(path)
        # close() is idempotent.
        arena.close()

    def test_load_prebuilt_round_trips_the_build(self):
        scenario = _scenario()
        with shared_build.MobilityArena() as arena:
            ticket = arena.stage(scenario)
            prebuilt = shared_build.load_prebuilt(ticket)
            try:
                from repro.harness.scenarios import build_mobility

                rng = RandomStreams(scenario.seed).stream("mobility")
                reference = build_mobility(scenario, rng)
                staged_states = list(prebuilt.built.mobility.vehicles)
                reference_states = list(reference.mobility.vehicles)
                assert len(staged_states) == len(reference_states)
                for staged, plain in zip(staged_states, reference_states):
                    assert staged.position.x == plain.position.x
                    assert staged.position.y == plain.position.y
                    assert staged.velocity.x == plain.velocity.x
                    assert staged.velocity.y == plain.velocity.y
                # The two rng handles advanced in lockstep during the build:
                # their next draws must agree bit for bit.
                assert prebuilt.mobility_rng.random() == rng.random()
            finally:
                del prebuilt
                shared_build.detach_all()

    def test_each_load_returns_a_fresh_model(self):
        with shared_build.MobilityArena() as arena:
            ticket = arena.stage(_scenario())
            first = shared_build.load_prebuilt(ticket)
            second = shared_build.load_prebuilt(ticket)
            try:
                assert first.built is not second.built
                assert first.mobility_rng is not second.mobility_rng
            finally:
                del first, second
                shared_build.detach_all()


class TestStagedRunEquality:
    def test_prebuilt_run_matches_plain_run(self):
        scenario = _scenario(duration_s=6.0)
        plain = ExperimentRunner().run(scenario, "Flooding").to_record()
        with shared_build.MobilityArena() as arena:
            ticket = arena.stage(scenario)
            try:
                staged = ExperimentRunner().run(
                    scenario,
                    "Flooding",
                    prebuilt=shared_build.load_prebuilt(ticket),
                ).to_record()
            finally:
                shared_build.detach_all()
        plain_dict = plain.to_dict()
        staged_dict = staged.to_dict()
        plain_dict.pop("wall_clock_s", None)
        staged_dict.pop("wall_clock_s", None)
        assert staged_dict == plain_dict

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shared_sweep_matches_plain_sweep(self, workers):
        scenarios = [_scenario(duration_s=5.0)]
        seeds = [3, 4]
        plain = sweep_replications(scenarios, ["Greedy"], seeds, workers=1)
        shared = sweep_replications(
            scenarios,
            ["Greedy"],
            seeds,
            workers=workers,
            shared_mobility=True,
        )
        assert len(plain.records) == len(shared.records)
        for a, b in zip(plain.records, shared.records):
            da, db = a.to_dict(), b.to_dict()
            da.pop("wall_clock_s", None)
            db.pop("wall_clock_s", None)
            assert da == db
        # No leaked shared-memory segments once the sweep returns.
        assert not glob.glob("/dev/shm/psm_*")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shared_sweep_streams_telemetry_like_a_plain_sweep(self, tmp_path, workers):
        scenarios = [_scenario(duration_s=5.0)]
        kwargs = dict(seeds=[3, 4], monitors=["latency-dist", "timeseries", "invariant"])
        plain = sweep_replications(
            scenarios, ["Greedy", "Flooding"], telemetry=tmp_path / "plain.jsonl", **kwargs
        )
        shared = sweep_replications(
            scenarios,
            ["Greedy", "Flooding"],
            workers=workers,
            shared_mobility=True,
            telemetry=tmp_path / "shared.jsonl",
            **kwargs,
        )
        plain_bytes = (tmp_path / "plain.jsonl").read_bytes()
        assert plain_bytes
        assert (tmp_path / "shared.jsonl").read_bytes() == plain_bytes
        strip = lambda record: dict(record.to_dict(), wall_clock_s=0.0)  # noqa: E731
        assert list(map(strip, shared.records)) == list(map(strip, plain.records))
        assert all(r.extra["invariant_violations"] == 0.0 for r in shared.records)
        assert not glob.glob("/dev/shm/psm_*")


class TestRandomStreamsAdopt:
    def test_adopt_installs_before_first_use(self):
        import random

        donor = random.Random(424242)
        donor.random()  # pre-advanced stream
        probe = random.Random(424242)
        probe.random()
        streams = RandomStreams(1)
        adopted = streams.adopt("mobility", donor)
        assert streams.stream("mobility") is adopted
        assert streams.stream("mobility").random() == probe.random()

    def test_adopt_after_first_use_raises(self):
        streams = RandomStreams(1)
        streams.stream("mobility")
        import random

        with pytest.raises(ValueError, match="already created"):
            streams.adopt("mobility", random.Random(1))

    def test_adopt_leaves_other_streams_untouched(self):
        import random

        plain = RandomStreams(7)
        adopted = RandomStreams(7)
        adopted.adopt("mobility", random.Random(0))
        assert plain.stream("radio").random() == adopted.stream("radio").random()
