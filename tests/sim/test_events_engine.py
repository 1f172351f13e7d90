"""Tests for the event queue and the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import EventQueue


class TestEventQueue:
    def test_events_pop_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(3.0, lambda: order.append("c"))
        queue.push(1.0, lambda: order.append("a"))
        queue.push(2.0, lambda: order.append("b"))
        while queue:
            queue.pop().fire()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_fifo(self):
        queue = EventQueue()
        order = []
        for label in "abc":
            queue.push(1.0, lambda l=label: order.append(l))
        while queue:
            queue.pop().fire()
        assert order == ["a", "b", "c"]

    def test_priority_breaks_ties_before_sequence(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, lambda: order.append("low"), priority=1)
        queue.push(1.0, lambda: order.append("high"), priority=0)
        while queue:
            queue.pop().fire()
        assert order == ["high", "low"]

    def test_cancelled_event_does_not_fire(self):
        # `pop` now reclaims cancelled events the way `peek_time` always
        # did: a queue holding only dead events is effectively empty.
        queue = EventQueue()
        fired = []
        event = queue.push(1.0, lambda: fired.append(1))
        queue.push(2.0, lambda: fired.append(2))
        event.cancel()
        queue.pop().fire()
        assert fired == [2]
        with pytest.raises(IndexError):
            queue.pop()

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        first.cancel()
        assert queue.peek_time() == pytest.approx(2.0)


class TestSimulator:
    def test_schedule_and_run_advances_clock(self, sim):
        times = []
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.schedule(0.5, lambda: times.append(sim.now))
        end = sim.run()
        assert times == [pytest.approx(0.5), pytest.approx(1.5)]
        assert end == pytest.approx(1.5)

    def test_run_until_leaves_later_events_pending(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(2))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == pytest.approx(2.0)
        sim.run(until=10.0)
        assert fired == [1, 2]

    def test_cannot_schedule_in_the_past(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_stop_halts_processing(self, sim):
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_nested_scheduling_from_callback(self, sim):
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(1.0, lambda: fired.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == ["outer", "inner"]
        assert sim.now == pytest.approx(2.0)

    def test_events_processed_counter(self, sim):
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_reset_clears_queue_and_clock(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending_events == 0

    def test_max_events_limit(self, sim):
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        sim.run(max_events=3)
        assert sim.events_processed == 3

    def test_max_events_counts_this_call_and_checks_before_firing(self, sim):
        # Regression: the limit was checked after firing against the
        # lifetime counter, so max_events=0 fired one event and a second
        # run(max_events=3) on the same simulator fired only 2.
        fired = []
        for index in range(10):
            sim.schedule(1.0 + index, fired.append, index)
        sim.run(max_events=0)
        assert fired == []
        sim.run(max_events=3)
        assert fired == [0, 1, 2]
        sim.run(max_events=3)
        assert fired == [0, 1, 2, 3, 4, 5]
        assert sim.events_processed == 6

    def test_negative_max_events_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=-1)
        assert sim.events_processed == 0
        sim.run()  # the refused call left the simulator runnable
        assert sim.events_processed == 1

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -0.5])
    def test_schedule_rejects_non_finite_or_negative_delay(self, sim, delay):
        # NaN used to reach the calendar queue and surface as a bare
        # "cannot convert float NaN to integer" ValueError.
        with pytest.raises(SimulationError, match="finite and non-negative"):
            sim.schedule(delay, lambda: None)
        with pytest.raises(SimulationError, match="finite and non-negative"):
            sim.schedule_many([(delay, lambda: None, (), 0)])
        assert sim.live_events == 0

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_schedule_at_rejects_non_finite_time(self, sim, time):
        with pytest.raises(SimulationError, match="finite"):
            sim.schedule_at(time, lambda: None)
        with pytest.raises(SimulationError, match="finite"):
            sim.schedule_at_many([(time, lambda: None, (), 0)])
        assert sim.live_events == 0


class TestPeriodicTask:
    def test_periodic_fires_repeatedly(self, sim):
        count = []
        sim.schedule_periodic(1.0, lambda: count.append(sim.now))
        sim.run(until=5.5)
        assert len(count) == 5

    def test_periodic_cancel_stops_firing(self, sim):
        count = []
        task = sim.schedule_periodic(1.0, lambda: count.append(1))
        sim.schedule(2.5, task.cancel)
        sim.run(until=10.0)
        assert len(count) == 2

    def test_periodic_with_jitter_stays_roughly_periodic(self, sim):
        times = []
        sim.schedule_periodic(1.0, lambda: times.append(sim.now), jitter=0.2)
        sim.run(until=10.0)
        assert 7 <= len(times) <= 10
        # Centred jitter: each period is interval +/- jitter/2.
        deltas = [b - a for a, b in zip(times, times[1:])]
        assert all(0.9 - 1e-9 <= delta <= 1.1 + 1e-9 for delta in deltas)

    def test_periodic_jitter_mean_period_is_interval(self, sim):
        # Regression: uniform(0, jitter) on every re-schedule used to make
        # the mean period `interval + jitter/2` (~10% slow at jitter=0.2*I).
        times = []
        sim.schedule_periodic(1.0, lambda: times.append(sim.now), jitter=0.4)
        sim.run(until=2000.0)
        deltas = [b - a for a, b in zip(times, times[1:])]
        mean_period = sum(deltas) / len(deltas)
        assert mean_period == pytest.approx(1.0, abs=0.02)

    def test_periodic_jitter_never_schedules_in_the_past(self, sim):
        # A jitter wider than twice the interval can push the centred draw
        # negative; the delay must be clamped at zero instead of raising.
        times = []
        sim.schedule_periodic(0.1, lambda: times.append(sim.now), jitter=0.5)
        sim.run(until=20.0)
        assert times == sorted(times)
        assert len(times) > 0

    def test_invalid_interval_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_periodic(0.0, lambda: None)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf"), -1.0])
    def test_non_finite_interval_rejected(self, sim, interval):
        # Regression: a NaN interval passed `interval <= 0` and every
        # re-schedule clamped max(0.0, nan) to 0.0, so the task livelocked
        # at t=0 until max_events ran out.
        with pytest.raises(SimulationError, match="interval"):
            sim.schedule_periodic(interval, lambda: None)
        with pytest.raises(SimulationError, match="interval"):
            sim.schedule_periodic_many([(interval, lambda: None, ())])
        assert sim.live_events == 0

    @pytest.mark.parametrize("jitter", [float("nan"), float("inf"), -0.5])
    def test_non_finite_or_negative_jitter_rejected(self, sim, jitter):
        # A negative jitter used to be silently ignored.
        with pytest.raises(SimulationError, match="jitter"):
            sim.schedule_periodic(1.0, lambda: None, jitter=jitter)
        with pytest.raises(SimulationError, match="jitter"):
            sim.schedule_periodic_many([(1.0, lambda: None, ())], jitter=jitter)
        assert sim.live_events == 0

    @pytest.mark.parametrize("start_delay", [float("nan"), float("inf")])
    def test_non_finite_start_delay_rejected(self, sim, start_delay):
        with pytest.raises(SimulationError, match="start delay"):
            sim.schedule_periodic(1.0, lambda: None, start_delay=start_delay)
        assert sim.live_events == 0

    def test_negative_start_delay_still_clamped_to_now(self, sim):
        times = []
        sim.schedule_periodic(1.0, lambda: times.append(sim.now), start_delay=-3.0)
        sim.run(until=1.5)
        assert times == [0.0, 1.0]
