"""The discrete-event simulation engine (clock + event loop)."""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

from repro.sim.events import QUEUE_IMPLEMENTATIONS, Event
from repro.sim.rng import RandomStreams

# Time arguments are validated with one negated chained comparison against
# _INF: NaN fails every comparison, so ``not lo <= x < _INF`` rejects NaN,
# infinities and out-of-range values at once, with no call on the hot path.
_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


class Simulator:
    """Event loop, simulation clock and random-stream registry.

    Typical use::

        sim = Simulator(seed=7)
        sim.schedule(1.0, my_callback, "argument")
        sim.run(until=10.0)

    ``queue_impl`` selects the event-queue implementation (``"calendar"``,
    the default, or ``"heap"``, the original binary heap kept as a
    determinism oracle).  Both produce byte-identical traces; the knob
    exists so regression tests can pin that.
    """

    def __init__(self, seed: int = 0, queue_impl: str = "calendar") -> None:
        try:
            queue_factory = QUEUE_IMPLEMENTATIONS[queue_impl]
        except KeyError:
            raise SimulationError(
                f"unknown queue_impl {queue_impl!r} "
                f"(choose from {sorted(QUEUE_IMPLEMENTATIONS)})"
            ) from None
        self._queue = queue_factory()
        self.queue_impl = queue_impl
        self._now = 0.0
        self._running = False
        self._stopped = False
        self.rng = RandomStreams(seed)
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired by completed :meth:`run` calls (progress/debug)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still pending, excluding cancelled ones.

        Historically this counted cancelled events too, over-reporting in
        progress/debug output; it is now an alias for :attr:`live_events`.
        """
        return self._queue.live_count

    @property
    def live_events(self) -> int:
        """Number of pending events that will actually fire."""
        return self._queue.live_count

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"event delay must be finite and non-negative (got {delay})")
        return self._queue.push(self._now + delay, callback, args, priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to fire at absolute time ``time``."""
        if not self._now <= time < _INF:
            raise SimulationError(
                f"event time must be finite and not in the past (time={time}, now={self._now})"
            )
        return self._queue.push(time, callback, args, priority)

    def schedule_many(
        self,
        items: Iterable[tuple[float, Callable[..., Any], tuple[Any, ...], int]],
    ) -> list[Event]:
        """Bulk variant of :meth:`schedule`.

        ``items`` holds ``(delay, callback, args, priority)`` tuples; all
        events are pushed in one queue call, in iteration order, so the
        resulting trace is byte-identical to an equivalent loop of
        :meth:`schedule` calls.
        """
        now = self._now
        batch = []
        for delay, callback, args, priority in items:
            if not 0.0 <= delay < _INF:
                raise SimulationError(
                    f"event delay must be finite and non-negative (got {delay})"
                )
            batch.append((now + delay, callback, args, priority))
        return self._queue.push_many(batch)

    def schedule_at_many(
        self,
        items: Iterable[tuple[float, Callable[..., Any], tuple[Any, ...], int]],
    ) -> list[Event]:
        """Bulk variant of :meth:`schedule_at` (absolute times)."""
        now = self._now
        batch = []
        for time, callback, args, priority in items:
            if not now <= time < _INF:
                raise SimulationError(
                    f"event time must be finite and not in the past (time={time}, now={now})"
                )
            batch.append((time, callback, args, priority))
        return self._queue.push_many(batch)

    def schedule_periodic(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        start_delay: Optional[float] = None,
        jitter: float = 0.0,
        rng_stream: str = "periodic-jitter",
    ) -> "PeriodicTask":
        """Schedule ``callback(*args)`` every ``interval`` seconds.

        ``jitter`` desynchronises periodic tasks the way real protocols
        desynchronise beacons: the first firing is offset by a uniform draw
        in ``[0, jitter]`` and every subsequent period is ``interval`` plus
        a *centred* uniform draw in ``[-jitter/2, +jitter/2]``, so the mean
        period equals ``interval`` exactly.  Delays are clamped at zero.
        ``interval`` must be finite and positive, ``jitter`` finite and
        non-negative, and ``start_delay`` finite.
        Returns a handle whose :meth:`PeriodicTask.cancel` stops the task.
        """
        task = PeriodicTask(self, interval, callback, args, jitter, rng_stream)
        first_delay = start_delay if start_delay is not None else interval
        task.start(first_delay)
        return task

    def schedule_periodic_many(
        self,
        specs: Sequence[tuple[float, Callable[..., Any], tuple[Any, ...]]],
        *,
        start_delay: Optional[float] = None,
        jitter: float = 0.0,
        rng_stream: str = "periodic-jitter",
    ) -> list["PeriodicTask"]:
        """Start a fleet of periodic tasks with one bulk queue insert.

        ``specs`` holds ``(interval, callback, args)`` tuples sharing the
        jitter configuration (the shape of per-node hello/beacon timers).
        Jitter is drawn in spec order and events are pushed in spec order,
        so the trace is byte-identical to an equivalent loop of
        :meth:`schedule_periodic` calls.
        """
        tasks: list[PeriodicTask] = []
        batch = []
        now = self._now
        for interval, callback, args in specs:
            task = PeriodicTask(self, interval, callback, tuple(args), jitter, rng_stream)
            first_delay = start_delay if start_delay is not None else interval
            batch.append((now + task._initial_delay(first_delay), task._fire, (), 0))
            tasks.append(task)
        events = self._queue.push_many(batch)
        for task, event in zip(tasks, events):
            task._event = event
        return tasks

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the event loop.

        Args:
            until: Stop once the clock would pass this time (events scheduled
                later stay in the queue).  ``None`` runs until the queue is
                empty.
            max_events: Safety valve -- fire at most this many events in
                this call (``0`` fires none).

        Returns:
            The simulation time when the loop stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        if max_events is not None and max_events < 0:
            raise SimulationError(f"max_events must be non-negative (got {max_events})")
        self._running = True
        self._stopped = False
        queue = self._queue
        # -1 never equals a count, so "no limit" costs the same single compare.
        limit = -1 if max_events is None else max_events
        fired = 0
        try:
            while not self._stopped and fired != limit:
                # One queue traversal finds, checks and removes the next
                # live event (the old peek-then-pop walked the front twice).
                event = queue.pop_due(until)
                if event is None:
                    if until is not None:
                        self._now = max(self._now, until)
                    break
                self._now = event.time
                event.fire()
                fired += 1
        finally:
            self._events_processed += fired
            self._running = False
        return self._now

    def stop(self) -> None:
        """Stop the event loop after the currently firing event returns."""
        self._stopped = True

    def reset(self) -> None:
        """Clear the queue and rewind the clock to zero (streams are kept)."""
        if self._running:
            raise SimulationError("cannot reset a running simulator")
        self._queue.clear()
        self._now = 0.0
        self._events_processed = 0
        self._stopped = False


class PeriodicTask:
    """Handle for a periodically re-scheduled callback."""

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[..., Any],
        args: tuple,
        jitter: float,
        rng_stream: str,
    ) -> None:
        if not 0.0 < interval < _INF:
            raise SimulationError(f"periodic interval must be finite and positive (got {interval})")
        if not 0.0 <= jitter < _INF:
            raise SimulationError(f"periodic jitter must be finite and non-negative (got {jitter})")
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._args = args
        self._jitter = jitter
        self._rng = sim.rng.stream(rng_stream)
        self._event: Optional[Event] = None
        self._cancelled = False

    def start(self, first_delay: float) -> None:
        """Schedule the first firing ``first_delay`` seconds from now.

        The first firing gets a one-off phase offset in ``[0, jitter]``;
        subsequent periods use a centred draw (see :meth:`_fire`).
        """
        self._event = self._sim.schedule(self._initial_delay(first_delay), self._fire)

    def _initial_delay(self, first_delay: float) -> float:
        if not -_INF < first_delay < _INF:
            raise SimulationError(f"periodic start delay must be finite (got {first_delay})")
        delay = max(0.0, first_delay)
        if self._jitter > 0:
            delay += self._rng.uniform(0.0, self._jitter)
        return delay

    def cancel(self) -> None:
        """Stop the task; a pending firing is cancelled as well."""
        self._cancelled = True
        if self._event is not None:
            self._event.cancel()

    def _fire(self) -> None:
        if self._cancelled:
            return
        self._callback(*self._args)
        if self._cancelled:
            return
        # Centred jitter keeps the mean period at exactly `interval`; an
        # offset in [0, jitter] would slow every task by jitter/2 on average
        # (10% at the conventional jitter = 0.2 * interval), skewing beacon
        # and overhead accounting.
        delay = self._interval
        if self._jitter > 0:
            delay += self._rng.uniform(-0.5 * self._jitter, 0.5 * self._jitter)
        self._event = self._sim.schedule(max(0.0, delay), self._fire)
