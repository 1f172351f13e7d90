"""The discrete-event simulation engine (clock + event loop)."""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.events import Event, EventQueue
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

    Pending events live in one :class:`~repro.sim.events.EventQueue`, a
    binary heap that fires them in ``(time, priority, seq)`` order.
    """

    def __init__(self, seed: int = 0) -> None:
        self._queue = EventQueue()
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
        if until is not None and until != until:
            # `event.time > nan` is always False: the loop would never stop.
            raise SimulationError("run horizon 'until' must not be NaN")
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
        if not -_INF < first_delay < _INF:
            raise SimulationError(f"periodic start delay must be finite (got {first_delay})")
        delay = max(0.0, first_delay)
        if self._jitter > 0:
            delay += self._rng.uniform(0.0, self._jitter)
        self._event = self._sim.schedule(delay, self._fire)

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
