"""Event and event-queue primitives for the discrete-event simulator.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
guarantees FIFO ordering for events scheduled at the same instant, which in
turn makes every simulation run fully deterministic for a given seed.

:class:`EventQueue` is a binary heap of ``(time, priority, seq, event)``
tuples.  Tuples compare in C and ``seq`` is unique, so the heap never
compares two :class:`Event` objects.  Deletion is lazy but *active*:
:meth:`Event.cancel` notifies the owning queue, and once more than half of
the pending events are dead the queue compacts them away instead of letting
them rot until popped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

#: Compaction never triggers below this many pending events; filtering a
#: tiny queue costs more bookkeeping than the dead entries do.
_COMPACT_MIN_SIZE = 64


@dataclass(eq=False, slots=True)
class Event:
    """A single scheduled callback.

    Attributes:
        time: Simulation time at which the callback fires.
        priority: Tie-breaker for events at the same time (lower fires first).
        seq: Monotonically increasing sequence number (second tie-breaker).
        callback: Callable invoked when the event fires.
        args: Positional arguments passed to the callback.
        cancelled: When True the event is skipped by the engine.
    """

    time: float
    priority: int = 0
    seq: int = 0
    callback: Optional[Callable[..., Any]] = field(default=None)
    args: tuple[Any, ...] = field(default=())
    cancelled: bool = field(default=False)
    _owner: Optional["EventQueue"] = field(default=None, repr=False)

    def cancel(self) -> None:
        """Mark the event dead and notify the owning queue.

        The queue counts dead entries and compacts once they outnumber the
        live ones, so cancelled events no longer rot until popped.
        """
        if not self.cancelled:
            self.cancelled = True
            if self._owner is not None:
                self._owner._note_cancelled()

    def fire(self) -> None:
        """Invoke the callback unless the event was cancelled."""
        if not self.cancelled and self.callback is not None:
            self.callback(*self.args)


class EventQueue:
    """Pending events in ``(time, priority, seq)`` order."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._cancelled = 0

    def __len__(self) -> int:
        """Pending events, *including* cancelled ones (see ``live_count``)."""
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def live_count(self) -> int:
        """Pending events that will actually fire (cancelled ones excluded)."""
        return len(self._heap) - self._cancelled

    @property
    def cancelled_count(self) -> int:
        """Pending events that were cancelled but not yet reclaimed."""
        return self._cancelled

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple[Any, ...] = (),
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at ``time`` and return the event."""
        seq = self._seq + 1
        self._seq = seq
        event = Event(time, priority, seq, callback, args, False, self)
        heappush(self._heap, (time, priority, seq, event))
        return event

    def pop(self) -> Event:
        """Remove and return the earliest *live* event.

        Cancelled events are silently reclaimed along the way (mirroring
        ``peek_time``).  Raises :class:`IndexError` when no live event
        remains.
        """
        event = self.pop_due()
        if event is None:
            raise IndexError("pop from an empty EventQueue")
        return event

    def pop_due(self, until: Optional[float] = None) -> Optional[Event]:
        """Pop the earliest live event with ``time <= until``, else ``None``.

        The engine's hot loop uses this instead of ``peek_time`` + ``pop``
        so the front of the queue is located once per iteration.
        """
        heap = self._heap
        if heap and heap[0][3].cancelled:
            self._discard_cancelled_front()
        if not heap or (until is not None and heap[0][0] > until):
            return None
        event = heappop(heap)[3]
        event._owner = None
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the earliest pending non-cancelled event, or ``None``."""
        self._discard_cancelled_front()
        return self._heap[0][0] if self._heap else None

    def snapshot(self) -> list[Event]:
        """All pending events (cancelled included) in fire order.

        Introspection/debug helper for tests that pin a schedule without
        reaching into queue internals; the queue is left untouched.
        """
        return [entry[3] for entry in sorted(self._heap)]

    def clear(self) -> None:
        """Drop every pending event."""
        # Detach first: a stale handle cancelled after `clear()` must not
        # touch this queue's dead-event accounting.
        for entry in self._heap:
            entry[3]._owner = None
        self._heap.clear()
        self._cancelled = 0

    def _discard_cancelled_front(self) -> None:
        """Reclaim the cancelled events at the front of the heap."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)[3]._owner = None
            self._cancelled -= 1

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        heap = self._heap
        if self._cancelled * 2 > len(heap) and len(heap) >= _COMPACT_MIN_SIZE:
            heap[:] = [entry for entry in heap if not entry[3].cancelled]
            heapify(heap)
            self._cancelled = 0
