"""Property tests: the event queue against a plain-list reference model.

Random push / cancel / pop / pop_due / peek scripts run against
:class:`EventQueue` and against :class:`_ReferenceQueue`, a deliberately
naive list that pops the ``min`` by ``(time, priority, seq)`` and skips
cancelled events.  The observable traces must match element for element.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import Event, EventQueue

# -- operation strategies ---------------------------------------------------

_times = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
_priorities = st.integers(min_value=-2, max_value=2)

_push_op = st.tuples(st.just("push"), _times, _priorities)
_cancel_op = st.tuples(st.just("cancel"), st.integers(min_value=0))
_pop_op = st.tuples(st.just("pop"))
_pop_due_op = st.tuples(st.just("pop_due"), _times)
_peek_op = st.tuples(st.just("peek"))

_ops = st.lists(
    st.one_of(_push_op, _cancel_op, _pop_op, _pop_due_op, _peek_op),
    min_size=1,
    max_size=60,
)


def _key(event):
    return (event.time, event.priority, event.seq)


class _ReferenceQueue:
    """The ordering contract, written as plainly as possible.

    Events sit in an unsorted list; every pop scans for the ``min`` by
    ``(time, priority, seq)``.  Cancelled events are dropped when they
    would come next.  No heap, no compaction.
    """

    def __init__(self):
        self._events = []
        self._seq = 0

    @property
    def live_count(self):
        return sum(1 for event in self._events if not event.cancelled)

    def push(self, time, callback, args=(), priority=0):
        self._seq += 1
        event = Event(time=time, priority=priority, seq=self._seq, callback=callback, args=args)
        self._events.append(event)
        return event

    def _front(self):
        while self._events:
            event = min(self._events, key=_key)
            if not event.cancelled:
                return event
            self._events.remove(event)
        return None

    def pop(self):
        event = self._front()
        if event is None:
            raise IndexError("pop from an empty queue")
        self._events.remove(event)
        return event

    def pop_due(self, until=None):
        event = self._front()
        if event is None or (until is not None and event.time > until):
            return None
        self._events.remove(event)
        return event

    def peek_time(self):
        event = self._front()
        return None if event is None else event.time

    def snapshot(self):
        return sorted(self._events, key=_key)


def _run(queue, ops):
    """Run an operation script against ``queue``; return observable outputs.

    The output trace captures everything a caller can see -- popped event
    keys, peeked times, live counts, and whether ``pop`` raised -- so
    comparing traces compares behaviour, not storage layout.
    """
    trace = []
    handles = []
    for op in ops:
        kind = op[0]
        if kind == "push":
            _, time, priority = op
            handles.append(queue.push(time, lambda: None, (), priority))
        elif kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif kind == "pop":
            try:
                trace.append(("pop", _key(queue.pop())))
            except IndexError:
                trace.append(("pop", "empty"))
        elif kind == "pop_due":
            event = queue.pop_due(op[1])
            trace.append(("pop_due", None if event is None else _key(event)))
        elif kind == "peek":
            trace.append(("peek", queue.peek_time()))
        trace.append(("live", queue.live_count))
    return trace


def _apply(queue, ops):
    """``_run``, then drain the queue: the tail order is part of the contract."""
    trace = _run(queue, ops)
    while True:
        event = queue.pop_due(None)
        if event is None:
            break
        trace.append(("drain", _key(event)))
    trace.append(("final", queue.live_count))
    return trace


class TestEventQueueMatchesReference:
    @given(ops=_ops)
    @settings(max_examples=300, deadline=None)
    def test_operation_trace_is_identical(self, ops):
        assert _apply(EventQueue(), ops) == _apply(_ReferenceQueue(), ops)

    @given(ops=_ops)
    @settings(max_examples=50, deadline=None)
    def test_snapshot_matches_reference(self, ops):
        # Compaction may already have reclaimed cancelled events that the
        # reference still holds, so the comparison is over live events.
        def live_snapshot(queue):
            _run(queue, ops)
            snapshot = queue.snapshot()
            assert [_key(e) for e in snapshot] == sorted(_key(e) for e in snapshot)
            return [_key(e) for e in snapshot if not e.cancelled]

        assert live_snapshot(EventQueue()) == live_snapshot(_ReferenceQueue())

    @given(times=st.lists(_times, min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_fire_order_is_sorted_and_fifo(self, times):
        queue = EventQueue()
        for t in times:
            queue.push(t, lambda: None, ())
        popped = [_key(queue.pop_due(None)) for _ in range(len(times))]
        assert popped == sorted(popped)
        assert queue.pop_due(None) is None
