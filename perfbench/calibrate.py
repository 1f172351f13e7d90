"""Host-speed probe: a fixed pure-Python reference computation.

Shared build hosts drift between fast and slow phases that last tens of
seconds and slow most Python code by a similar factor.  The benchmark times
this fixed loop before every unit execution and scales each execution's
time by ``REFERENCE_S`` over the fastest probe within a few seconds of it --
times read as milliseconds on a host where the probe takes ``REFERENCE_S``.  The loop touches the same
interpreter paths the simulator leans on: attribute access, method calls,
dict and list churn, float arithmetic and a binary heap.
"""

from __future__ import annotations

import heapq
from time import perf_counter

#: Probe time on the reference host (2-vCPU x86-64 VM, CPython 3.11).
REFERENCE_S = 0.0075


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value

    def scaled(self, factor: float) -> float:
        return self.value * factor


def probe() -> float:
    """Wall time of one fixed reference computation, in seconds."""
    started = perf_counter()
    table = {}
    heap = []
    total = 0.0
    for index in range(6000):
        item = _Item(index % 97, index * 0.5)
        table[item.key] = table.get(item.key, 0.0) + item.scaled(1.0001)
        heapq.heappush(heap, (item.value % 13.0, index))
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
        if index % 3 == 0:
            total += sum(table.values()) * 1e-9
    if total < 0:  # keeps the work observable
        raise AssertionError("negative probe total")
    return perf_counter() - started
