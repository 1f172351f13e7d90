"""Counters and layer spans recorded around the simulator's layer boundaries.

Everything here wraps *existing* entry points of the ``repro`` package at
class level for the duration of one benchmark run and restores them
afterwards; the simulator itself carries no benchmark hooks.

* :class:`EventCounter` wraps ``Simulator.run`` only, so the end-to-end
  runs pay one extra call per simulation cell (never per event).
* :class:`LayerTracer` (``--trace 1``) additionally opens a span at every
  call into a layer and books each span's *self* time (its duration minus
  the spans nested inside it) and a call count to the layer that owns the
  code.  Event callbacks are attributed by the module of their owner, so a
  frame completion counts as ``channel``, a CSMA attempt as ``mac``, a
  protocol timer as ``routing`` and a mobility tick as ``mobility``.
"""

from __future__ import annotations

import functools
import inspect
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from repro.harness.runner import ExperimentRunner
from repro.radio.mac import CsmaCaMac
from repro.sim.engine import PeriodicTask, Simulator
from repro.sim.events import Event
from repro.sim.medium import WirelessMedium
from repro.sim.node import Node
from repro.sim.statistics import StatsCollector
from repro.protocols.base import RoutingProtocol
from repro.workloads.base import Workload

#: Layers in stack order, named after the package modules that implement them.
LAYERS: Tuple[str, ...] = (
    "scheduler",  # repro.sim.engine / repro.sim.events: dispatch loop and queue
    "mobility",  # repro.mobility + the network's mobility tick
    "channel",  # repro.sim.medium / repro.radio propagation, reception, index
    "mac",  # repro.radio.mac CSMA/CA
    "routing",  # repro.protocols
    "workload",  # repro.workloads
    "stats",  # repro.sim.statistics (and the monitor tap when attached)
    "harness",  # repro.harness runner/sweep and repro.store
)

#: Owner-module prefix -> layer for event callbacks (first match wins).
_MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.radio.mac", "mac"),
    ("repro.sim.medium", "channel"),
    ("repro.radio", "channel"),
    ("repro.protocols", "routing"),
    ("repro.sim.node", "routing"),
    ("repro.workloads", "workload"),
    ("repro.mobility", "mobility"),
    ("repro.sim.network", "mobility"),
    ("repro.sim.statistics", "stats"),
    ("repro.sim.tap", "stats"),
    ("repro.monitors", "stats"),
    ("repro.harness", "harness"),
    ("repro.store", "harness"),
)

#: Protocol entry points: the public surface of :class:`RoutingProtocol`.
_ROUTING_ENTRY_POINTS = (
    "start",
    "stop",
    "send_data",
    "route_data",
    "handle_packet",
    "handle_backbone_packet",
    "broadcast",
    "unicast",
    "deliver_locally",
    "make_control",
)


class _Patches:
    """Class-attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, object]] = []

    def replace(self, cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__.get(name)
        if not inspect.isfunction(original):
            return
        setattr(cls, name, functools.wraps(original)(make(original)))
        self._saved.append((cls, name, original))

    def restore(self) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)


class EventCounter:
    """Counts simulated events across every ``Simulator.run`` call."""

    def __init__(self) -> None:
        self.events = 0
        self._patches = _Patches()

    def install(self) -> "EventCounter":
        def make(original):
            def run(sim, *args, **kwargs):
                before = sim.events_processed
                try:
                    return original(sim, *args, **kwargs)
                finally:
                    self.events += sim.events_processed - before

            return run

        self._patches.replace(Simulator, "run", make)
        return self

    def uninstall(self) -> None:
        self._patches.restore()


def _subclasses(cls: type) -> List[type]:
    found, pending = [cls], [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


class LayerTracer:
    """Self time and call counts per layer, from spans at layer boundaries."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self._stack: List[List[float]] = []
        self._callback_layers: Dict[object, str] = {}
        self._patches = _Patches()

    # ---------------------------------------------------------------- spans
    def span(self, layer: str, func: Callable, *args, **kwargs):
        """Call ``func`` inside a span booked to ``layer``."""
        frame = [0.0]
        stack = self._stack
        stack.append(frame)
        started = perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            elapsed = perf_counter() - started
            stack.pop()
            self.self_s[layer] += elapsed - frame[0]
            self.calls[layer] += 1
            if stack:
                stack[-1][0] += elapsed

    def callback_layer(self, callback: Callable) -> str:
        """Layer of an event callback, keyed by the module of its owner."""
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, PeriodicTask):
            callback = getattr(owner, "_callback", callback)
            owner = getattr(callback, "__self__", None)
        key = getattr(callback, "__func__", callback)
        layer = self._callback_layers.get(key)
        if layer is None:
            module = (
                type(owner).__module__
                if owner is not None
                else getattr(callback, "__module__", None) or ""
            )
            layer = next(
                (name for prefix, name in _MODULE_LAYERS if module.startswith(prefix)),
                "scheduler",
            )
            self._callback_layers[key] = layer
        return layer

    # ------------------------------------------------------------- install
    def _wrap(self, cls: type, name: str, layer: str) -> None:
        span = self.span

        def make(original):
            def wrapper(*args, **kwargs):
                return span(layer, original, *args, **kwargs)

            return wrapper

        self._patches.replace(cls, name, make)

    def install(self) -> "LayerTracer":
        span, callback_layer = self.span, self.callback_layer

        def make_fire(original):
            def fire(event):
                callback = event.callback
                if event.cancelled or callback is None:
                    return original(event)
                return span(callback_layer(callback), original, event)

            return fire

        def make_deliver(original):
            # BSM-style application frames are consumed by the workload's
            # receive hook before the protocol sees them.
            def deliver(node, *args, **kwargs):
                layer = "workload" if node.app_frame_handler is not None else "routing"
                return span(layer, original, node, *args, **kwargs)

            return deliver

        self._patches.replace(Event, "fire", make_fire)
        self._patches.replace(Node, "deliver", make_deliver)
        for name in ("run", "schedule", "schedule_at"):
            self._wrap(Simulator, name, "scheduler")
        for name in ("run", "build"):
            self._wrap(ExperimentRunner, name, "harness")
        for name in ("begin_transmission", "nodes_within", "nodes_in_range", "channel_busy"):
            self._wrap(WirelessMedium, name, "channel")
        for name in ("enqueue", "notify_unicast_result", "shutdown"):
            self._wrap(CsmaCaMac, name, "mac")
        self._wrap(Node, "wired_deliver", "routing")
        for cls in _subclasses(RoutingProtocol):
            for name in _ROUTING_ENTRY_POINTS:
                self._wrap(cls, name, "routing")
        for cls in _subclasses(Workload):
            for name, value in list(vars(cls).items()):
                if inspect.isfunction(value) and not name.startswith("__"):
                    self._wrap(cls, name, "workload")
        for name, value in list(vars(StatsCollector).items()):
            if inspect.isfunction(value) and not name.startswith("_"):
                self._wrap(StatsCollector, name, "stats")
        return self

    def uninstall(self) -> None:
        self._patches.restore()
