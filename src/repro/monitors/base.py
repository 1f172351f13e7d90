"""Monitor ABC: passive probes fed by the sim core's event tap.

A monitor is constructed by name through the registry (all constructor
parameters must be keyword-overridable with defaults -- the ``REG-001``
builder contract), bound to one run by the harness, fed ``on_*`` events
by the :class:`~repro.sim.tap.EventTap`, and finalized after the run to
contribute summary metrics to ``RunResult.extra``.

Monitors are **passive observers**: they must never schedule simulator
events, draw from the RNG, or mutate packets/nodes/stats.  Anything
periodic (time buckets, invariant checkpoints) is driven *lazily* off
the timestamps of observed events -- so a monitored run's traces and
metrics stay byte-identical to an unmonitored run's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.monitors.telemetry import TelemetrySink, telemetry_line

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.geometry import Vec2
    from repro.sim.packet import Packet
    from repro.sim.statistics import FlowStats, StatsCollector


class Monitor:
    """Base class of all probes.  Subclasses override the ``on_*`` hooks.

    Every hook has a no-op default, so a probe implements only the events
    it cares about; unimplemented events cost one no-op call while that
    probe is registered (and nothing at all when no monitor is).
    """

    #: Registry key; stamped by ``@MONITORS.register``.
    monitor_name: str = "base"

    def __init__(self) -> None:
        self.stats: Optional["StatsCollector"] = None
        self._sink: Optional[TelemetrySink] = None

    # ------------------------------------------------------------ harness API
    def bind(self, stats: "StatsCollector", sink: Optional[TelemetrySink]) -> None:
        """Attach the probe to one run (called by the harness at build time)."""
        self.stats = stats
        self._sink = sink

    def emit(self, event: str, t: float, **fields: object) -> None:
        """Write one telemetry event to the run's sink (no-op without one)."""
        if self._sink is not None:
            self._sink.write(telemetry_line(event, t, self.monitor_name, **fields))

    def finalize(self, now: float) -> Dict[str, float]:
        """Flush pending state after ``sim.run`` and return summary metrics.

        The returned mapping is merged into ``RunResult.extra`` (keys
        should be namespaced by probe, e.g. ``latency_p95_s``) and flows
        from there into records, sweep aggregation and artifacts.
        """
        return {}

    # ------------------------------------------------------------- tap hooks
    def on_packet_originated(
        self, now: float, packet: "Packet", flow: "FlowStats", expected_receivers: int
    ) -> None:
        """An application originated a data packet."""

    def on_packet_delivered(
        self,
        now: float,
        packet: "Packet",
        flow: "FlowStats",
        receiver: Optional[int],
        new: bool,
        delay: float,
    ) -> None:
        """A data packet reached a destination (``new=False`` for dups)."""

    def on_packet_dropped(self, now: float, reason: str, count: int) -> None:
        """``count`` packets/frames dropped for ``reason`` (count-only)."""

    def on_packet_retired(self, now: float, flow_id: int, key: Tuple, known: bool) -> None:
        """A broadcast packet identity left flight (dedup released)."""

    def on_transmission(
        self, now: float, packet: "Packet", sender_id: int, position: "Vec2"
    ) -> None:
        """A frame was handed to the wireless channel at ``position``."""

    def on_collision(self, now: float, count: int) -> None:
        """``count`` frames lost to interference."""

    def on_node_join(self, now: float, node_id: int, kind: str) -> None:
        """A node registered with the network."""

    def on_node_leave(self, now: float, node_id: int) -> None:
        """A node was removed from the network."""
