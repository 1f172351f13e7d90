"""Latency-distribution probe: streaming p50/p95/p99 via a quantile sketch."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.monitors.base import Monitor
from repro.monitors.registry import MONITORS
from repro.monitors.sketch import QuantileSketch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.packet import Packet
    from repro.sim.statistics import FlowStats


def _quantile_key(q: float) -> str:
    """``0.95 -> "p95"``, ``0.999 -> "p99_9"`` -- metric-safe quantile label."""
    label = f"{q * 100:.10g}".replace(".", "_")
    return f"p{label}"


@MONITORS.register("latency-dist")
class LatencyDistributionMonitor(Monitor):
    """Streaming end-to-end delay percentiles (no stored samples).

    Feeds every *new* delivery's delay into a log-binned
    :class:`~repro.monitors.sketch.QuantileSketch` (documented relative
    error ``bin_ratio - 1``) and periodically emits a ``latency``
    telemetry event with the current percentile estimates.  Summary
    metrics: one ``latency_<p>_s`` per requested quantile plus
    ``latency_samples``.
    """

    def __init__(
        self,
        quantiles: Tuple[float, ...] = (0.5, 0.95, 0.99),
        bin_ratio: float = 1.05,
        lower_s: float = 1e-4,
        upper_s: float = 1e4,
        emit_interval_s: float = 5.0,
    ):
        super().__init__()
        self.quantiles = tuple(quantiles)
        self.emit_interval_s = emit_interval_s
        self.sketch = QuantileSketch(lower=lower_s, upper=upper_s, bin_ratio=bin_ratio)
        self._next_emit = emit_interval_s

    def _snapshot(self) -> Dict[str, float]:
        return {
            f"latency_{_quantile_key(q)}_s": self.sketch.quantile(q) for q in self.quantiles
        }

    def on_packet_delivered(
        self,
        now: float,
        packet: "Packet",
        flow: "FlowStats",
        receiver: Optional[int],
        new: bool,
        delay: float,
    ) -> None:
        if new:
            self.sketch.add(delay)
        # Lazy periodic emission: fires when an observed event crosses the
        # boundary (monitors never schedule sim events).
        if self.emit_interval_s > 0 and now >= self._next_emit:
            while self._next_emit <= now:
                self._next_emit += self.emit_interval_s
            self.emit("latency", now, samples=self.sketch.count, **self._snapshot())

    def finalize(self, now: float) -> Dict[str, float]:
        summary = self._snapshot()
        summary["latency_samples"] = float(self.sketch.count)
        self.emit("latency", now, final=True, samples=self.sketch.count, **self._snapshot())
        return summary


MONITORS.register_preset(
    "latency-dist-fine",
    LatencyDistributionMonitor,
    "latency distribution with 1% bins (bin_ratio=1.01) and p50/p90/p95/p99",
    kind="latency-dist",
    quantiles=(0.5, 0.9, 0.95, 0.99),
    bin_ratio=1.01,
)
