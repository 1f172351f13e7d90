"""Time-bucketed throughput / PDR / collision series probe."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.monitors.base import Monitor
from repro.monitors.registry import MONITORS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.packet import Packet
    from repro.sim.statistics import FlowStats


@MONITORS.register("timeseries")
class TimeSeriesMonitor(Monitor):
    """Per-bucket originated/delivered/dropped/collision/transmission counts.

    Accumulates counters per fixed-width time bucket and emits one
    ``bucket`` telemetry event as soon as an observed event's timestamp
    crosses the bucket boundary -- so a consumer tailing the JSONL sees
    the series build up mid-run.  Buckets with no observed events are
    skipped (the flush is lazy), which keeps the stream compact.

    Summary metrics: bucket count plus the peak per-bucket origination
    and collision rates (the congestion headline a mean hides).
    """

    def __init__(self, bucket_s: float = 1.0):
        super().__init__()
        if bucket_s <= 0:
            raise ValueError(f"bucket_s must be positive, got {bucket_s!r}")
        self.bucket_s = bucket_s
        self._bucket = 0
        self._counts: Dict[str, int] = dict(
            originated=0, delivered=0, duplicates=0, dropped=0, collisions=0, transmissions=0
        )
        self._buckets_emitted = 0
        self._peak_originated = 0
        self._peak_collisions = 0

    # ------------------------------------------------------------- internals
    def _roll(self, now: float) -> None:
        """Flush completed buckets if ``now`` has moved past the current one."""
        bucket = int(now // self.bucket_s)
        if bucket > self._bucket:
            self._flush()
            self._bucket = bucket

    def _flush(self) -> None:
        counts = self._counts
        if not any(counts.values()):
            return
        originated = counts["originated"]
        delivered = counts["delivered"]
        self._buckets_emitted += 1
        self._peak_originated = max(self._peak_originated, originated)
        self._peak_collisions = max(self._peak_collisions, counts["collisions"])
        start = self._bucket * self.bucket_s
        self.emit(
            "bucket",
            start,
            bucket=self._bucket,
            bucket_s=self.bucket_s,
            pdr=(delivered / originated) if originated else 0.0,
            **counts,
        )
        for key in counts:
            counts[key] = 0

    def _count(self, now: float, key: str, amount: int = 1) -> None:
        self._roll(now)
        self._counts[key] += amount

    # ------------------------------------------------------------- tap hooks
    def on_packet_originated(
        self, now: float, packet: "Packet", flow: "FlowStats", expected_receivers: int
    ) -> None:
        self._count(now, "originated")

    def on_packet_delivered(
        self,
        now: float,
        packet: "Packet",
        flow: "FlowStats",
        receiver: Optional[int],
        new: bool,
        delay: float,
    ) -> None:
        self._count(now, "delivered" if new else "duplicates")

    def on_packet_dropped(self, now: float, reason: str, count: int) -> None:
        self._count(now, "dropped", count)

    def on_collision(self, now: float, count: int) -> None:
        self._count(now, "collisions", count)

    def on_transmission(
        self, now: float, packet: "Packet", sender_id: int, position
    ) -> None:
        self._count(now, "transmissions")

    def finalize(self, now: float) -> Dict[str, float]:
        self._flush()
        return {
            "timeseries_buckets": float(self._buckets_emitted),
            "timeseries_peak_originated": float(self._peak_originated),
            "timeseries_peak_collisions": float(self._peak_collisions),
        }


MONITORS.register_preset(
    "timeseries-1s",
    TimeSeriesMonitor,
    "1-second throughput/PDR/collision buckets",
    kind="timeseries",
    bucket_s=1.0,
)
MONITORS.register_preset(
    "timeseries-100ms",
    TimeSeriesMonitor,
    "100 ms buckets for short, bursty runs",
    kind="timeseries",
    bucket_s=0.1,
)
