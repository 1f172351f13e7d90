"""A CSMA/CA-flavoured MAC layer.

The MAC gives the simulator the one property the paper's broadcast-storm
discussion (Sec. III, [5]) depends on: when many nodes contend for the
channel, frames collide and latency grows.  The model implements carrier
sensing, DIFS waiting, binary-exponential random backoff and a bounded
transmit queue.  There are no link-layer acknowledgements or retransmissions
(broadcast frames have none in 802.11 either); reliability is the routing
layer's problem, which is exactly the paper's topic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.medium import WirelessMedium
    from repro.sim.node import Node


@dataclass
class MacConfig:
    """Parameters of the MAC and PHY framing (defaults follow IEEE 802.11p).

    Attributes:
        bitrate_bps: PHY data rate used to compute frame airtime.
        slot_time: Backoff slot duration (seconds).
        difs: Idle time required before a transmission attempt (seconds).
        cw_min: Initial contention-window size in slots.
        cw_max: Maximum contention-window size in slots.
        max_queue: Transmit-queue capacity in frames.
        max_busy_retries: Attempts before a frame is dropped as undeliverable.
        phy_overhead_s: Fixed per-frame preamble/header airtime (seconds).
    """

    bitrate_bps: float = 6_000_000.0
    slot_time: float = 13e-6
    difs: float = 58e-6
    cw_min: int = 15
    cw_max: int = 1023
    max_queue: int = 64
    max_busy_retries: int = 7
    phy_overhead_s: float = 40e-6
    #: Link-layer retransmissions for unicast frames whose intended receiver
    #: did not decode them (802.11 ACK/retry, with the ACK itself idealised).
    max_unicast_retries: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.bitrate_bps < math.inf:
            raise ValueError(
                f"bitrate_bps must be a finite positive rate, got {self.bitrate_bps!r}"
            )
        for name in ("slot_time", "difs", "phy_overhead_s"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(
                    f"{name} must be a finite non-negative duration, got {value!r}"
                )
        if not 0 <= self.cw_min <= self.cw_max:
            raise ValueError(
                "contention window needs 0 <= cw_min <= cw_max, "
                f"got cw_min={self.cw_min!r}, cw_max={self.cw_max!r}"
            )
        for name in ("max_busy_retries", "max_unicast_retries"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")
        if not self.max_queue >= 1:
            raise ValueError(f"max_queue must be at least 1, got {self.max_queue!r}")

    def frame_airtime(self, size_bytes: int) -> float:
        """Airtime of a frame of ``size_bytes`` payload bytes."""
        return self.phy_overhead_s + (size_bytes * 8.0) / self.bitrate_bps


class CsmaCaMac:
    """Per-node CSMA/CA transmit queue."""

    def __init__(
        self,
        node: "Node",
        medium: "WirelessMedium",
        config: MacConfig,
        rng: random.Random,
    ) -> None:
        self.node = node
        self.medium = medium
        self.config = config
        self._rng = rng
        self._queue: List[Tuple[Packet, int, int]] = []
        self._transmitting = False
        self._attempt_scheduled = False
        self._busy_retries = 0
        self._cw = config.cw_min
        # Counters exposed for tests and diagnostics.
        self.frames_sent = 0
        self.frames_dropped_queue = 0
        self.frames_dropped_busy = 0
        self.busy_deferrals = 0
        self.unicast_retries = 0
        self.unicast_failures = 0
        #: packet uid -> how many times it has already been retransmitted.
        self._retry_counts: dict[int, int] = {}
        self._shutdown = False

    # ------------------------------------------------------------------ queue
    def enqueue(self, packet: Packet, next_hop: int) -> bool:
        """Queue a frame for transmission; returns False if the queue is full."""
        if self._shutdown:
            return False
        if len(self._queue) >= self.config.max_queue:
            self.frames_dropped_queue += 1
            self.medium.stats.queue_drop()
            return False
        self._queue.append((packet, next_hop, 0))
        self._schedule_attempt(initial=True)
        return True

    def notify_unicast_result(self, packet: Packet, next_hop: int, received: bool) -> None:
        """Feedback from the medium about a unicast frame (idealised ACK).

        Failed unicast frames are retransmitted up to ``max_unicast_retries``
        times; the retransmissions contend for the channel again and are
        counted as additional transmissions by the statistics collector,
        which is exactly the overhead a real ARQ would add.
        """
        if received or self._shutdown:
            self._retry_counts.pop(packet.uid, None)
            return
        retries = self._retry_counts.pop(packet.uid, 0)
        if retries >= self.config.max_unicast_retries:
            self.unicast_failures += 1
            return
        self.unicast_retries += 1
        self._queue.insert(0, (packet, next_hop, retries + 1))
        self._cw = min(self.config.cw_max, self._cw * 2 + 1)
        self._schedule_attempt()

    def shutdown(self) -> None:
        """Silence the MAC when its node leaves the network.

        Queued frames are dropped and pending backoff attempts become
        no-ops; a frame already on the air completes (it physically left
        the antenna), but nothing new is transmitted.
        """
        self._shutdown = True
        self._queue.clear()
        self._retry_counts.clear()

    @property
    def queue_length(self) -> int:
        """Number of frames waiting (not counting one in flight)."""
        return len(self._queue)

    # --------------------------------------------------------------- internals
    def _backoff_delay(self) -> float:
        slots = self._rng.randint(0, max(1, self._cw))
        return self.config.difs + slots * self.config.slot_time

    def _schedule_attempt(self, initial: bool = False) -> None:
        if self._attempt_scheduled or self._transmitting or not self._queue:
            return
        self._attempt_scheduled = True
        delay = self._backoff_delay() if not initial else (
            self.config.difs + self._rng.randint(0, self.config.cw_min) * self.config.slot_time
        )
        self.medium.sim.schedule(delay, self._attempt)

    def _attempt(self) -> None:
        self._attempt_scheduled = False
        if self._shutdown or self._transmitting or not self._queue:
            return
        if self.medium.channel_busy(self.node):
            self.busy_deferrals += 1
            self._busy_retries += 1
            if self._busy_retries > self.config.max_busy_retries:
                # Give up on the head-of-line frame to avoid head-of-line blocking.
                self._queue.pop(0)
                self.frames_dropped_busy += 1
                self.medium.stats.queue_drop()
                self._busy_retries = 0
                self._cw = self.config.cw_min
            else:
                self._cw = min(self.config.cw_max, self._cw * 2 + 1)
            self._schedule_attempt()
            return
        packet, next_hop, retries = self._queue.pop(0)
        self._busy_retries = 0
        self._cw = self.config.cw_min
        self._retry_counts[packet.uid] = retries
        duration = self.config.frame_airtime(packet.size_bytes)
        self._transmitting = True
        self.frames_sent += 1
        # The medium schedules the frame's completion first, so at the same
        # instant it fires before our transmission-done timer.
        self.medium.begin_transmission(self.node, packet, next_hop, duration)
        self.medium.sim.schedule(duration, self._transmission_done)

    def _transmission_done(self) -> None:
        self._transmitting = False
        if self._queue:
            self._schedule_attempt()
