"""Conservation-invariant probe: packet lifecycle reconciliation.

Every originated packet identity must end in exactly one terminal state
-- first unicast delivery, or broadcast retirement -- or still be in
flight.  The probe keeps a per-``flow_key`` ledger fed by the event tap
and asserts, at configurable checkpoints and at teardown:

* ``sent == terminal + in_flight`` with a non-negative in-flight count
  (``dropped`` is reported alongside for the classic
  ``sent = delivered + dropped + in_flight`` reading, but drops are
  frame-level, count-only events -- a dropped frame does not remove a
  packet identity from flight, retransmission/flooding may still deliver
  it),
* no packet is originated twice, delivered-as-new after retirement
  (the leaked-dedup-entry bug class), retired twice, or
  delivered/retired without ever being originated,
* the probe's counters agree exactly with the ``StatsCollector`` totals
  (the tap and the collector cannot drift apart unnoticed),
* at teardown, every broadcast dedup entry still held by the collector
  belongs to an un-retired packet -- a dedup entry held for a retired
  key is exactly the leak the scope-TTL accounting bug produced.

Any violation is a **hard failure**: the probe emits a ``violation``
telemetry event and raises :class:`InvariantViolationError` at the next
checkpoint (or at teardown).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.monitors.base import Monitor
from repro.monitors.registry import MONITORS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.packet import Packet
    from repro.sim.statistics import FlowStats

_IN_FLIGHT = 0
_DELIVERED = 1  # unicast terminal: first delivery
_RETIRED = 2  # broadcast terminal: dedup state released


class InvariantViolationError(AssertionError):
    """A conservation invariant was violated (details in ``violations``)."""

    def __init__(self, violations: List[Tuple[float, str, str]]):
        self.violations = violations
        lines = "; ".join(f"t={t:.6f} [{kind}] {detail}" for t, kind, detail in violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        super().__init__(f"{len(violations)} invariant violation(s): {lines}{more}")


@MONITORS.register("invariant")
class ConservationInvariantMonitor(Monitor):
    """Asserts sent == delivered/retired + in_flight; hard-fails on leaks.

    ``checkpoint_interval_s`` sets how often (in sim time, driven lazily
    by observed events) the balance is re-checked and an ``invariant``
    telemetry event emitted; the final check at teardown additionally
    reconciles the collector's broadcast dedup tables against the
    ledger.  ``raise_on_violation=False`` keeps the probe observational
    (violations still land in telemetry and the summary).
    """

    def __init__(self, checkpoint_interval_s: float = 10.0, raise_on_violation: bool = True):
        super().__init__()
        if checkpoint_interval_s <= 0:
            raise ValueError(
                f"checkpoint_interval_s must be positive, got {checkpoint_interval_s!r}"
            )
        self.checkpoint_interval_s = checkpoint_interval_s
        self.raise_on_violation = raise_on_violation
        self._ledger: Dict[Tuple, int] = {}
        self._sent = 0
        self._delivered_new = 0
        self._terminal = 0
        self._in_flight = 0
        self._dropped = 0
        self._checkpoints = 0
        self._next_checkpoint = checkpoint_interval_s
        self._violations: List[Tuple[float, str, str]] = []
        self._reported = 0

    # ------------------------------------------------------------- internals
    def _violate(self, now: float, kind: str, detail: str) -> None:
        self._violations.append((now, kind, detail))
        self.emit("violation", now, kind=kind, detail=detail)

    def _checkpoint(self, now: float, final: bool) -> None:
        self._checkpoints += 1
        if self._in_flight < 0:
            self._violate(now, "negative-in-flight", f"in_flight={self._in_flight}")
        if self._sent != self._terminal + self._in_flight:
            self._violate(
                now,
                "balance",
                f"sent={self._sent} != terminal={self._terminal} + in_flight={self._in_flight}",
            )
        stats = self.stats
        if stats is not None:
            if self._sent != stats.total_sent:
                self._violate(
                    now,
                    "tap-drift",
                    f"probe saw {self._sent} originations, collector counted {stats.total_sent}",
                )
            if self._delivered_new != stats.total_delivered:
                self._violate(
                    now,
                    "tap-drift",
                    f"probe saw {self._delivered_new} deliveries, "
                    f"collector counted {stats.total_delivered}",
                )
        if final and stats is not None:
            # Teardown reconciliation: a broadcast dedup entry held for a
            # retired key means the collector re-created state after
            # retirement -- the scope-TTL leak this probe exists to catch.
            for flow in stats.flows.values():
                if flow.mode != "broadcast":
                    continue
                for key in sorted(flow.delivered_keys):
                    state = self._ledger.get(key)
                    if state is None:
                        self._violate(
                            now, "dedup-unknown-key", f"flow {flow.flow_id} holds unseen {key!r}"
                        )
                    elif state == _RETIRED:
                        self._violate(
                            now,
                            "dedup-leak",
                            f"flow {flow.flow_id} still holds dedup state for retired {key!r}",
                        )
        ok = not self._violations
        self.emit(
            "invariant",
            now,
            final=final,
            sent=self._sent,
            delivered=self._delivered_new,
            dropped=self._dropped,
            terminal=self._terminal,
            in_flight=self._in_flight,
            ok=ok,
            violations=len(self._violations),
        )
        if self._violations[self._reported:]:
            self._reported = len(self._violations)
            if self.raise_on_violation:
                raise InvariantViolationError(list(self._violations))

    def _maybe_checkpoint(self, now: float) -> None:
        if now >= self._next_checkpoint:
            while self._next_checkpoint <= now:
                self._next_checkpoint += self.checkpoint_interval_s
            self._checkpoint(now, final=False)

    # ------------------------------------------------------------- tap hooks
    def on_packet_originated(
        self, now: float, packet: "Packet", flow: "FlowStats", expected_receivers: int
    ) -> None:
        key = packet.flow_key
        if key in self._ledger:
            self._violate(now, "duplicate-origination", f"{key!r} originated twice")
        else:
            self._ledger[key] = _IN_FLIGHT
            self._sent += 1
            self._in_flight += 1
        self._maybe_checkpoint(now)

    def on_packet_delivered(
        self,
        now: float,
        packet: "Packet",
        flow: "FlowStats",
        receiver: Optional[int],
        new: bool,
        delay: float,
    ) -> None:
        key = packet.flow_key
        state = self._ledger.get(key)
        if new:
            self._delivered_new += 1
        if state is None:
            self._violate(now, "delivery-of-unknown", f"{key!r} delivered but never originated")
        elif new and state == _RETIRED:
            self._violate(
                now,
                "delivery-after-retire",
                f"{key!r} counted as a new delivery after retirement (leaked dedup entry)",
            )
        elif new and flow.mode != "broadcast":
            if state == _DELIVERED:
                self._violate(now, "double-first-delivery", f"{key!r} first-delivered twice")
            else:
                self._ledger[key] = _DELIVERED
                self._terminal += 1
                self._in_flight -= 1
        self._maybe_checkpoint(now)

    def on_packet_dropped(self, now: float, reason: str, count: int) -> None:
        self._dropped += count
        self._maybe_checkpoint(now)

    def on_packet_retired(self, now: float, flow_id: int, key: Tuple, known: bool) -> None:
        state = self._ledger.get(key)
        if not known:
            self._violate(now, "retire-unknown-flow", f"flow {flow_id} has no stats record")
        if state is None:
            self._violate(now, "retire-of-unknown", f"{key!r} retired but never originated")
        elif state == _RETIRED:
            self._violate(now, "double-retire", f"{key!r} retired twice")
        else:
            if state == _IN_FLIGHT:
                self._in_flight -= 1
                self._terminal += 1
            self._ledger[key] = _RETIRED
        self._maybe_checkpoint(now)

    def finalize(self, now: float) -> Dict[str, float]:
        self._checkpoint(now, final=True)
        return {
            "invariant_checkpoints": float(self._checkpoints),
            "invariant_violations": float(len(self._violations)),
            "invariant_in_flight_final": float(self._in_flight),
        }


MONITORS.register_preset(
    "invariant-strict",
    ConservationInvariantMonitor,
    "conservation invariant checked every simulated second",
    kind="invariant",
    checkpoint_interval_s=1.0,
)
