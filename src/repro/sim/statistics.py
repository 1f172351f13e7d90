"""Metric collection.

The benchmarks regenerate the paper's Table I, which compares the five
protocol categories on reliability, overhead and applicability.  The
collector therefore tracks, per simulation run:

* per-flow packet delivery ratio, end-to-end delay and hop count,
* control-packet overhead (packets and bytes, plus the normalised overhead
  ratio used throughout the VANET literature),
* MAC/PHY losses (collisions, weak signal, queue drops) -- the mechanism
  behind the "broadcast storm" cost of connectivity-based routing,
* route-discovery latency and route lifetime -- the mobility/probability
  category metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.tap import EventTap


@dataclass
class FlowStats:
    """Per-application-flow accounting.

    ``mode`` selects the delivery semantics: ``"unicast"`` flows (the
    default) count one expected delivery per packet sent, while
    ``"broadcast"`` flows (safety beacons, geo-scoped warnings) count per
    receiver -- each sent packet *offers* as many deliveries as there are
    intended receivers at the send instant, and each unique
    (receiver, packet) reception counts one delivery, so the ratio reads as
    reachability rather than end-to-end success.
    """

    flow_id: int
    source: int
    destination: int
    sent: int = 0
    delivered: int = 0
    duplicates: int = 0
    mode: str = "unicast"
    #: Expected delivery opportunities: equals ``sent`` for unicast flows,
    #: and the sum of per-packet intended-receiver counts for broadcast.
    offered: int = 0
    delays: List[float] = field(default_factory=list)
    hop_counts: List[int] = field(default_factory=list)
    #: Unicast dedup: one ``Packet.flow_key`` per delivered packet (bounded
    #: by the flow's packet count, and consumed by the path-stretch metric).
    _delivered_seqs: Set[Tuple] = field(default_factory=set)
    #: Broadcast dedup: per in-flight packet, the receivers already counted.
    #: Entries are dropped by :meth:`retire` once a packet can no longer be
    #: received (the workload knows the linger bound), so a city-scale 10 Hz
    #: beacon run holds a sliding window of beacons instead of one
    #: (receiver, packet) tuple per delivery for the whole run.
    _receivers_by_key: Dict[Tuple, Set[int]] = field(default_factory=dict)

    @property
    def effective_offered(self) -> int:
        """The delivery-ratio denominator of this flow.

        Broadcast flows use ``offered`` exactly: a send with zero in-range
        receivers physically offers nothing, so it must not add phantom
        opportunities to the reachability denominator.  Unicast flows fall
        back to ``sent`` when ``offered`` is zero (hand-built records that
        never went through :meth:`StatsCollector.data_originated`).
        """
        if self.mode == "broadcast":
            return self.offered
        return self.offered if self.offered else self.sent

    @property
    def delivery_ratio(self) -> float:
        """Fraction of offered deliveries that happened.

        For unicast flows ``offered == sent``, so this is the classic packet
        delivery ratio; for broadcast flows it is per-receiver reachability.
        """
        denominator = self.effective_offered
        if denominator == 0:
            return 0.0
        return self.delivered / denominator

    @property
    def mean_delay(self) -> float:
        """Mean end-to-end delay of delivered packets (0 if none delivered)."""
        if not self.delays:
            return 0.0
        return sum(self.delays) / len(self.delays)

    @property
    def mean_hops(self) -> float:
        """Mean hop count of delivered packets (0 if none delivered)."""
        if not self.hop_counts:
            return 0.0
        return sum(self.hop_counts) / len(self.hop_counts)

    @property
    def delivered_keys(self) -> Set[Tuple]:
        """End-to-end identities (``Packet.flow_key``) of delivered packets.

        For broadcast flows only packets whose dedup entry has not been
        retired yet are reported (the consumer of this property -- the
        path-stretch metric -- only samples unicast flows, which never
        retire).
        """
        if self.mode == "broadcast":
            return set(self._receivers_by_key)
        return set(self._delivered_seqs)

    @property
    def dedup_entries(self) -> int:
        """Number of (receiver, packet) dedup tuples currently held.

        Memory diagnostic: for broadcast flows this must stay bounded by the
        in-flight packet window, not grow with every delivery of the run.
        """
        if self.mode == "broadcast":
            return sum(len(receivers) for receivers in self._receivers_by_key.values())
        return len(self._delivered_seqs)

    def retire(self, key: Tuple) -> None:
        """Drop the dedup state of one packet identity (``Packet.flow_key``).

        Called by broadcast workloads once a packet can no longer be
        received (its scope linger expired); a reception arriving after
        retirement would be counted again, so the caller must only retire
        keys it also stops matching deliveries for.
        """
        self._receivers_by_key.pop(key, None)


class StatsCollector:
    """Accumulates counters for one simulation run."""

    def __init__(self) -> None:
        #: Optional monitor event tap (:class:`repro.sim.tap.EventTap`).
        #: ``None`` for unmonitored runs, so every emission site below pays
        #: only an attribute load and a truthy check.
        self.tap: Optional["EventTap"] = None
        self.flows: Dict[int, FlowStats] = {}
        # Transmission counters (every frame handed to the channel).
        self.data_transmissions = 0
        self.control_transmissions = 0
        self.control_bytes = 0
        self.data_bytes = 0
        self.control_by_type: Dict[str, int] = {}
        # Loss counters.
        self.mac_collisions = 0
        self.phy_weak_signal = 0
        self.mac_queue_drops = 0
        self.ttl_drops = 0
        self.no_route_drops = 0
        self.buffer_drops = 0
        # Routing-layer events.
        self.route_discoveries_started = 0
        self.route_discoveries_completed = 0
        self.route_discovery_latencies: List[float] = []
        self.link_breaks = 0
        self.route_repairs = 0
        self.route_lifetimes: List[float] = []
        # Wired backbone usage (infrastructure category).
        self.backbone_transmissions = 0
        self.store_carry_events = 0

    # ------------------------------------------------------------------ flows
    def register_flow(
        self, flow_id: int, source: int, destination: int, mode: str = "unicast"
    ) -> FlowStats:
        """Create (or return) the accounting record for a flow.

        ``mode`` is ``"unicast"`` (default) or ``"broadcast"``; see
        :class:`FlowStats` for the delivery semantics it selects.
        """
        if flow_id not in self.flows:
            self.flows[flow_id] = FlowStats(flow_id, source, destination, mode=mode)
        return self.flows[flow_id]

    def data_originated(
        self, packet: Packet, expected_receivers: Optional[int] = None
    ) -> None:
        """Record that an application originated a data packet.

        ``expected_receivers`` is the number of intended receivers of this
        packet (broadcast workloads pass the in-scope population at the send
        instant); unicast senders omit it and offer exactly one delivery.
        """
        if packet.flow_id is None:
            return
        flow = self.register_flow(packet.flow_id, packet.source, packet.destination)
        flow.sent += 1
        offered = expected_receivers if expected_receivers is not None else 1
        flow.offered += offered
        if self.tap is not None:
            self.tap.packet_originated(packet, flow, offered)

    def data_delivered(
        self, packet: Packet, now: float, receiver: Optional[int] = None
    ) -> bool:
        """Record a data packet arriving at its final destination.

        ``receiver`` identifies the delivering node; broadcast flows dedupe
        per (receiver, packet) so every distinct receiver of the same packet
        counts one delivery.

        Returns:
            True when this was a *new* delivery, False for duplicates (and
            for packets outside flow accounting) -- so callers can gate
            once-per-delivery reactions (e.g. the application-layer delivery
            hook) without re-implementing the dedup.
        """
        if packet.flow_id is None:
            return False
        flow = self.register_flow(packet.flow_id, packet.source, packet.destination)
        if flow.mode == "broadcast" and receiver is not None:
            return self.broadcast_counter(packet, now)([receiver]) == 1
        key = packet.flow_key
        delay = max(0.0, now - packet.created_at)
        if key in flow._delivered_seqs:
            flow.duplicates += 1
            if self.tap is not None:
                self.tap.packet_delivered(packet, flow, receiver, False, delay)
            return False
        flow._delivered_seqs.add(key)
        flow.delivered += 1
        flow.delays.append(delay)
        # ``hop_count`` is incremented by every *forwarder*; the originator's
        # own transmission is the first link, so the traversed link count is
        # one more than the forward count.
        flow.hop_counts.append(packet.hop_count + 1)
        if self.tap is not None:
            self.tap.packet_delivered(packet, flow, receiver, True, delay)
        return True

    def broadcast_counter(
        self, packet: Packet, now: float
    ) -> Callable[[List[int]], int]:
        """Delivery accounting for the receivers of one frame of ``packet``.

        The flow record, dedup key, delay and hop count are worked out once
        for the frame; the returned ``count(receivers)`` records a batch of
        receiver ids exactly as one ``data_delivered(packet, now,
        receiver=receiver)`` per id, in order, does -- which, for a
        broadcast flow, is this counter with a one-id batch -- and returns
        how many were new deliveries.  Dedup is per (receiver, packet) and
        the tap is emitted per receiver, in batch order, with the flow
        counted up to that receiver.  Meant for a claimed frame (see
        :meth:`~repro.sim.medium.WirelessMedium.claim_frames`), whose
        receivers are all served at ``now``.

        Raises:
            ValueError: ``packet`` does not belong to a registered broadcast
                flow.
        """
        flow = None if packet.flow_id is None else self.flows.get(packet.flow_id)
        if flow is None or flow.mode != "broadcast":
            raise ValueError(
                f"broadcast_counter needs a registered broadcast flow "
                f"(packet flow_id={packet.flow_id!r})"
            )
        key = packet.flow_key
        delay = max(0.0, now - packet.created_at)
        # Links traversed: one more than the forward count (see data_delivered).
        hops = packet.hop_count + 1
        # Dedup is per (receiver, packet), grouped by packet so retire() can
        # drop a whole packet's entries once it leaves flight (bounding the
        # table by the in-flight window).
        by_key = flow._receivers_by_key
        tap = self.tap

        def count(receivers: List[int]) -> int:
            counted = by_key.get(key)
            if counted is None:
                counted = by_key[key] = set()
            new = 0
            for receiver in receivers:
                if receiver in counted:
                    flow.duplicates += 1
                    if tap is not None:
                        tap.packet_delivered(packet, flow, receiver, False, delay)
                    continue
                counted.add(receiver)
                new += 1
                flow.delivered += 1
                flow.delays.append(delay)
                flow.hop_counts.append(hops)
                if tap is not None:
                    tap.packet_delivered(packet, flow, receiver, True, delay)
            return new

        return count

    def packet_retired(self, flow_id: int, key: Tuple) -> None:
        """Release the broadcast dedup state of one packet identity.

        Broadcast workloads call this once a packet can no longer be
        received (e.g. the safety-beacon scope linger expired), so the
        per-(receiver, packet) dedup table stays proportional to the
        in-flight window rather than to every delivery of the run.
        """
        flow = self.flows.get(flow_id)
        if flow is not None:
            flow.retire(key)
        if self.tap is not None:
            self.tap.packet_retired(flow_id, key, flow is not None)

    @property
    def dedup_entries(self) -> int:
        """Dedup tuples currently held across all flows (memory diagnostic)."""
        return sum(flow.dedup_entries for flow in self.flows.values())

    # ---------------------------------------------------------- transmissions
    def transmission(self, packet: Packet) -> None:
        """Record a frame handed to the wireless channel."""
        if packet.is_control:
            self.control_transmissions += 1
            self.control_bytes += packet.size_bytes
            self.control_by_type[packet.ptype] = self.control_by_type.get(packet.ptype, 0) + 1
        else:
            self.data_transmissions += 1
            self.data_bytes += packet.size_bytes

    def backbone_transmission(self, packet: Packet) -> None:
        """Record a frame crossing the wired RSU backbone."""
        self.backbone_transmissions += 1

    # ----------------------------------------------------------------- losses
    def collision(self, count: int = 1) -> None:
        """Record ``count`` frames lost to interference at some receiver.

        The medium counts a whole broadcast's collisions in one call when it
        settles the frame in bulk (see :mod:`repro.sim.medium`); every other
        delivery records them one at a time.
        """
        self.mac_collisions += count
        if self.tap is not None:
            self.tap.collision(count)

    def weak_signal(self) -> None:
        """Record a frame below the receiver sensitivity at some receiver."""
        self.phy_weak_signal += 1
        if self.tap is not None:
            self.tap.packet_dropped("weak_signal")

    def queue_drop(self) -> None:
        """Record a frame dropped because a MAC queue overflowed."""
        self.mac_queue_drops += 1
        if self.tap is not None:
            self.tap.packet_dropped("queue")

    def ttl_drop(self) -> None:
        """Record a packet discarded because its TTL expired."""
        self.ttl_drops += 1
        if self.tap is not None:
            self.tap.packet_dropped("ttl")

    def no_route_drop(self) -> None:
        """Record a data packet dropped for lack of a route / next hop."""
        self.no_route_drops += 1
        if self.tap is not None:
            self.tap.packet_dropped("no_route")

    def buffer_drop(self) -> None:
        """Record a packet evicted from a protocol buffer (store-carry-forward)."""
        self.buffer_drops += 1
        if self.tap is not None:
            self.tap.packet_dropped("buffer")

    def store_carry(self) -> None:
        """Record a packet being buffered for store-carry-forward."""
        self.store_carry_events += 1

    # ---------------------------------------------------------------- routing
    def route_discovery_started(self) -> None:
        """Record the start of a route-discovery cycle."""
        self.route_discoveries_started += 1

    def route_discovery_completed(self, latency: float) -> None:
        """Record a successful route discovery and its latency."""
        self.route_discoveries_completed += 1
        self.route_discovery_latencies.append(latency)

    def link_break(self) -> None:
        """Record a detected link break on an active route."""
        self.link_breaks += 1

    def route_repair(self) -> None:
        """Record a route repair / preemptive rebuild."""
        self.route_repairs += 1

    def route_lifetime(self, lifetime: float) -> None:
        """Record how long an established route lasted before breaking."""
        self.route_lifetimes.append(lifetime)

    # ---------------------------------------------------------------- summary
    @property
    def total_sent(self) -> int:
        """Data packets originated across all flows."""
        return sum(flow.sent for flow in self.flows.values())

    @property
    def total_delivered(self) -> int:
        """Unique data deliveries across all flows (per receiver for broadcast)."""
        return sum(flow.delivered for flow in self.flows.values())

    @property
    def total_offered(self) -> int:
        """Expected deliveries across all flows (equals ``total_sent`` for unicast)."""
        return sum(flow.effective_offered for flow in self.flows.values())

    @property
    def delivery_ratio(self) -> float:
        """Aggregate delivery ratio across all flows.

        The denominator is the offered-delivery count, which for pure
        unicast runs equals the packets sent (the classic PDR) and for
        broadcast flows is the per-receiver reachability denominator.
        """
        offered = self.total_offered
        if offered == 0:
            return 0.0
        return self.total_delivered / offered

    @property
    def mean_delay(self) -> float:
        """Mean end-to-end delay over all delivered packets."""
        delays = [d for flow in self.flows.values() for d in flow.delays]
        if not delays:
            return 0.0
        return sum(delays) / len(delays)

    @property
    def mean_hops(self) -> float:
        """Mean hop count over all delivered packets."""
        hops = [h for flow in self.flows.values() for h in flow.hop_counts]
        if not hops:
            return 0.0
        return sum(hops) / len(hops)

    @property
    def overhead_ratio(self) -> float:
        """Control transmissions per delivered data packet.

        This is the normalised routing overhead commonly reported in the
        VANET literature.  When nothing is delivered the raw control count is
        returned so that a protocol cannot hide overhead by failing.
        """
        delivered = self.total_delivered
        if delivered == 0:
            return float(self.control_transmissions)
        return self.control_transmissions / delivered

    @property
    def transmissions_per_delivery(self) -> float:
        """Total frames (control + data) per delivered data packet."""
        delivered = self.total_delivered
        total = self.control_transmissions + self.data_transmissions
        if delivered == 0:
            return float(total)
        return total / delivered

    @property
    def beacon_transmissions(self) -> int:
        """HELLO-beacon transmissions (the neighbour-awareness overhead)."""
        return self.control_by_type.get("HELLO", 0)

    @property
    def discovery_transmissions(self) -> int:
        """Control transmissions excluding HELLO beacons.

        This isolates the route-discovery / probing cost the probability
        category claims to reduce ("selectively probes, rather than
        brute-force floods") from the baseline beaconing everyone pays.
        """
        return self.control_transmissions - self.beacon_transmissions

    @property
    def mean_route_discovery_latency(self) -> float:
        """Mean route-discovery latency (0 if no discovery completed)."""
        if not self.route_discovery_latencies:
            return 0.0
        return sum(self.route_discovery_latencies) / len(self.route_discovery_latencies)

    @property
    def mean_route_lifetime(self) -> float:
        """Mean lifetime of established routes (0 if none recorded)."""
        if not self.route_lifetimes:
            return 0.0
        return sum(self.route_lifetimes) / len(self.route_lifetimes)

    def summary(self) -> Dict[str, float]:
        """Flat dictionary of the headline metrics for reporting."""
        return {
            "data_sent": float(self.total_sent),
            "data_delivered": float(self.total_delivered),
            "delivery_ratio": self.delivery_ratio,
            "mean_delay_s": self.mean_delay,
            "mean_hops": self.mean_hops,
            "control_transmissions": float(self.control_transmissions),
            "control_bytes": float(self.control_bytes),
            "data_bytes": float(self.data_bytes),
            "beacon_transmissions": float(self.beacon_transmissions),
            "discovery_transmissions": float(self.discovery_transmissions),
            "data_transmissions": float(self.data_transmissions),
            "overhead_ratio": self.overhead_ratio,
            "transmissions_per_delivery": self.transmissions_per_delivery,
            "mac_collisions": float(self.mac_collisions),
            "phy_weak_signal": float(self.phy_weak_signal),
            "mac_queue_drops": float(self.mac_queue_drops),
            "ttl_drops": float(self.ttl_drops),
            "no_route_drops": float(self.no_route_drops),
            "buffer_drops": float(self.buffer_drops),
            "route_discoveries_started": float(self.route_discoveries_started),
            "route_discoveries_completed": float(self.route_discoveries_completed),
            "mean_route_discovery_latency_s": self.mean_route_discovery_latency,
            "link_breaks": float(self.link_breaks),
            "route_repairs": float(self.route_repairs),
            "mean_route_lifetime_s": self.mean_route_lifetime,
            "backbone_transmissions": float(self.backbone_transmissions),
            "store_carry_events": float(self.store_carry_events),
        }
