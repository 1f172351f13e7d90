"""Broadcast basic-safety messages (BSMs) from every vehicle."""

from __future__ import annotations

import random
import warnings
from typing import TYPE_CHECKING, Dict, List, Set

from repro.sim.node import NodeKind
from repro.sim.packet import BROADCAST, make_data_packet
from repro.workloads.base import Workload, consume_frame
from repro.workloads.registry import WORKLOADS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.runner import BuiltScenario
    from repro.harness.scenario import Scenario
    from repro.sim.medium import FrameOpener, FrameReceiver
    from repro.sim.node import Node
    from repro.sim.packet import Packet

#: ptype of application-layer safety beacons (distinct from routing HELLOs).
BSM_PTYPE = "BSM"

#: How long (simulated seconds) a beacon's frozen receiver set is kept for
#: delivery matching, measured from the application send instant.  The
#: bound must cover worst-case MAC head-of-line queueing under saturation
#: (a full 64-frame CSMA/CA queue with ~20 ms of contention per frame is
#: on the order of seconds), not just the microseconds of airtime -- a
#: reception after the prune is silently uncounted.  Ten seconds keeps the
#: table proportional to a short sliding window of beacons rather than to
#: every beacon ever sent, while staying far above any realisable queue
#: delay.
SCOPE_LINGER_S = 10.0


@WORKLOADS.register("safety-beacon")
class SafetyBeaconWorkload(Workload):
    """Periodic single-hop broadcast safety beacons from every vehicle.

    Models the DSRC/ETSI awareness channel: every vehicle broadcasts a basic
    safety message on a fixed period (2-10 Hz in deployments) with a random
    phase, addressed to the link-layer broadcast group and never forwarded.
    The traffic bypasses the routing protocol entirely -- the workload
    claims ``BSM`` frames on the medium, so every reception is consumed
    and counted without reaching a node's protocol -- so it measures pure
    one-hop reachability under the MAC/PHY, which is exactly the load the
    surveyed protocols' own HELLO beacons compete with.

    Delivery accounting is per receiver: each beacon's offered count is the
    number of non-RSU nodes inside the nominal radio range at the send
    instant, and each unique (receiver, beacon) reception counts one
    delivery, so ``delivery_ratio`` reads as mean one-hop reachability.

    Constructor keywords: ``interval_s`` (beacon period, default 0.5 --
    2 Hz), ``size_bytes`` (default 200), ``start_time_s`` (default 1.0).
    """

    def __init__(
        self,
        interval_s: float = 0.5,
        size_bytes: int = 200,
        start_time_s: float = 1.0,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"beacon interval must be positive (got {interval_s})")
        if size_bytes <= 0:
            raise ValueError(f"beacon size_bytes must be positive (got {size_bytes})")
        self.interval_s = interval_s
        self.size_bytes = size_bytes
        self.start_time_s = start_time_s

    def build(
        self, scenario: "Scenario", built: "BuiltScenario", rng: random.Random
    ) -> List[Dict[str, float]]:
        flows: List[Dict[str, float]] = []
        vehicles = built.vehicle_nodes
        if not vehicles:
            return flows
        if self.start_time_s > scenario.duration_s:
            warnings.warn(
                f"safety-beacon start_time_s ({self.start_time_s:.1f}s) is past the "
                f"scenario duration ({scenario.duration_s:.1f}s); no beacons scheduled",
                RuntimeWarning,
                stacklevel=2,
            )
            return flows
        #: (flow_id, seq) -> node ids inside nominal range at the send
        #: instant.  Deliveries are only counted against this frozen set, so
        #: the reachability numerator and denominator always describe the
        #: same population (shadowed channels can physically reach beyond
        #: the nominal range; such receptions are consumed but not counted).
        #: Entries are pruned ``SCOPE_LINGER_S`` after each send, bounding
        #: the table by the in-flight beacon count.
        expected: Dict[tuple, Set[int]] = {}
        built.network.medium.claim_frames(
            BSM_PTYPE, self._frame_opener(built, expected)
        )
        sends = []
        for index, node in enumerate(vehicles):
            flow_id = index + 1
            # A random phase per vehicle desynchronises the beacon instants,
            # as 802.11p devices do; the draw order (vehicle order) is fixed,
            # so schedules are reproducible per seed.  The phase is always
            # drawn -- even for vehicles that end up sending nothing -- so
            # later vehicles' phases never depend on earlier exclusions.
            send_time = self.start_time_s + rng.uniform(0.0, self.interval_s)
            if send_time > scenario.duration_s:
                # The jittered first beacon falls outside the evaluated
                # window; registering the flow would pad the table with a
                # dead zero-send entry.
                continue
            built.stats.register_flow(
                flow_id, node.node_id, BROADCAST, mode="broadcast"
            )
            flows.append(
                {"flow_id": flow_id, "source": node.node_id, "destination": BROADCAST}
            )
            seq = 0
            while send_time <= scenario.duration_s:
                seq += 1
                sends.append(
                    (
                        send_time,
                        self._send_beacon,
                        (built, node, flow_id, seq, expected),
                        0,
                    )
                )
                send_time += self.interval_s
        # Bulk insert of the whole beacon schedule; push order matches the
        # legacy per-beacon loop, so traces are byte-identical.
        built.sim.schedule_at_many(sends)
        return flows

    def _send_beacon(
        self,
        built: "BuiltScenario",
        node: "Node",
        flow_id: int,
        seq: int,
        expected: Dict[tuple, Set[int]],
    ) -> None:
        # The reachability denominator uses the resolved stack's nominal
        # range: under dsrc-urban-nlos (~137 m) or dsrc-highway-los (~946 m)
        # the legacy 250 m shim value would systematically bias the ratio.
        reachable = {
            other.node_id
            for other in built.network.nodes_within(
                node.position,
                built.radio_range_m,
                exclude=node.node_id,
            )
            if other.kind is not NodeKind.RSU
        }
        expected[(flow_id, seq)] = reachable
        packet = make_data_packet(
            "app",
            node.node_id,
            BROADCAST,
            size_bytes=self.size_bytes,
            created_at=built.sim.now,
            flow_id=flow_id,
            seq=seq,
            ttl=1,
        )
        packet.ptype = BSM_PTYPE
        built.stats.data_originated(packet, expected_receivers=len(reachable))
        node.send(packet, BROADCAST)
        built.sim.schedule(SCOPE_LINGER_S, expected.pop, (flow_id, seq), None)
        # The stats collector's per-(receiver, packet) dedup entries are
        # released on the same linger bound: once the frozen receiver set is
        # gone no late reception can be counted, so holding the dedup any
        # longer would only grow memory (millions of tuples in city-scale
        # 10 Hz sweeps).
        built.sim.schedule(
            SCOPE_LINGER_S, built.stats.packet_retired, flow_id, packet.flow_key
        )

    @staticmethod
    def _frame_opener(
        built: "BuiltScenario", expected: Dict[tuple, Set[int]]
    ) -> "FrameOpener":
        """The medium's claim on BSM frames: every reception is consumed."""
        stats = built.stats
        sim = built.sim

        def open_frame(packet: "Packet", sender_id: int) -> "FrameReceiver":
            in_range = expected.get((packet.flow_id, packet.seq))
            if in_range is None:
                return consume_frame
            count = stats.broadcast_counter(packet, sim.now)

            def receive(node: "Node", rx_power_dbm: float) -> None:
                # Only members of the frozen send-instant population count
                # (RSUs and beyond-nominal-range shadowing receptions are
                # consumed without counting), keeping delivery_ratio <= 1.
                if node.node_id in in_range:
                    count(node.node_id)

            return receive

        return open_frame

    def extra_metrics(self, built: "BuiltScenario") -> Dict[str, float]:
        sent = built.stats.total_sent
        return {
            "beacons_sent": float(sent),
            "mean_beacon_receivers": built.stats.total_delivered / sent if sent else 0.0,
        }


WORKLOADS.register_preset(
    "safety-beacon-10hz",
    SafetyBeaconWorkload,
    "10 Hz broadcast BSMs from every vehicle (US DSRC rate)",
    kind="safety-beacon",
    interval_s=0.1,
)
WORKLOADS.register_preset(
    "safety-beacon-2hz",
    SafetyBeaconWorkload,
    "2 Hz broadcast BSMs from every vehicle (ETSI CAM floor)",
    kind="safety-beacon",
    interval_s=0.5,
)
