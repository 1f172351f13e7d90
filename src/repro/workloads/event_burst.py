"""Event-triggered emergency warnings with geo-scoped flooding."""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro.sim.node import NodeKind
from repro.sim.packet import BROADCAST, make_data_packet
from repro.workloads.base import Workload, consume_frame
from repro.workloads.registry import WORKLOADS
from repro.workloads.safety_beacon import SCOPE_LINGER_S

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.runner import BuiltScenario
    from repro.harness.scenario import Scenario
    from repro.sim.medium import FrameOpener, FrameReceiver
    from repro.sim.node import Node
    from repro.sim.packet import Packet

#: ptype of application-layer emergency warnings.
EVT_PTYPE = "EVT"


@WORKLOADS.register("event-burst")
class EventBurstWorkload(Workload):
    """Randomly triggered emergency warnings flooded within a geographic scope.

    Models DENM-style hazard warnings: at random instants a random vehicle
    becomes the epicenter of an event and repeatedly broadcasts a warning
    that must reach every vehicle inside a geographic scope around the
    epicenter.  Receivers inside the scope rebroadcast each warning once
    (TTL-bounded application-layer flooding), so the offered load spikes in
    space and time -- the broadcast-storm regime the paper's connectivity
    category is criticised for.

    Delivery accounting is per receiver against the scope membership frozen
    at trigger time: ``delivery_ratio`` reads as the fraction of in-scope
    vehicles reached per warning.  Frozen scope sets, the rebroadcast dedup
    and the stats collector's per-packet dedup are all released
    :data:`~repro.workloads.safety_beacon.SCOPE_LINGER_S` seconds after the
    burst ends -- past that bound no reception of the warning can still be
    counted, so the tables stay proportional to the in-flight event window
    instead of accumulating over the whole run.

    Constructor keywords: ``event_count`` (default 4), ``radius_m`` (scope
    radius, default 600), ``repeats`` (warning retransmissions per event,
    default 3), ``repeat_interval_s`` (default 0.5), ``size_bytes``
    (default 300), ``flood_ttl`` (rebroadcast hop budget, default 4).
    """

    def __init__(
        self,
        event_count: int = 4,
        radius_m: float = 600.0,
        repeats: int = 3,
        repeat_interval_s: float = 0.5,
        size_bytes: int = 300,
        flood_ttl: int = 4,
    ) -> None:
        if event_count < 0:
            raise ValueError(f"event_count must be >= 0 (got {event_count})")
        if not (math.isfinite(repeat_interval_s) and repeat_interval_s >= 0):
            raise ValueError(
                f"repeat_interval_s must be finite and >= 0 (got {repeat_interval_s})"
            )
        if not size_bytes > 0:
            raise ValueError(f"size_bytes must be positive (got {size_bytes})")
        self.event_count = event_count
        self.radius_m = radius_m
        self.repeats = max(1, repeats)
        self.repeat_interval_s = repeat_interval_s
        self.size_bytes = size_bytes
        self.flood_ttl = max(1, flood_ttl)

    def build(
        self, scenario: "Scenario", built: "BuiltScenario", rng: random.Random
    ) -> List[Dict[str, float]]:
        flows: List[Dict[str, float]] = []
        vehicles = built.vehicle_nodes
        if not vehicles or self.event_count == 0:
            return flows
        #: flow_id -> node ids inside the scope at trigger time.
        scopes: Dict[int, Set[int]] = {}
        #: flow_key -> node ids that already rebroadcast that warning, for
        #: dedup; keyed per packet identity so expiring one warning releases
        #: its whole entry at once.
        rebroadcast_done: Dict[Tuple, Set[int]] = {}
        #: Packet identities still inside their linger window.  The scope
        #: set expires per *flow* (after the burst's last warning) but
        #: retirement is per *packet* (SCOPE_LINGER_S after its own send);
        #: a reception landing in that gap used to be re-counted against a
        #: retired key, silently re-creating its dedup entry.  Receivers
        #: consult this set, so a warning stops being countable at the
        #: same instant its accounting state is released.
        live_keys: Set[Tuple] = set()
        built.network.medium.claim_frames(
            EVT_PTYPE,
            self._frame_opener(built, scopes, rebroadcast_done, live_keys),
        )
        # Both the trigger instants and the epicenter vehicles are drawn up
        # front in event order, so the draw sequence is independent of how
        # the events later interleave with the simulation.
        window_start = min(1.0, scenario.duration_s)
        window_end = scenario.duration_s - self.repeats * self.repeat_interval_s
        window_end = max(window_start, window_end)
        triggers = sorted(
            rng.uniform(window_start, window_end) for _ in range(self.event_count)
        )
        epicenters = [rng.randrange(len(vehicles)) for _ in range(self.event_count)]
        for flow_id, (trigger_time, vehicle_index) in enumerate(
            zip(triggers, epicenters), start=1
        ):
            source = vehicles[vehicle_index]
            flows.append(
                {"flow_id": flow_id, "source": source.node_id, "destination": BROADCAST}
            )
            built.sim.schedule_at(
                trigger_time,
                self._trigger_event,
                built,
                source,
                flow_id,
                scopes,
                rebroadcast_done,
                live_keys,
            )
        return flows

    def _trigger_event(
        self,
        built: "BuiltScenario",
        source: "Node",
        flow_id: int,
        scopes: Dict[int, Set[int]],
        rebroadcast_done: Dict[Tuple, Set[int]],
        live_keys: Set[Tuple],
    ) -> None:
        """Freeze the scope set and start the warning burst."""
        in_scope = {
            node.node_id
            for node in built.network.nodes_within(
                source.position, self.radius_m, exclude=source.node_id
            )
            if node.kind is not NodeKind.RSU
        }
        scopes[flow_id] = in_scope
        built.stats.register_flow(
            flow_id, source.node_id, BROADCAST, mode="broadcast"
        )
        last_delay = 0.0
        for repeat in range(self.repeats):
            delay = repeat * self.repeat_interval_s
            # Like every other workload, nothing originates past the
            # evaluated window -- the drain period is for in-flight packets,
            # not fresh traffic.
            if built.sim.now + delay > built.scenario.duration_s:
                break
            last_delay = delay
            built.sim.schedule(
                delay,
                self._send_warning,
                built,
                source,
                flow_id,
                repeat + 1,
                len(in_scope),
                rebroadcast_done,
                live_keys,
            )
        # The frozen scope expires on the safety-beacon linger bound after
        # the last warning of the burst: past it no reception of this event
        # can still be counted against the set.
        built.sim.schedule(last_delay + SCOPE_LINGER_S, scopes.pop, flow_id, None)

    def _send_warning(
        self,
        built: "BuiltScenario",
        source: "Node",
        flow_id: int,
        seq: int,
        expected: int,
        rebroadcast_done: Dict[Tuple, Set[int]],
        live_keys: Set[Tuple],
    ) -> None:
        packet = make_data_packet(
            "app",
            source.node_id,
            BROADCAST,
            size_bytes=self.size_bytes,
            created_at=built.sim.now,
            flow_id=flow_id,
            seq=seq,
            ttl=self.flood_ttl,
        )
        packet.ptype = EVT_PTYPE
        live_keys.add(packet.flow_key)
        built.stats.data_originated(packet, expected_receivers=expected)
        source.send(packet, BROADCAST)
        # Same linger bound as the scope: stop counting receptions of this
        # warning, then release its rebroadcast dedup entry and the stats
        # collector's per-(receiver, packet) dedup.  The liveness discard is
        # scheduled *first* so that at the expiry instant no receiver can
        # observe a retired-but-still-countable key (that ordering is what
        # keeps the conservation-invariant probe's ledger exact).
        built.sim.schedule(SCOPE_LINGER_S, live_keys.discard, packet.flow_key)
        built.sim.schedule(
            SCOPE_LINGER_S, rebroadcast_done.pop, packet.flow_key, None
        )
        built.sim.schedule(
            SCOPE_LINGER_S, built.stats.packet_retired, flow_id, packet.flow_key
        )

    @staticmethod
    def _frame_opener(
        built: "BuiltScenario",
        scopes: Dict[int, Set[int]],
        rebroadcast_done: Dict[Tuple, Set[int]],
        live_keys: Set[Tuple],
    ) -> "FrameOpener":
        """The medium's claim on EVT frames: every reception is consumed."""
        stats = built.stats
        sim = built.sim

        def open_frame(packet: "Packet", sender_id: int) -> "FrameReceiver":
            in_scope = scopes.get(packet.flow_id)
            # The flow's scope may outlive an individual warning (the scope
            # expires after the burst's *last* repeat, each warning lingers
            # from its own send): once a warning's key left the live set its
            # accounting state is retired, so the frame is consumed without
            # being counted or relayed.
            if in_scope is None or packet.flow_key not in live_keys:
                return consume_frame
            count = stats.broadcast_counter(packet, sim.now)
            key = packet.flow_key
            relays = packet.ttl > 1

            def receive(nodes: List["Node"], rx_power_dbm: float) -> None:
                for node in nodes:
                    node_id = node.node_id
                    if node_id not in in_scope:
                        continue
                    count([node_id])
                    # Geo-scoped flooding: every in-scope receiver relays
                    # each warning exactly once while the hop budget lasts.
                    done = rebroadcast_done.setdefault(key, set())
                    if relays and node_id not in done:
                        done.add(node_id)
                        node.send(packet.forwarded(), BROADCAST)

            return receive

        return open_frame

    def extra_metrics(self, built: "BuiltScenario") -> Dict[str, float]:
        return {"events_triggered": float(len(built.stats.flows))}


WORKLOADS.register_preset(
    "event-burst-storm",
    EventBurstWorkload,
    "8 emergency events, 5 rapid warning repeats each (stress burst)",
    kind="event-burst",
    event_count=8,
    repeats=5,
    repeat_interval_s=0.2,
)
