"""The shared wireless broadcast medium.

Every frame handed to the medium is propagated to all registered nodes: the
propagation model attenuates it, concurrent transmissions interfere with it,
and the reception model decides per receiver whether the frame arrives.
Unicast frames (``next_hop`` set) are filtered at the receiver, but they
still occupy the channel for everybody -- which is what makes flooding
expensive and is the physical basis of Table I's "overhead / broadcast
storm" column for connectivity-based routing.

Receiver fan-out goes through one
:class:`~repro.sim.spatial.UniformGridIndex` over the registered nodes.
Candidates from the grid are re-filtered against live positions and
visited in registration order, so a frame reaches exactly the receivers an
exhaustive scan finds (the test suite keeps that scan as its oracle).
Carrier sensing and interference aggregation scan the few frames in flight
with the grid's cell-granular test.  A hard-edge channel (the
unit disk) is evaluated exactly up to its disk and no further: the disk
radius is both the reception cutoff and the carrier-sense reach, so
interferers are gathered within two disk radii of the sender.  Models
whose received power never drops to ``NO_SIGNAL_DBM`` (two-ray,
free-space, shadowing) are approximated under the grid: transmitters
beyond the carrier-sense cutoff are excluded from carrier sensing and
interference sums, the same bounded-range tradeoff (a 2x margin over the
nominal range) that :meth:`WirelessMedium._reception_cutoff` applies to
their reception.

A hard-edge channel gives every receiver of a frame the same power, and
an overlapping frame contributes one level inside its own disk and nothing
outside it.  So while every overlapping frame shares one transmit power, a
receiver's interference depends only on its *interferer count* -- how many
overlapping frames' in-range tables (below) hold it -- and is
``interference.combine([level] * count)``, kept per level and count.  Under
a ``deterministic`` reception model (a pure function of signal and
interference, like the SNR threshold) the frame is decided once per
interferer count, and an untraced broadcast whose outcomes read "received
with no interferer, collision with any" is settled in bulk: its receivers
are its own table minus every interferer table, and its collisions are
counted in one call before the deliveries.  Every other
channel sums each receiver's interferer powers, and a deterministic model
decides once per run of identical inputs: a receiver whose received power
and interference equal the previous receiver's reuses its outcome.  Models
that draw from the ``"phy-reception"`` stream still decide per receiver, in
candidate order.

Between two mobility steps nothing moves, so every frame completion and
every reachability query (``nodes_within``) from one sender position has
the same answer.  Frame completions and every ``nodes_within`` query
therefore share *in-range tables*: per ``(position, radius)``, the
registered nodes within ``radius`` in registration order, as parallel
lists of nodes, node positions and distances (a few containers per table
instead of one tuple per entry), built once with the exact filter above and reused
until :meth:`~WirelessMedium.refresh_positions`, ``register`` or
``unregister`` drops them all.  Transmit power never enters a table (the
reception cutoff is part of the key), and stochastic propagation still
draws per receiver from the cached distances, in the same order.  Tables
are kept only while every registered node's position provider is
``stepped`` (see :class:`~repro.sim.node.PositionProvider`); a node whose
position follows ``sim.now`` continuously makes every query scan afresh.

Every delivery loop hands a frame's successful intended receivers, in
registration order, to one per-frame deliverer, and every receiver reads
the one transmitted packet: a packet never changes after its first
transmission (see :mod:`repro.sim.packet`).  The frame is opened once, at
its first successful receiver, and each receiver is then handed to the
opener's ``receive``.  By default that calls
:meth:`~repro.sim.node.Node.deliver`, which runs the node's routing
protocol.  A consumer that handles a frame type in bulk *claims* it instead
(:meth:`WirelessMedium.claim_frames`) and skips the per-node dispatch.
HELLO beacons (:mod:`repro.protocols.neighbors`), the on-demand protocols'
route requests (RREQ and MREQ, :mod:`repro.protocols.discovery`) and the
safety-beacon and event-burst workloads' frames travel this way.  Every
reception draws one packet uid without building a packet, which keeps the
uid numbering that the golden trace digests pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.geometry import Vec2
from repro.radio.interference import NO_SIGNAL_DBM
from repro.radio.propagation import PropagationModel
from repro.radio.reception import ReceptionDecision, ReceptionModel
from repro.sim.engine import Simulator
from repro.sim.packet import BROADCAST, Packet, next_uid
from repro.sim.spatial import UniformGridIndex
from repro.sim.statistics import StatsCollector
from repro.sim.trace import EventTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.radio.mac import MacConfig
    from repro.radio.stack import RadioStack
    from repro.sim.node import Node

#: Carrier sensing is this much more sensitive than frame decoding.
CARRIER_SENSE_MARGIN_DB = 10.0
#: How far a live node may drift from its indexed position before a
#: refresh without being missed by a query (the node grid's slack).
POSITION_SLACK_M = 100.0
#: Maximum staleness of indexed positions: queries lazily re-index every
#: node once this much simulated time has passed.
POSITION_REFRESH_S = 0.5

#: ``(nodes, node positions, distances)``: one in-range table (see
#: :meth:`WirelessMedium._disk`).
InRangeTable = Tuple[List["Node"], List[Vec2], List[float]]

#: ``receive(node, rx_power_dbm)``: one frame's per-receiver hand-off.
FrameReceiver = Callable[["Node", float], None]
#: ``open_frame(packet, sender_id) -> receive``: how a frame type is handed
#: to its receivers (see :meth:`WirelessMedium.claim_frames`).
FrameOpener = Callable[[Packet, int], FrameReceiver]


def _deliver_to_nodes(packet: Packet, sender_id: int) -> FrameReceiver:
    """The opener of an unclaimed frame: each receiver's ``Node.deliver``."""

    def receive(node: "Node", rx_power_dbm: float) -> None:
        node.deliver(packet, sender_id)

    return receive


def _is_live(node: "Node") -> bool:
    """True when ``node``'s position may change outside a mobility step."""
    return not getattr(node._position_provider, "stepped", False)


@dataclass
class ActiveTransmission:
    """A frame currently (or recently) on the air."""

    sender_id: int
    sender_position: Vec2
    tx_power_dbm: float
    packet: Packet
    next_hop: int
    start: float
    end: float
    uid: int = field(default=0)


class WirelessMedium:
    """Shared channel connecting every registered node.

    The channel models come either from an assembled
    :class:`~repro.radio.stack.RadioStack` (``stack=...``, what the harness
    passes after resolving the scenario's radio through the registry) or
    from the individual ``propagation`` / ``reception`` / ``mac_config``
    arguments; explicit individual arguments override the stack's
    components, and whatever is still unset falls back to the defaults
    (unit disk, SNR threshold, additive interference, 802.11p MAC).

    Args:
        stack: A complete radio profile supplying propagation, reception,
            interference combination, MAC parameters and transmit power in
            one object.
    """

    def __init__(
        self,
        sim: Simulator,
        propagation: Optional[PropagationModel] = None,
        reception: Optional[ReceptionModel] = None,
        stats: Optional[StatsCollector] = None,
        mac_config: Optional["MacConfig"] = None,
        trace: Optional[EventTrace] = None,
        stack: Optional["RadioStack"] = None,
    ) -> None:
        self.sim = sim
        # Imported here (not at module level) to break the import cycle
        # radio.mac -> sim.packet -> sim.medium -> radio.mac, which made
        # `import repro.radio` fail when it ran before `import repro.sim`.
        from repro.radio.stack import RadioStack

        # Explicit component arguments override the stack's models on a
        # *copy*: the caller's stack object stays as it was resolved (it may
        # be shared with reporting or a later medium).  Without a stack they
        # fill one in over RadioStack's defaults (unit disk, SNR threshold,
        # additive interference, 802.11p MAC).
        overrides = {}
        if propagation is not None:
            overrides["propagation"] = propagation
        if reception is not None:
            overrides["reception"] = reception
        if mac_config is not None:
            overrides["mac"] = mac_config
        if stack is None:
            stack = RadioStack(**overrides)
        elif overrides:
            stack = replace(stack, **overrides)
        self.stack = stack
        self.propagation = stack.propagation
        self.reception = stack.reception
        self.interference = stack.interference
        self.stats = stats if stats is not None else StatsCollector()
        self.mac_config = stack.mac
        self.trace = trace if trace is not None else EventTrace(enabled=False)
        self.carrier_sense_threshold_dbm = (
            self.reception.sensitivity_dbm - CARRIER_SENSE_MARGIN_DB
        )
        self._nodes: Dict[int, "Node"] = {}
        self._transmissions: List[ActiveTransmission] = []
        self._tx_counter = 0
        self._range_cache: Dict[float, float] = {}
        self._cs_range_cache: Dict[float, float] = {}
        cutoff = self._reception_cutoff(self.stack.tx_power_dbm)
        #: Grid cell side: the reception cutoff, so a receiver query touches
        #: the 3x3 block of cells around the sender.
        self._cell_size_m = cutoff if cutoff > 0 else 500.0
        self._node_index = UniformGridIndex(self._cell_size_m)
        #: Registration sequence: candidates are visited in this order, so
        #: the visit order (and every RNG draw) does not depend on the index.
        self._node_seq: Dict[int, int] = {}
        #: node id -> (node, position) as of the last refresh (or
        #: registration): what tables are built from while no live node is
        #: registered (see :meth:`_disk`).
        self._snapshot: Dict[int, tuple] = {}
        self._seq_counter = 0
        self._last_position_refresh = -float("inf")
        #: (x, y, radius) -> in-range table (see :meth:`_disk`); dropped
        #: whenever geometry or membership can change.
        self._disks: Dict[tuple, InRangeTable] = {}
        #: (x, y, radius) -> the nodes of that in-range table, as a set (see
        #: :meth:`_disk_nodes`); kept and dropped with ``_disks``.
        self._disk_sets: Dict[tuple, frozenset] = {}
        #: Registered nodes whose position provider is not ``stepped``: while
        #: any is present, in-range tables are never kept.
        self._live_nodes = 0
        self._max_tx_power_dbm: Optional[float] = None
        #: ptype -> frame opener (see :meth:`claim_frames`).
        self._claims: Dict[str, FrameOpener] = {}
        #: interferer level -> ``combine([level] * count)`` by count (see
        #: :meth:`_interference_levels`).
        self._interference_by_count: Dict[float, List[float]] = {}

    # --------------------------------------------------------------- topology
    def register(self, node: "Node") -> None:
        """Attach a node to the channel and give it a MAC instance."""
        if node.node_id in self._nodes:
            raise ValueError(f"node id {node.node_id} already registered")
        from repro.radio.mac import CsmaCaMac

        self._nodes[node.node_id] = node
        self._drop_tables()
        if _is_live(node):
            self._live_nodes += 1
        self._seq_counter += 1
        self._node_seq[node.node_id] = self._seq_counter
        position = node.position
        self._snapshot[node.node_id] = (node, position)
        self._node_index.insert(node.node_id, position)
        node.mac = CsmaCaMac(
            node, self, self.mac_config, self.sim.rng.stream(f"mac-{node.node_id}")
        )

    def unregister(self, node_id: int) -> None:
        """Detach a node (e.g. a vehicle leaving the scenario)."""
        node = self._nodes.pop(node_id, None)
        self._drop_tables()
        if node is not None and _is_live(node):
            self._live_nodes -= 1
        self._node_seq.pop(node_id, None)
        self._snapshot.pop(node_id, None)
        self._node_index.remove(node_id)

    @property
    def nodes(self) -> Dict[int, "Node"]:
        """All registered nodes, keyed by node id."""
        return self._nodes

    def claim_frames(self, ptype: str, open_frame: FrameOpener) -> None:
        """Hand every received frame of ``ptype`` to ``open_frame``, not ``Node.deliver``.

        For a claimed frame, ``open_frame(packet, sender_id)`` runs at most
        once, at the frame's first successful intended receiver, and never
        for a frame nobody receives.  ``packet`` is the transmitted packet,
        which no receiver may change: one that forwards it sends a copy.
        The ``receive(node, rx_power_dbm)`` it returns is then called for
        that receiver and every later one, in registration order, at
        exactly the point an unclaimed frame is handed to
        :meth:`~repro.sim.node.Node.deliver` -- so trace records, scheduled
        events, tap emissions and RNG draws keep their order.  A claimed
        frame never reaches the routing protocol.  Claiming a ptype again
        replaces the earlier claim.
        """
        self._claims[ptype] = open_frame

    # ---------------------------------------------------------- spatial index
    def refresh_positions(self) -> None:
        """Re-index every node's live position (called each mobility step).

        Also drops every in-range table: positions may have changed.
        """
        self._drop_tables()
        index = self._node_index
        snapshot = self._snapshot
        for node_id, node in self._nodes.items():
            position = node.position
            index.update(node_id, position)
            snapshot[node_id] = (node, position)
        self._last_position_refresh = self.sim.now

    def _drop_tables(self) -> None:
        self._disks.clear()
        self._disk_sets.clear()

    def _maybe_refresh_positions(self) -> None:
        if self.sim.now - self._last_position_refresh >= POSITION_REFRESH_S:
            self.refresh_positions()

    def _disk(self, position: Vec2, radius: float) -> InRangeTable:
        """In-range table: ``(nodes, node positions, distances)`` within ``radius``.

        The parallel lists hold the registered nodes whose live position
        lies within ``radius`` of ``position``, in registration order.  Between two
        position refreshes no stepped node moves, so the table for a
        ``(position, radius)`` key is built once (grid candidates, exact
        distance test) from the positions recorded at the last refresh and
        served to every later query with that key;
        :meth:`refresh_positions`, :meth:`register` and :meth:`unregister`
        drop all tables.  While a node with a live (continuously moving)
        position provider is registered, every call scans afresh, reading
        live positions from grid candidates widened by the drift slack.
        Callers must not mutate the returned lists.
        """
        self._maybe_refresh_positions()
        key = (position.x, position.y, radius)
        disk = self._disks.get(key)
        if disk is not None:
            return disk
        live = self._live_nodes
        ids = self._node_index.query_ids(
            position, radius + POSITION_SLACK_M if live else radius
        )
        ids.sort(key=self._node_seq.__getitem__)
        if live:
            nodes = self._nodes
            candidates = [(nodes[node_id], nodes[node_id].position) for node_id in ids]
        else:
            snapshot = self._snapshot
            candidates = [snapshot[node_id] for node_id in ids]
        # ``Vec2.distance_to`` inlined: the same operations in the same order.
        x = position.x
        y = position.y
        sqrt = math.sqrt
        nodes_in: List["Node"] = []
        positions_in: List[Vec2] = []
        distances_in: List[float] = []
        for node, node_position in candidates:
            dx = x - node_position.x
            dy = y - node_position.y
            distance = sqrt(dx * dx + dy * dy)
            if distance <= radius:
                nodes_in.append(node)
                positions_in.append(node_position)
                distances_in.append(distance)
        disk = (nodes_in, positions_in, distances_in)
        if not live:
            self._disks[key] = disk
        return disk

    def _disk_nodes(self, position: Vec2, radius: float) -> frozenset:
        """The nodes of the in-range table for ``(position, radius)``, as a set.

        Kept as long as the table is, so set algebra over the tables of
        overlapping frames costs one pass per table per mobility step.
        """
        self._maybe_refresh_positions()
        key = (position.x, position.y, radius)
        nodes = self._disk_sets.get(key)
        if nodes is None:
            nodes = frozenset(self._disk(position, radius)[0])
            if not self._live_nodes:
                self._disk_sets[key] = nodes
        return nodes

    def _transmissions_near(self, position: Vec2, radius: float) -> List[ActiveTransmission]:
        """Transmissions whose sender may be within ``radius``, in uid order.

        Frames overlap for about one airtime, so only a handful are ever in
        flight and a direct scan of ``_transmissions`` is all the lookup
        needs.  The scan applies the *cell-granular membership test* of
        :meth:`~repro.sim.spatial.UniformGridIndex.query_ids` on the node
        grid's cells -- not an exact distance test -- and that superset of
        interferers is what models without a hard edge see.
        ``_transmissions`` is append-ordered by uid and pruning preserves
        order, so the result is uid-sorted.
        """
        transmissions = self._transmissions
        if not math.isfinite(radius):
            return list(transmissions)
        size = self._cell_size_m
        floor = math.floor
        cx_min = floor((position.x - radius) / size)
        cx_max = floor((position.x + radius) / size)
        cy_min = floor((position.y - radius) / size)
        cy_max = floor((position.y + radius) / size)
        result = []
        for tx in transmissions:
            sender = tx.sender_position
            if (
                cx_min <= floor(sender.x / size) <= cx_max
                and cy_min <= floor(sender.y / size) <= cy_max
            ):
                result.append(tx)
        return result

    def nodes_in_range(self, node: "Node", range_m: float) -> List["Node"]:
        """Oracle: nodes whose current distance to ``node`` is within ``range_m``."""
        return self.nodes_within(node.position, range_m, exclude=node.node_id)

    def nodes_within(
        self, position: Vec2, radius: float, exclude: Optional[int] = None
    ) -> List["Node"]:
        """Registered nodes within ``radius`` metres of ``position``.

        In registration order.  Answered from the in-range table for
        ``(position, radius)`` (see :meth:`_disk`), so repeated queries from
        one position within a mobility step cost one scan; the table is
        dropped on every position refresh and whenever a node registers or
        leaves.
        """
        return [
            node
            for node in self._disk(position, radius)[0]
            if node.node_id != exclude
        ]

    def nominal_range(self, tx_power_dbm: float = 20.0) -> float:
        """Distance at which the mean received power hits the sensitivity."""
        return self.propagation.nominal_range(tx_power_dbm, self.reception.sensitivity_dbm)

    # ---------------------------------------------------------------- channel
    def channel_busy(self, node: "Node") -> bool:
        """True when ``node`` senses an ongoing transmission above the CS threshold."""
        now = self.sim.now
        position = node.position
        for tx in self._transmissions_near(position, self._carrier_sense_reach()):
            if tx.end <= now or tx.sender_id == node.node_id:
                continue
            rx_power = self.propagation.rx_power_dbm(
                tx.tx_power_dbm, tx.sender_position, position
            )
            if rx_power >= self.carrier_sense_threshold_dbm:
                return True
        return False

    def begin_transmission(
        self,
        sender: "Node",
        packet: Packet,
        next_hop: int,
        duration: float,
    ) -> None:
        """Put a frame on the air; reception is evaluated when it ends."""
        now = self.sim.now
        self._tx_counter += 1
        transmission = ActiveTransmission(
            sender_id=sender.node_id,
            sender_position=sender.position,
            tx_power_dbm=sender.tx_power_dbm,
            packet=packet,
            next_hop=next_hop,
            start=now,
            end=now + duration,
            uid=self._tx_counter,
        )
        self._transmissions.append(transmission)
        if (
            self._max_tx_power_dbm is None
            or sender.tx_power_dbm > self._max_tx_power_dbm
        ):
            self._max_tx_power_dbm = sender.tx_power_dbm
        self.stats.transmission(packet)
        tap = self.stats.tap
        if tap is not None:
            # The medium, not the collector, owns the sender position the
            # heatmap probe wants -- this is the one tap site outside stats.
            tap.transmission(packet, sender.node_id, transmission.sender_position)
        if self.trace.enabled:
            self.trace.record(
                now,
                "tx",
                sender.node_id,
                ptype=packet.ptype,
                protocol=packet.protocol,
                next_hop=next_hop,
                uid=packet.uid,
            )
        self.sim.schedule(duration, self._complete, transmission)

    # ------------------------------------------------------------- completion
    def _frame_deliverer(self, transmission: ActiveTransmission) -> FrameReceiver:
        """The frame's one hand-off: ``deliver(receiver, rx_power_dbm)``.

        Every delivery loop calls it at each successful intended receiver,
        in registration order.  The first call opens the frame with the
        ptype's claim (see :meth:`claim_frames`), or with
        :func:`_deliver_to_nodes` when it has none, and every call passes
        its receiver to the opener's ``receive``.  Each call draws one
        packet uid, which keeps the uid numbering the golden trace digests
        pin.
        """
        packet = transmission.packet
        sender_id = transmission.sender_id
        open_frame = self._claims.get(packet.ptype, _deliver_to_nodes)
        receive: Optional[FrameReceiver] = None

        def deliver(node: "Node", rx_power_dbm: float) -> None:
            nonlocal receive
            next_uid()
            if receive is None:
                receive = open_frame(packet, sender_id)
            receive(node, rx_power_dbm)

        return deliver

    def _complete(self, transmission: ActiveTransmission) -> None:
        now = self.sim.now
        self._prune(now)
        cutoff = self._reception_cutoff(transmission.tx_power_dbm)
        rng = self.sim.rng.stream("phy-reception")
        is_unicast = transmission.next_hop != BROADCAST
        unicast_delivered = False
        sender_position = transmission.sender_position
        tx_power_dbm = transmission.tx_power_dbm
        rx_power_from_distance = self.propagation.rx_power_dbm_from_distance
        # Every receiver of this frame sits within `cutoff` of the sender, so
        # (by the triangle inequality) every transmission that can interfere
        # at any of them sits within `cutoff + carrier-sense reach` of the
        # sender.  Fetching the overlap-filtered candidates once here keeps
        # the per-receiver interference loop free of index queries.  A model
        # that ignores contributions (NoInterference) skips the whole
        # gathering: per-interferer rx powers are a per-frame hot path.
        if self.interference.uses_contributions:
            interferers = [
                other
                for other in self._transmissions_near(
                    transmission.sender_position, cutoff + self._carrier_sense_reach()
                )
                if other.uid != transmission.uid
                and other.end > transmission.start
                and other.start < transmission.end
            ]
        else:
            interferers = []
        # The in-range table carries each receiver's distance, which the
        # received power shares (every bundled model depends on geometry
        # only through it, and draws its RNG in receiver order).
        receivers = self._disk(sender_position, cutoff)
        trace = self.trace
        tracing = trace.enabled
        decide = self.reception.decide
        sender_id = transmission.sender_id
        deliver = self._frame_deliverer(transmission)
        fold = self._count_fold(transmission, interferers)
        outcomes = None
        if fold is not None:
            rx_level, level, reach = fold
            disk_nodes = self._disk_nodes
            blockers = [disk_nodes(other.sender_position, reach) for other in interferers]
            levels = self._interference_levels(level, len(blockers))
            if self.reception.deterministic:
                # One decision per interferer count.
                outcomes = [decide(rx_level, interference, rng) for interference in levels]
                if (
                    not is_unicast
                    and not tracing
                    and outcomes[0].ok
                    and all(
                        outcome.decision is ReceptionDecision.COLLISION
                        for outcome in outcomes[1:]
                    )
                ):
                    self._deliver_in_bulk(
                        transmission, cutoff, receivers, blockers, rx_level, deliver
                    )
                    return
            # Only receivers that some interferer reaches get a count.
            counts: Dict["Node", int] = {}
            heard = disk_nodes(sender_position, cutoff) if blockers else frozenset()
            for nodes in blockers:
                for node in heard.intersection(nodes):  # repro-lint: ok DET-002 -- tallies only; receivers are walked in table order
                    counts[node] = counts.get(node, 0) + 1
        # Equal inputs give equal outcomes under a deterministic model (see
        # the module docstring); RNG-drawing models decide per receiver.
        reuse_decisions = self.reception.deterministic
        last_rx_power = last_interference = outcome = None
        for node, receiver_position, distance in zip(*receivers):
            if node.node_id == sender_id:
                continue
            if fold is not None:
                rx_power = rx_level
                if rx_power <= NO_SIGNAL_DBM:
                    continue
                if outcomes is not None:
                    outcome = outcomes[counts.get(node, 0)]
                else:
                    outcome = decide(rx_power, levels[counts.get(node, 0)], rng)
            else:
                rx_power = rx_power_from_distance(tx_power_dbm, distance)
                if rx_power <= NO_SIGNAL_DBM:
                    continue
                # With no overlapping frame the sum is NO_SIGNAL_DBM anyway.
                if interferers:
                    interference = self._interference_at(receiver_position, interferers)
                else:
                    interference = NO_SIGNAL_DBM
                if (
                    not reuse_decisions
                    or rx_power != last_rx_power
                    or interference != last_interference
                ):
                    outcome = decide(rx_power, interference, rng)
                    last_rx_power = rx_power
                    last_interference = interference
            intended = (
                transmission.next_hop == BROADCAST
                or transmission.next_hop == node.node_id
            )
            if outcome.ok:
                if intended:
                    if is_unicast:
                        unicast_delivered = True
                    if tracing:
                        trace.record(
                            now,
                            "rx",
                            node.node_id,
                            ptype=transmission.packet.ptype,
                            sender=transmission.sender_id,
                            uid=transmission.packet.uid,
                        )
                    deliver(node, rx_power)
            elif outcome.decision is ReceptionDecision.COLLISION:
                if intended:
                    self.stats.collision()
                    if tracing:
                        trace.record(
                            now,
                            "collision",
                            node.node_id,
                            sender=transmission.sender_id,
                            uid=transmission.packet.uid,
                        )
            elif intended and transmission.next_hop == node.node_id:
                self.stats.weak_signal()
        if is_unicast:
            sender = self._nodes.get(transmission.sender_id)
            if sender is not None and sender.mac is not None:
                sender.mac.notify_unicast_result(
                    transmission.packet, transmission.next_hop, unicast_delivered
                )

    def _count_fold(
        self, transmission: ActiveTransmission, interferers: List[ActiveTransmission]
    ) -> Optional[tuple]:
        """``(rx level, interferer level, interferer reach)``, or ``None``.

        Not ``None`` when the frame's channel has a hard edge (one constant
        received power inside a disk, see
        :meth:`~repro.radio.propagation.PropagationModel.constant_rx_profile`)
        and every overlapping frame shares one transmit power with a hard
        edge too.  A receiver's interference is then ``combine([level] *
        count)``, where ``count`` is the number of interferers whose
        in-range table for ``reach`` holds it -- exactly the contributions
        :meth:`_interference_at` would gather.  With no interferer (or a
        silent level) every count is zero.
        """
        propagation = self.propagation
        profile = propagation.constant_rx_profile(transmission.tx_power_dbm)
        if profile is None:
            return None
        if not interferers:
            return profile[0], NO_SIGNAL_DBM, 0.0
        tx_power_dbm = interferers[0].tx_power_dbm
        for other in interferers:
            if other.tx_power_dbm != tx_power_dbm:
                return None
        other_profile = propagation.constant_rx_profile(tx_power_dbm)
        if other_profile is None:
            return None
        if other_profile[0] <= NO_SIGNAL_DBM:
            return profile[0], NO_SIGNAL_DBM, 0.0
        return profile[0], other_profile[0], other_profile[1]

    def _interference_levels(self, level: float, max_count: int) -> List[float]:
        """``combine([level] * count)`` for every count from 0 to ``max_count``.

        Index ``count``; index 0 is ``NO_SIGNAL_DBM`` (no contribution).
        Each entry is the interference model's own ``combine`` of the same
        list :meth:`_interference_at` builds, so it carries the same bits.
        Kept per level and grown on demand.
        """
        levels = self._interference_by_count.get(level)
        if levels is None:
            levels = self._interference_by_count[level] = [NO_SIGNAL_DBM]
        combine = self.interference.combine
        while len(levels) <= max_count:
            levels.append(combine([level] * len(levels)))
        return levels[: max_count + 1]

    def _deliver_in_bulk(
        self,
        transmission: ActiveTransmission,
        cutoff: float,
        receivers: InRangeTable,
        blockers: List[frozenset],
        rx_level: float,
        deliver: FrameReceiver,
    ) -> None:
        """Settle an untraced broadcast received alone and lost to any interferer.

        ``receivers`` is the frame's in-range table and ``blockers`` holds
        each interferer's in-range nodes: receivers in no blocker receive,
        the rest collide.  Every receiver is intended and no trace record
        interleaves, so the collisions are counted in one call before the
        deliveries, which run in registration order.  (Broadcast frames
        never hit the weak-signal counter: it only fires for the addressed
        next hop.)
        """
        sender_id = transmission.sender_id
        if not blockers:
            for node in receivers[0]:
                if node.node_id != sender_id:
                    deliver(node, rx_level)
            return
        heard = self._disk_nodes(transmission.sender_position, cutoff)
        sender = self._nodes.get(sender_id)
        received = heard.difference((sender,), *blockers)
        collisions = len(heard) - (sender in heard) - len(received)
        if collisions:
            self.stats.collision(collisions)
        for node in receivers[0]:
            if node in received:
                deliver(node, rx_level)

    def _interference_at(
        self, position: Vec2, interferers: List[ActiveTransmission]
    ) -> float:
        """Aggregate power of the overlapping ``interferers`` at ``position``.

        How the contributions combine is the stack's interference model
        (additive power by default).
        """
        contributions: List[float] = []
        rx_power_dbm = self.propagation.rx_power_dbm
        for other in interferers:
            power = rx_power_dbm(other.tx_power_dbm, other.sender_position, position)
            if power > NO_SIGNAL_DBM:
                contributions.append(power)
        if not contributions:
            return NO_SIGNAL_DBM
        return self.interference.combine(contributions)

    def _reception_cutoff(self, tx_power_dbm: float) -> float:
        """Distance beyond which reception is impossible (evaluation cutoff).

        A hard-edge channel (one whose
        :meth:`~repro.radio.propagation.PropagationModel.constant_rx_profile`
        is a disk) is cut exactly at the disk: beyond it the received power
        is ``NO_SIGNAL_DBM``, which the delivery loop skips without RNG
        draws or counters, so the exact cutoff changes no output.  Every
        other model keeps a 2x margin over its nominal range.
        """
        cached = self._range_cache.get(tx_power_dbm)
        if cached is not None:
            return cached
        profile = self.propagation.constant_rx_profile(tx_power_dbm)
        if profile is not None:
            cutoff = profile[1]
        else:
            nominal = self.propagation.nominal_range(
                tx_power_dbm, self.reception.sensitivity_dbm
            )
            # Shadowed channels occasionally reach beyond the nominal range;
            # a 2x margin keeps that tail while bounding the per-frame work.
            cutoff = nominal * 2.0 if nominal > 0 else 0.0
        self._range_cache[tx_power_dbm] = cutoff
        return cutoff

    def _carrier_sense_reach(self) -> float:
        """Sender distance beyond which a transmission cannot trip carrier sense.

        Uses the highest transmit power seen on the channel.  A hard-edge
        channel reaches exactly its disk (beyond it the power is
        ``NO_SIGNAL_DBM``, which neither senses nor interferes); every
        other model takes its nominal range against the carrier-sense
        threshold with the 2x shadowing margin :meth:`_reception_cutoff`
        applies.
        """
        tx_power = self._max_tx_power_dbm
        if tx_power is None:
            return 0.0
        cached = self._cs_range_cache.get(tx_power)
        if cached is not None:
            return cached
        profile = self.propagation.constant_rx_profile(tx_power)
        if profile is not None:
            reach = profile[1]
        else:
            nominal = self.propagation.nominal_range(
                tx_power, self.carrier_sense_threshold_dbm
            )
            reach = nominal * 2.0 if nominal > 0 else 0.0
        self._cs_range_cache[tx_power] = reach
        return reach

    def _prune(self, now: float) -> None:
        """Drop transmissions that can no longer overlap anything in flight.

        A past transmission still matters while some pending frame's airtime
        overlaps it, so the horizon is the earliest start among frames that
        have not finished yet (``end >= now`` -- frames completing right now
        are still being evaluated).  This keeps arbitrarily long frames
        alive for their whole flight instead of cutting history at a fixed
        1-second window.
        """
        transmissions = self._transmissions
        horizon = None
        for t in transmissions:
            if t.end >= now and (horizon is None or t.start < horizon):
                horizon = t.start
        if horizon is None:
            self._transmissions = []
        else:
            self._transmissions = [t for t in transmissions if t.end > horizon]
