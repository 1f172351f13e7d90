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

The scalar completion decides once per run of identical inputs: when the
reception model is ``deterministic`` (a pure function of signal and
interference, like the SNR threshold), a receiver whose received power
and interference equal the previous receiver's reuses its outcome.  On a
quiet unit-disk frame every receiver has the same inputs, so the frame
costs one decision.  Models that draw from the ``"phy-reception"``
stream still decide per receiver, in candidate order.

Between two mobility steps nothing moves, so every frame completion and
every reachability query (``nodes_within``) from one sender position has
the same answer.  Scalar frame completions and every ``nodes_within`` query
therefore share *in-range tables*: per ``(position, radius)``, the
registered nodes within ``radius`` as ``(node, node position, distance)``
in registration order, built once with the exact filter above and reused
until :meth:`~WirelessMedium.refresh_positions`, ``register`` or
``unregister`` drops them all.  Transmit power never enters a table (the
reception cutoff is part of the key), and stochastic propagation still
draws per receiver from the cached distances, in the same order.  Tables
are kept only while every registered node's position provider is
``stepped`` (see :class:`~repro.sim.node.PositionProvider`); a node whose
position follows ``sim.now`` continuously makes every query scan afresh.

Every delivery loop hands a frame's successful intended receivers, in
registration order, to one per-frame deliverer.  By default it gives each
receiver its own plain copy of the packet through
:meth:`~repro.sim.node.Node.deliver`, which runs the node's routing
protocol; the receiver may change its copy freely.  A consumer that handles
a frame type in bulk *claims* it instead
(:meth:`WirelessMedium.claim_frames`): the frame is opened once, at its
first successful receiver, and every receiver is then handed to the
opener's ``receive`` -- no copy, no per-node dispatch.  HELLO beacons
(:mod:`repro.protocols.neighbors`) and the safety-beacon and event-burst
workloads' frames travel this way.  A claimed reception runs at the exact
point ``Node.deliver`` would have run and still draws the packet uid its
copy would have taken, so traces are byte-identical either way.

The ``"vectorized"`` backend keeps the grid index for candidate
lookups but also registers every node in a struct-of-arrays
:class:`~repro.sim.position_store.PositionStore` and evaluates the
per-frame physics -- distances, received powers, interference sums and
reception decisions -- as numpy array expressions over the candidate rows.
Each array expression is chosen to be bit-identical to its scalar
counterpart (see :mod:`~repro.sim.position_store`), so the vectorized
backend reproduces the ``"grid"`` backend's event traces byte for byte.  The
fast path applies when the propagation model is deterministic and the
interference model is additive (or unused); stochastic channels fall back
to the scalar per-receiver loop so RNG streams are consumed in exactly the
scalar order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.geometry import Vec2
from repro.radio.interference import (
    NO_SIGNAL_DBM,
    dbm_to_mw_batch,
    mw_to_dbm,
    mw_to_dbm_batch,
)
from repro.radio.propagation import PropagationModel
from repro.radio.reception import (
    BATCH_COLLISION,
    BATCH_RECEIVED,
    ReceptionDecision,
    ReceptionModel,
)
from repro.sim.engine import Simulator
from repro.sim.packet import BROADCAST, Packet, next_uid
from repro.sim.spatial import UniformGridIndex, check_spatial_backend
from repro.sim.statistics import StatsCollector
from repro.sim.trace import EventTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.radio.mac import MacConfig
    from repro.radio.stack import RadioStack
    from repro.sim.node import Node

#: Default row-count threshold below which the vectorized completion hands
#: frames to the scalar loop (see ``WirelessMedium.vectorized_min_rows``).
#: Benchmarked: at N=100 (and marginally at N=400) the per-frame numpy
#: dispatch overhead made "vectorized" slower than "grid".
VECTORIZED_MIN_ROWS = 512

#: Carrier sensing is this much more sensitive than frame decoding.
CARRIER_SENSE_MARGIN_DB = 10.0
#: How far a node may drift from its indexed position before a refresh
#: without being missed by a query (the node grid's slack).
POSITION_SLACK_M = 100.0
#: Maximum staleness of indexed positions: queries lazily re-index every
#: node once this much simulated time has passed.
POSITION_REFRESH_S = 0.5

#: ``receive(node, rx_power_dbm)``: one claimed frame's per-receiver hand-off.
FrameReceiver = Callable[["Node", float], None]
#: ``open_frame(packet, sender_id) -> receive``: a claim on a frame type
#: (see :meth:`WirelessMedium.claim_frames`).
FrameOpener = Callable[[Packet, int], FrameReceiver]


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
        spatial_backend: ``"grid"`` (default) or ``"vectorized"`` (per-frame
            physics as numpy array expressions; requires numpy).
    """

    def __init__(
        self,
        sim: Simulator,
        propagation: Optional[PropagationModel] = None,
        reception: Optional[ReceptionModel] = None,
        stats: Optional[StatsCollector] = None,
        mac_config: Optional["MacConfig"] = None,
        trace: Optional[EventTrace] = None,
        spatial_backend: str = "grid",
        stack: Optional["RadioStack"] = None,
    ) -> None:
        self.sim = sim
        check_spatial_backend(spatial_backend)
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
        self._vectorized = spatial_backend == "vectorized"
        if self._vectorized:
            from repro.sim.position_store import PositionStore, require_numpy

            self._np = require_numpy()
            self.position_store: Optional["PositionStore"] = PositionStore()
        else:
            self._np = None
            self.position_store = None
        #: Cached (ids, cx, cy) from the last vectorized re-index; lets the
        #: next refresh touch only nodes whose grid cell actually changed.
        self._cell_cache = None
        cutoff = self._reception_cutoff(self.stack.tx_power_dbm)
        #: Grid cell side: the reception cutoff, so a receiver query touches
        #: the 3x3 block of cells around the sender.
        self._cell_size_m = cutoff if cutoff > 0 else 500.0
        self._node_index = UniformGridIndex(self._cell_size_m, POSITION_SLACK_M)
        #: Registration sequence: candidates are visited in this order, so
        #: the visit order (and every RNG draw) does not depend on the index.
        self._node_seq: Dict[int, int] = {}
        self._seq_counter = 0
        #: (structure_version, per-row registration sequence) for the
        #: vectorized candidate ordering; rebuilt only when rows move.
        self._row_seq_cache = None
        self._last_position_refresh = -float("inf")
        #: (x, y, radius) -> in-range table (see :meth:`_disk`); dropped
        #: whenever geometry or membership can change.
        self._disks: Dict[tuple, List[tuple]] = {}
        #: Registered nodes whose position provider is not ``stepped``: while
        #: any is present, in-range tables are never kept.
        self._live_nodes = 0
        self._max_tx_power_dbm: Optional[float] = None
        #: ptype -> frame opener (see :meth:`claim_frames`).
        self._claims: Dict[str, FrameOpener] = {}
        #: Pooled per-frame scratch arrays for `_complete_vectorized`
        #: (two float64 buffers and one bool buffer, grown on demand);
        #: reception at 10 Hz x N nodes would otherwise allocate four
        #: store-sized arrays per frame.
        self._frame_scratch_arrays = None
        #: Row-order node list twin of ``_row_seq_cache`` (see
        #: :meth:`_node_row_list`).
        self._node_row_cache = None
        #: contribution mW -> (dBm fold table, max count); see
        #: :meth:`_fold_table`.
        self._fold_tables: Dict[float, tuple] = {}
        #: Below this many stored rows the vectorized completion routes to
        #: the scalar loop: per-frame numpy dispatch overhead beats the
        #: Python loop only once enough receivers amortize it, and the two
        #: paths are bit-identical so dispatch is free to pick either.
        self.vectorized_min_rows = VECTORIZED_MIN_ROWS

    # --------------------------------------------------------------- topology
    def register(self, node: "Node") -> None:
        """Attach a node to the channel and give it a MAC instance."""
        if node.node_id in self._nodes:
            raise ValueError(f"node id {node.node_id} already registered")
        from repro.radio.mac import CsmaCaMac

        self._nodes[node.node_id] = node
        self._disks.clear()
        if _is_live(node):
            self._live_nodes += 1
        self._seq_counter += 1
        self._node_seq[node.node_id] = self._seq_counter
        self._node_index.insert(node.node_id, node.position)
        if self.position_store is not None:
            from repro.sim.node import StaticPositionProvider

            self.position_store.add(
                node.node_id,
                node.position,
                velocity=node.velocity,
                tx_power_dbm=node.tx_power_dbm,
                static=isinstance(node._position_provider, StaticPositionProvider),
            )
            node.bind_position_store(self.position_store)
            self._cell_cache = None
        node.mac = CsmaCaMac(
            node, self, self.mac_config, self.sim.rng.stream(f"mac-{node.node_id}")
        )

    def unregister(self, node_id: int) -> None:
        """Detach a node (e.g. a vehicle leaving the scenario)."""
        node = self._nodes.pop(node_id, None)
        self._disks.clear()
        if node is not None and _is_live(node):
            self._live_nodes -= 1
        self._node_seq.pop(node_id, None)
        self._node_index.remove(node_id)
        if self.position_store is not None and node_id in self.position_store:
            self.position_store.remove(node_id)
            self._cell_cache = None

    @property
    def nodes(self) -> Dict[int, "Node"]:
        """All registered nodes, keyed by node id."""
        return self._nodes

    def claim_frames(self, ptype: str, open_frame: FrameOpener) -> None:
        """Hand every received frame of ``ptype`` to ``open_frame``, not ``Node.deliver``.

        For a claimed frame, ``open_frame(packet, sender_id)`` runs at most
        once, at the frame's first successful intended receiver, and never
        for a frame nobody receives.  ``packet`` is the transmitted packet
        itself, not a receiver's copy: the opener must not change it, and
        one that forwards it sends a copy.  The ``receive(node, rx_power_dbm)`` it returns is
        then called for that receiver and every later one, in registration
        order, at exactly the point an unclaimed frame is handed to
        :meth:`~repro.sim.node.Node.deliver` -- so trace records, scheduled
        events, tap emissions and RNG draws keep their order.  A claimed
        frame never reaches the routing protocol.  Claiming a ptype again replaces the earlier claim.
        """
        self._claims[ptype] = open_frame

    # ---------------------------------------------------------- spatial index
    def refresh_positions(self) -> None:
        """Re-index every node's live position (called each mobility step).

        Also drops every in-range table: positions may have changed.
        """
        self._disks.clear()
        if self._vectorized:
            self._refresh_positions_vectorized()
            self._last_position_refresh = self.sim.now
            return
        index = self._node_index
        for node_id, node in self._nodes.items():
            index.update(node_id, node.position)
        self._last_position_refresh = self.sim.now

    def _refresh_positions_vectorized(self) -> None:
        """Bulk re-index from the position store.

        Rows owned by an array-capable mobility model are already current;
        everything else dynamic is pulled from its node's scalar position
        first.  Grid cells for all rows come from one ``floor(x / size)``
        array expression (bit-identical to the scalar ``_cell``), and only
        nodes whose cell changed since the last refresh touch the index.
        """
        np = self._np
        store = self.position_store
        nodes = self._nodes
        for node_id in store.unmanaged_dynamic_ids():
            store.set_position(node_id, nodes[node_id].position)
        store.touch()
        count = store.size
        index = self._node_index
        size = self._cell_size_m
        cx = np.floor(store.xs[:count] / size).astype(np.int64)
        cy = np.floor(store.ys[:count] / size).astype(np.int64)
        ids = store.ids()
        cache = self._cell_cache
        if cache is not None and cache[0] == ids:
            moved = np.nonzero((cx != cache[1]) | (cy != cache[2]))[0]
        else:
            moved = range(count)
        for i in moved:
            index.update_cell(ids[i], (int(cx[i]), int(cy[i])))
        self._cell_cache = (ids, cx, cy)

    def _maybe_refresh_positions(self) -> None:
        if self.sim.now - self._last_position_refresh >= POSITION_REFRESH_S:
            self.refresh_positions()

    def _disk(self, position: Vec2, radius: float) -> List[tuple]:
        """In-range table: ``(node, node position, distance)`` within ``radius``.

        Entries are the registered nodes whose live position lies within
        ``radius`` of ``position``, in registration order.  Between two
        position refreshes no stepped node moves, so the table for a
        ``(position, radius)`` key is built once (grid candidates, exact
        distance test) and served to every later query with that key;
        :meth:`refresh_positions`, :meth:`register` and :meth:`unregister`
        drop all tables.  While a node with a live (continuously moving)
        position provider is registered, every call scans afresh.  Callers
        must not mutate the returned list.
        """
        self._maybe_refresh_positions()
        key = (position.x, position.y, radius)
        disk = self._disks.get(key)
        if disk is not None:
            return disk
        ids = self._node_index.query_ids(position, radius)
        ids.sort(key=self._node_seq.__getitem__)
        nodes = self._nodes
        distance_to = position.distance_to
        disk = []
        for node_id in ids:
            node = nodes[node_id]
            node_position = node.position
            distance = distance_to(node_position)
            if distance <= radius:
                disk.append((node, node_position, distance))
        if not self._live_nodes:
            self._disks[key] = disk
        return disk

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
            for node, _, _ in self._disk(position, radius)
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
        schedule_completion: bool = True,
    ) -> tuple:
        """Put a frame on the air; reception is evaluated when it ends.

        Returns the frame's completion entry ``(delay, callback, args,
        priority)``.  With ``schedule_completion=False`` the caller takes
        over scheduling it -- the MAC batches the entry together with its
        own transmission-done timer through ``Simulator.schedule_many``.
        """
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
        entry = (duration, self._complete, (transmission,), 0)
        if schedule_completion:
            self.sim.schedule(duration, self._complete, transmission)
        return entry

    # ------------------------------------------------------------- completion
    def _frame_deliverer(self, transmission: ActiveTransmission) -> FrameReceiver:
        """The frame's one hand-off: ``deliver(receiver, rx_power_dbm)``.

        Every delivery loop calls it at each successful intended receiver,
        in registration order.  A claimed ptype (see :meth:`claim_frames`)
        opens the frame at the first call and passes each receiver to the
        opener's ``receive``; every call still draws the packet uid that
        receiver's copy would have taken, so uids number the same either
        way.  Any other frame goes to :meth:`~repro.sim.node.Node.deliver`
        as a per-receiver :meth:`~repro.sim.packet.Packet.copy`, which the
        receiver owns outright.
        """
        packet = transmission.packet
        sender_id = transmission.sender_id
        open_frame = self._claims.get(packet.ptype)
        if open_frame is None:
            copy = packet.copy

            def deliver(node: "Node", rx_power_dbm: float) -> None:
                node.deliver(copy(), sender_id, rx_power_dbm)

            return deliver
        receive: Optional[FrameReceiver] = None

        def deliver_claimed(node: "Node", rx_power_dbm: float) -> None:
            nonlocal receive
            next_uid()
            if receive is None:
                receive = open_frame(packet, sender_id)
            receive(node, rx_power_dbm)

        return deliver_claimed

    def _complete(self, transmission: ActiveTransmission) -> None:
        if (
            self._vectorized
            and self.propagation.deterministic
            and (
                not self.interference.uses_contributions
                or self.interference.additive_mw
            )
            and self.position_store.size >= self.vectorized_min_rows
        ):
            self._complete_vectorized(transmission)
            return
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
        trace = self.trace
        tracing = trace.enabled
        decide = self.reception.decide
        # Equal inputs give equal outcomes under a deterministic model (see
        # the module docstring); RNG-drawing models decide per receiver.
        reuse_decisions = self.reception.deterministic
        last_rx_power = last_interference = outcome = None
        sender_id = transmission.sender_id
        deliver = self._frame_deliverer(transmission)
        # The in-range table carries each receiver's distance, which the
        # received power shares (every bundled model depends on geometry
        # only through it, and draws its RNG in receiver order).
        for node, receiver_position, distance in self._disk(sender_position, cutoff):
            if node.node_id == sender_id:
                continue
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

    def _node_row_list(self):
        """Node objects in row order, cached across position writes.

        The delivery loops map surviving rows to receivers once per frame;
        a plain list index beats the ``row -> id -> node`` double lookup on
        that path.  Invalidation piggybacks on ``structure_version`` (rows
        are added or removed far more rarely than frames complete).
        """
        store = self.position_store
        cache = self._node_row_cache
        if cache is not None and cache[0] == store.structure_version:
            return cache[1]
        nodes = self._nodes
        row_nodes = [nodes[node_id] for node_id in store.ids_view()]
        self._node_row_cache = (store.structure_version, row_nodes)
        return row_nodes

    def _row_seq_array(self):
        """``(seq-per-row, already-sorted)`` cached across position writes.

        Ordering candidates is a per-frame operation; the id->seq dict walk
        is only paid when the row<->id mapping actually changed (node joined
        or left), which is rare next to frame completions.  While no node
        has left, rows sit in registration order and the per-frame argsort
        can be skipped entirely (``already-sorted`` is True).
        """
        store = self.position_store
        cache = self._row_seq_cache
        if cache is not None and cache[0] == store.structure_version:
            return cache[1], cache[2]
        np = self._np
        seq = self._node_seq
        arr = np.fromiter(
            (seq[node_id] for node_id in store.ids()),
            dtype=np.int64,
            count=store.size,
        )
        is_sorted = bool(np.all(arr[1:] > arr[:-1])) if len(arr) > 1 else True
        self._row_seq_cache = (store.structure_version, arr, is_sorted)
        return arr, is_sorted

    def _frame_scratch(self, count: int):
        """Pooled per-frame work buffers, grown (never shrunk) on demand.

        Returns ``count``-length views over two float64 buffers and one
        bool buffer.  Safe to reuse across frames: every value is fully
        overwritten before it is read, and nothing outlives the frame
        (downstream consumers index them into fresh result arrays).
        """
        np = self._np
        arrays = self._frame_scratch_arrays
        if arrays is None or arrays[0].size < count:
            capacity = max(64, count)
            current = 0 if arrays is None else arrays[0].size
            if current:
                while current < capacity:
                    current *= 2
                capacity = current
            arrays = (
                np.empty(capacity),
                np.empty(capacity),
                np.empty(capacity, dtype=bool),
            )
            self._frame_scratch_arrays = arrays
        return arrays[0][:count], arrays[1][:count], arrays[2][:count]

    def _complete_vectorized(self, transmission: ActiveTransmission) -> None:
        """Array-expression twin of the scalar :meth:`_complete` body.

        Distances to *every* stored row are evaluated as one array
        expression (cheaper than walking grid buckets and re-sorting their
        candidate lists in Python), then received powers, interference sums
        and reception decisions run over the in-cutoff survivors -- each
        expression chosen to be bit-identical to the scalar path (exact
        IEEE-754 ops vectorized, transcendentals evaluated per element with
        libm -- see :mod:`~repro.sim.position_store`).  Trace records, stats
        and deliveries then run in registration order over the survivors, so
        the emitted event stream is byte-identical to the scalar path's.
        Only entered for deterministic propagation with additive (or unused)
        interference; RNG-drawing reception models are still exact because
        :meth:`~repro.radio.reception.ReceptionModel.decide_batch` consumes
        the ``"phy-reception"`` stream in candidate order like the scalar
        loop (the scalar loop skips out-of-cutoff and no-signal candidates
        before drawing, so filtering first preserves the stream).
        """
        now = self.sim.now
        self._prune(now)
        cutoff = self._reception_cutoff(transmission.tx_power_dbm)
        rng = self.sim.rng.stream("phy-reception")
        is_unicast = transmission.next_hop != BROADCAST
        unicast_delivered = False
        np = self._np
        store = self.position_store
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
        self._maybe_refresh_positions()
        sender_position = transmission.sender_position
        count = store.size
        dx, dy, keep = self._frame_scratch(count)
        # In-place twins of `(xs-x)^2 + (ys-y)^2`: the same elementwise
        # IEEE-754 ops, written into pooled buffers instead of fresh
        # allocations per frame.
        np.subtract(store.xs[:count], sender_position.x, out=dx)
        np.subtract(store.ys[:count], sender_position.y, out=dy)
        np.multiply(dx, dx, out=dx)
        np.multiply(dy, dy, out=dy)
        np.add(dx, dy, out=dx)
        # Prefilter on *squared* distance so the sqrt only runs over the
        # few in-range rows instead of the whole store.  `sqrt(d2) <= c`
        # implies `d2 <= c*c` to within a couple of ulps, so widening the
        # squared cutoff by 1e-12 relative makes the prefilter a strict
        # superset; the exact per-candidate `sqrt(d2) <= c` test below then
        # reproduces the scalar path's membership bit for bit.
        np.less_equal(dx, cutoff * cutoff * (1.0 + 1e-12), out=keep)
        if transmission.sender_id in store:
            keep[store.row_of(transmission.sender_id)] = False
        prelim = keep.nonzero()[0]
        prelim_distances = np.sqrt(dx[prelim])
        in_range = prelim_distances <= cutoff
        candidates = prelim[in_range]
        candidate_distances = prelim_distances[in_range]
        if candidates.size > 1:
            # Visit candidates in registration order, like the scalar loop
            # (rows come back in row order, which IS registration order
            # until a node leaves and its slot gets recycled).
            row_seq, already_sorted = self._row_seq_array()
            if not already_sorted:
                order = np.argsort(row_seq[candidates], kind="stable")
                candidates = candidates[order]
                candidate_distances = candidate_distances[order]
        rx_powers = self.propagation.rx_power_dbm_batch(
            transmission.tx_power_dbm, candidate_distances
        )
        signal = rx_powers > NO_SIGNAL_DBM
        kept_rows = candidates[signal]
        rx_kept = rx_powers[signal]
        row_ids = store.ids_view()
        if interferers and len(kept_rows):
            kept_xs = store.xs[kept_rows]
            kept_ys = store.ys[kept_rows]
            # One (interferer x receiver) distance matrix instead of a
            # python loop of per-interferer arrays; subtraction, multiply
            # and sqrt are elementwise-exact, so each entry carries the
            # same bits the per-interferer expression produced.
            other_xs = np.array([o.sender_position.x for o in interferers])
            other_ys = np.array([o.sender_position.y for o in interferers])
            odx = kept_xs[np.newaxis, :] - other_xs[:, np.newaxis]
            ody = kept_ys[np.newaxis, :] - other_ys[:, np.newaxis]
            other_distances = np.sqrt(odx * odx + ody * ody)
            # Contributions go straight to linear units: the fold below sums
            # in mW, and the propagation model's mW batch is bit-identical
            # to converting its dBm batch element by element (out-of-range
            # entries land on exact 0.0, and 0.0 + x == x in the fold).
            tx_powers = [o.tx_power_dbm for o in interferers]
            same_power = len(set(tx_powers)) == 1
            profile = (
                self.propagation.constant_rx_profile(tx_powers[0])
                if same_power
                else None
            )
            if profile is not None:
                # Disk channels contribute one exact mW level in range and
                # exact zero beyond it, and zero terms are no-ops in the
                # sequential fold -- so a receiver's folded interference
                # depends only on its in-range interferer *count*.  Look the
                # fold (and its dBm conversion) up in a table of iterative
                # sums, which is bit-identical to running the fold.
                contribution_mw, reach = profile
                counts = (other_distances <= reach).sum(axis=0)
                interference_kept = self._fold_table(
                    contribution_mw, len(interferers)
                )[counts]
            else:
                if same_power:
                    contributions_mw = self.propagation.rx_power_mw_batch(
                        tx_powers[0], other_distances.ravel()
                    ).reshape(other_distances.shape)
                else:
                    contributions_mw = np.empty_like(other_distances)
                    for i, other in enumerate(interferers):
                        contributions_mw[i] = self.propagation.rx_power_mw_batch(
                            other.tx_power_dbm, other_distances[i]
                        )
                # Fold row by row: the scalar path sums contributions in
                # interferer order, and float addition is order-sensitive.
                total_mw = np.zeros(len(kept_rows))
                for i in range(len(interferers)):
                    total_mw += contributions_mw[i]
                interference_kept = mw_to_dbm_batch(total_mw)
        else:
            interference_kept = np.full(len(kept_rows), NO_SIGNAL_DBM)
        codes = self.reception.decide_batch(rx_kept, interference_kept, rng)
        nodes = self._nodes
        packet = transmission.packet
        sender_id = transmission.sender_id
        next_hop = transmission.next_hop
        trace = self.trace if self.trace.enabled else None
        if not is_unicast and trace is None and not isinstance(codes, list):
            # Broadcast with tracing off (the beacon-storm hot case): every
            # receiver is intended, no trace records interleave with
            # deliveries, and the loss counters are pure tallies -- so count
            # collisions in bulk and walk only the received indices, mapping
            # rows straight to nodes for those.  (Broadcast frames never hit
            # the weak-signal counter: it only fires for the addressed next
            # hop.)
            collisions = int(np.count_nonzero(codes == BATCH_COLLISION))
            if collisions:
                self.stats.collision(collisions)
            received = (codes == BATCH_RECEIVED).nonzero()[0]
            if not received.size:
                return
            row_nodes = self._node_row_list()
            deliver = self._frame_deliverer(transmission)
            for row, rx_power in zip(
                kept_rows[received].tolist(), rx_kept[received].tolist()
            ):
                deliver(row_nodes[row], rx_power)
            return
        rx_list = rx_kept.tolist()
        kept_ids = [row_ids[row] for row in kept_rows.tolist()]
        code_list = codes.tolist() if hasattr(codes, "tolist") else list(codes)
        deliver = self._frame_deliverer(transmission)
        for j, node_id in enumerate(kept_ids):
            code = code_list[j]
            intended = not is_unicast or next_hop == node_id
            if code == BATCH_RECEIVED:
                if intended:
                    if is_unicast:
                        unicast_delivered = True
                    if trace is not None:
                        trace.record(
                            now,
                            "rx",
                            node_id,
                            ptype=packet.ptype,
                            sender=sender_id,
                            uid=packet.uid,
                        )
                    deliver(nodes[node_id], rx_list[j])
            elif code == BATCH_COLLISION:
                if intended:
                    self.stats.collision()
                    if trace is not None:
                        trace.record(
                            now, "collision", node_id, sender=sender_id, uid=packet.uid
                        )
            elif intended and next_hop == node_id:
                self.stats.weak_signal()
        if is_unicast:
            sender = nodes.get(sender_id)
            if sender is not None and sender.mac is not None:
                sender.mac.notify_unicast_result(packet, next_hop, unicast_delivered)

    def _fold_table(self, contribution_mw: float, max_count: int):
        """dBm results of sequentially folding 0..``max_count`` equal mW terms.

        ``table[j]`` carries the exact bits of ``mw_to_dbm`` applied to the
        running sum ``((contribution + contribution) + ...)`` of ``j`` terms
        -- the same left-to-right addition order the per-receiver fold (and
        the scalar path's ``combine_dbm``) uses, so indexing the table by
        in-range counts reproduces the fold bit for bit.  Cached per
        contribution level and regrown when a frame sees more interferers.
        """
        np = self._np
        entry = self._fold_tables.get(contribution_mw)
        if entry is None or entry[1] < max_count:
            total = 0.0
            sums_mw = [0.0]
            for _ in range(max_count):
                total += contribution_mw
                sums_mw.append(total)
            entry = (np.array([mw_to_dbm(m) for m in sums_mw]), max_count)
            self._fold_tables[contribution_mw] = entry
        return entry[0]

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
