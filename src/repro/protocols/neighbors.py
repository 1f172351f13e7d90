"""HELLO beaconing and neighbour tables.

Most surveyed protocols need "neighbouring awareness" (Sec. IV.A): each
vehicle periodically broadcasts a HELLO beacon carrying its position and
velocity, and keeps a table of the neighbours it has recently heard from.
The paper counts this as the overhead cost of the mobility and geographic
categories, so beacons go through the normal channel and are accounted as
control packets.

HELLO reception is the most frequent delivery in a beaconing run, so HELLO
frames skip the per-receiver delivery chain (``Node.deliver`` and the
protocol's packet dispatch).  Every :class:`BeaconService` claims the
``"HELLO"`` frame type on its network's medium (see
:meth:`~repro.sim.medium.WirelessMedium.claim_frames`): the medium opens
each received HELLO once, which parses its header dict once, and then
hands over the frame's successful receivers -- all of them at once when
it settles the frame in bulk.  Each hand-off builds one
:class:`NeighborEntry`, which every receiver of that hand-off with a
beacon service records.  Frames are immutable in flight, all receivers
of one frame are served at one instant and hear it at the same power
within one hand-off, and an entry never changes once recorded (it is
frozen, ``extra`` included), so the shared entry is what each receiver's
own would have been.  Protocols that react to a fresh entry (RSU-Relay
registers vehicles with their RSU) pass an ``on_beacon`` hook instead of
inspecting HELLOs themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.geometry import Vec2

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocols.base import RoutingProtocol
    from repro.sim.medium import FrameReceiver
    from repro.sim.node import Node
    from repro.sim.packet import Packet

#: HELLO header fields parsed into :class:`NeighborEntry` attributes; any
#: other header lands in ``NeighborEntry.extra``.
_BEACON_FIELDS = frozenset({"pos_x", "pos_y", "vel_x", "vel_y", "is_rsu"})

#: A HELLO's parsed header: ``(position, velocity, is_rsu, extra)``.
ParsedHello = Tuple[Vec2, Vec2, bool, Mapping[str, Any]]

#: The ``extra`` of an entry whose beacon carried no other header.
_NO_EXTRA: Mapping[str, Any] = MappingProxyType({})


@dataclass(frozen=True)
class NeighborEntry:
    """What a node knows about one neighbour from its last beacon.

    Frozen: one entry may be recorded by every receiver of a beacon (see
    the module docstring).  ``extra`` is a read-only mapping.
    """

    node_id: int
    position: Vec2
    velocity: Vec2
    last_seen: float
    rx_power_dbm: Optional[float] = None
    is_rsu: bool = False
    extra: Mapping[str, Any] = field(default_factory=lambda: _NO_EXTRA)

    @property
    def speed(self) -> float:
        """Scalar speed reported in the last beacon."""
        return self.velocity.norm()

    @property
    def heading(self) -> float:
        """Heading reported in the last beacon (0 when stationary)."""
        if self.velocity.norm_sq() == 0.0:
            return 0.0
        return self.velocity.angle()

    def predicted_position(self, now: float) -> Vec2:
        """Dead-reckoned position assuming constant velocity since the beacon."""
        return self.position + self.velocity * max(0.0, now - self.last_seen)


class NeighborTable:
    """Table of recently heard neighbours with staleness expiry."""

    def __init__(self, timeout_s: float = 3.0) -> None:
        self.timeout_s = timeout_s
        self._entries: Dict[int, NeighborEntry] = {}

    def update(self, entry: NeighborEntry) -> None:
        """Insert or refresh a neighbour entry."""
        self._entries[entry.node_id] = entry

    def get(self, node_id: int, now: Optional[float] = None) -> Optional[NeighborEntry]:
        """The entry for ``node_id`` if present and (when ``now`` given) fresh."""
        entry = self._entries.get(node_id)
        if entry is None:
            return None
        if now is not None and now - entry.last_seen > self.timeout_s:
            return None
        return entry

    def contains(self, node_id: int, now: Optional[float] = None) -> bool:
        """True when ``node_id`` is a (fresh) neighbour."""
        return self.get(node_id, now) is not None

    def neighbors(self, now: float) -> List[NeighborEntry]:
        """All entries younger than the timeout, purging stale ones."""
        self.purge(now)
        return list(self._entries.values())

    def purge(self, now: float) -> None:
        """Remove entries older than the timeout."""
        stale = [
            node_id
            for node_id, entry in self._entries.items()
            if now - entry.last_seen > self.timeout_s
        ]
        for node_id in stale:
            del self._entries[node_id]

    def remove(self, node_id: int) -> None:
        """Explicitly remove a neighbour (e.g. after a failed transmission)."""
        self._entries.pop(node_id, None)

    def __len__(self) -> int:
        return len(self._entries)


class BeaconService:
    """Periodic HELLO beaconing plus neighbour-table maintenance for a protocol.

    Constructing one claims ``"HELLO"`` frames on the protocol's network
    medium (see the module docstring); the protocol's node then receives
    HELLOs through :meth:`accept`, never through ``handle_packet``.
    ``on_beacon``, when given, is called with every fresh entry right
    after the table update.
    """

    #: Beacon size: position, velocity and a small protocol-specific payload.
    BEACON_SIZE_BYTES = 32

    def __init__(
        self,
        protocol: "RoutingProtocol",
        interval_s: float = 1.0,
        timeout_s: Optional[float] = None,
        extra_fields=None,
        on_beacon: Optional[Callable[[NeighborEntry], None]] = None,
    ) -> None:
        self.protocol = protocol
        self.interval_s = interval_s
        self.table = NeighborTable(
            timeout_s if timeout_s is not None else 3.0 * interval_s
        )
        #: Optional callable returning extra header fields for each beacon.
        self.extra_fields = extra_fields
        self.on_beacon = on_beacon
        self._task = None
        self.beacons_sent = 0
        protocol.network.medium.claim_frames("HELLO", _open_hello)

    def start(self) -> None:
        """Begin periodic beaconing (with per-node jitter to desynchronise)."""
        if self._task is not None:
            return
        sim = self.protocol.sim
        self._task = sim.schedule_periodic(
            self.interval_s,
            self._send_beacon,
            start_delay=self.interval_s * 0.1,
            jitter=self.interval_s * 0.2,
            rng_stream=f"beacon-{self.protocol.node.node_id}",
        )

    def stop(self) -> None:
        """Stop beaconing."""
        if self._task is not None:
            self._task.cancel()
            self._task = None

    def _send_beacon(self) -> None:
        node = self.protocol.node
        headers = {
            "pos_x": node.position.x,
            "pos_y": node.position.y,
            "vel_x": node.velocity.x,
            "vel_y": node.velocity.y,
            "is_rsu": node.is_infrastructure,
        }
        if self.extra_fields is not None:
            headers.update(self.extra_fields())
        beacon = self.protocol.make_control(
            "HELLO", size_bytes=self.BEACON_SIZE_BYTES, **headers
        )
        self.beacons_sent += 1
        self.protocol.broadcast(beacon)

    def accept(self, entry: NeighborEntry) -> None:
        """Record a heard HELLO's ``entry`` in the neighbour table.

        ``entry`` may be shared with the other receivers of the frame.
        """
        self.table.update(entry)
        if self.on_beacon is not None:
            self.on_beacon(entry)

    def neighbors(self) -> List[NeighborEntry]:
        """Fresh neighbour entries."""
        return self.table.neighbors(self.protocol.sim.now)


def _parse_hello(headers: Mapping[str, Any]) -> ParsedHello:
    """``(position, velocity, is_rsu, extra)`` from a HELLO's header dict."""
    get = headers.get
    extra = {key: value for key, value in headers.items() if key not in _BEACON_FIELDS}
    return (
        Vec2(get("pos_x", 0.0), get("pos_y", 0.0)),
        Vec2(get("vel_x", 0.0), get("vel_y", 0.0)),
        bool(get("is_rsu", False)),
        MappingProxyType(extra) if extra else _NO_EXTRA,
    )


def _open_hello(packet: "Packet", sender_id: int) -> "FrameReceiver":
    """The medium's claim on HELLO frames: one header parse per frame.

    Each hand-off builds one :class:`NeighborEntry`, and every receiver
    whose protocol runs a :class:`BeaconService` records it through
    :meth:`BeaconService.accept`; any other receiver ignores the frame, as
    a protocol without beaconing always did.
    """
    position, velocity, is_rsu, extra = _parse_hello(packet.headers)

    def receive(nodes: List["Node"], rx_power_dbm: float) -> None:
        entry = None
        for node in nodes:
            beacons = getattr(node.protocol, "beacons", None)
            if beacons is not None:
                if entry is None:
                    entry = NeighborEntry(
                        sender_id,
                        position,
                        velocity,
                        beacons.protocol.sim.now,
                        rx_power_dbm,
                        is_rsu,
                        extra,
                    )
                beacons.accept(entry)

    return receive
