"""The on-demand routing core: route discovery and source-route forwarding.

AODV, ROVER, DSR, DisjLi and the metric-accumulating protocols (PBR, Taleb,
Abedi, NiuDe, Yan-TBP) share AODV's two phases (Sec. III.B): a *discovery*
that floods or probes a request for a destination, then *route
maintenance*.  :class:`OnDemandProtocol` runs the discovery lifecycle once
for all of them:

* **start** -- a fresh request id, the discovery's start time and retry
  count in ``_discoveries``, one ``route_discovery_started``, the request
  itself, then a timeout ``discovery_timeout_s`` later;
* **retry** -- a timeout that finds no usable route starts the next
  attempt, up to ``max_discovery_retries`` retries; one that finds a route
  (learnt some other way, say from an overheard request) ends the
  discovery without a completion and sends the buffered packets;
* **give up** -- after the last attempt every packet buffered for the
  destination is counted as a ``no_route`` drop;
* **completion** -- the protocol calls :meth:`~OnDemandProtocol._complete_discovery`
  when a reply installs a route: the latency is recorded and the buffered
  packets (``pending``) go out through ``route_data`` in the order they
  were buffered.

Each protocol supplies three hooks: how it sends its request
(:meth:`~OnDemandProtocol._send_request`: AODV bumps its sequence number,
ROVER adds zone headers, Yan-TBP sends ticket probes), how it handles one it
receives (:meth:`~OnDemandProtocol._handle_request`) and whether it holds a
usable route (:meth:`~OnDemandProtocol._has_route`).

Requests never reach ``handle_packet``: every protocol claims its request
type (``request_ptype``: ``"RREQ"`` or ``"MREQ"``) on the medium (see
:meth:`~repro.sim.medium.WirelessMedium.claim_frames`), so a flooded
request is handed to each receiver's ``_handle_request`` as the transmitted
frame itself.  Handlers read it and never write to it; a relay sends its
own :meth:`~repro.sim.packet.Packet.forwarded` copy.

:class:`SourceRoutingProtocol` adds the forwarding DSR, DisjLi and the
metric-accumulating protocols share: the source attaches the whole path
(``src_route``) to each data packet and every hop passes it to the next
node on the path while that node is still in its beacon table.  When it is
not, the hop counts a link break and a ``no_route`` drop and calls the one
break hook, :meth:`~SourceRoutingProtocol._route_broken` (DSR sends a RERR,
DisjLi just drops, the metric protocols record a route-lifetime sample).

Beacons are managed by :class:`~repro.protocols.base.RoutingProtocol`:
a protocol that sets ``beacons`` has them started and stopped with it.

The bookkeeping pieces live here too: a duplicate cache for flooded
request identifiers, a table of discovered routes, and a buffer of data
packets waiting for a route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.protocols.base import ProtocolConfig, RoutingProtocol
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.medium import FrameReceiver


class DuplicateCache:
    """Remember identifiers (e.g. ``(origin, rreq_id)``) with time-based expiry."""

    def __init__(self, lifetime_s: float = 30.0, max_entries: int = 4096) -> None:
        self.lifetime_s = lifetime_s
        self.max_entries = max_entries
        self._entries: Dict[Hashable, float] = {}

    def seen(self, key: Hashable, now: float) -> bool:
        """True when ``key`` was recorded less than ``lifetime_s`` ago.

        The key is recorded as seen either way, so the typical usage is a
        single ``if cache.seen(key, now): return`` guard.
        """
        expiry = self._entries.get(key)
        already = expiry is not None and expiry > now
        self._entries[key] = now + self.lifetime_s
        if len(self._entries) > self.max_entries:
            self._evict(now)
        return already

    def _evict(self, now: float) -> None:
        live = {key: expiry for key, expiry in self._entries.items() if expiry > now}
        if len(live) > self.max_entries:
            # Keep the newest half when even live entries overflow.
            ordered = sorted(live.items(), key=lambda item: item[1], reverse=True)
            live = dict(ordered[: self.max_entries // 2])
        self._entries = live

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class RouteEntry:
    """One route in a routing table."""

    destination: int
    next_hop: int
    hop_count: int
    expiry: float
    sequence: int = 0
    metric: float = 0.0
    path: List[int] = field(default_factory=list)
    established_at: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)

    def is_valid(self, now: float) -> bool:
        """True while the route has not expired."""
        return now < self.expiry


class RouteTable:
    """Destination-indexed routing table with expiry."""

    def __init__(self) -> None:
        self._routes: Dict[int, RouteEntry] = {}

    def get(self, destination: int, now: float) -> Optional[RouteEntry]:
        """Valid route toward ``destination``, or None."""
        entry = self._routes.get(destination)
        if entry is None or not entry.is_valid(now):
            return None
        return entry

    def put(self, entry: RouteEntry) -> None:
        """Insert or replace the route toward ``entry.destination``."""
        self._routes[entry.destination] = entry

    def update_if_better(self, entry: RouteEntry, now: float) -> bool:
        """Install ``entry`` if it is fresher or better than the current route.

        "Better" means: newer sequence number, or equal sequence number with a
        smaller hop count; an expired current route is always replaced.
        """
        current = self._routes.get(entry.destination)
        if current is None or not current.is_valid(now):
            self._routes[entry.destination] = entry
            return True
        if entry.sequence > current.sequence:
            self._routes[entry.destination] = entry
            return True
        if entry.sequence == current.sequence and entry.hop_count < current.hop_count:
            self._routes[entry.destination] = entry
            return True
        return False

    def invalidate(self, destination: int) -> None:
        """Remove the route toward ``destination``."""
        self._routes.pop(destination, None)

    def invalidate_via(self, next_hop: int) -> List[int]:
        """Remove every route that uses ``next_hop``; returns affected destinations."""
        affected = [
            destination
            for destination, entry in self._routes.items()
            if entry.next_hop == next_hop
        ]
        for destination in affected:
            del self._routes[destination]
        return affected

    def destinations(self, now: float) -> List[int]:
        """Destinations with currently valid routes."""
        return [d for d, entry in self._routes.items() if entry.is_valid(now)]

    def all_entries(self) -> List[RouteEntry]:
        """Every entry, valid or not (used by proactive protocols)."""
        return list(self._routes.values())

    def __len__(self) -> int:
        return len(self._routes)


class PendingPacketBuffer:
    """Data packets waiting for a route, grouped by destination.

    Packets older than ``max_age_s`` are discarded when their destination's
    queue is next touched; ``on_expire``, when given, is called once for
    each.
    """

    def __init__(
        self,
        capacity_per_destination: int = 16,
        max_age_s: float = 10.0,
        on_expire: Optional[Callable[[], None]] = None,
    ) -> None:
        self.capacity_per_destination = capacity_per_destination
        self.max_age_s = max_age_s
        self.on_expire = on_expire
        self._buffers: Dict[int, List[Tuple[float, Packet]]] = {}

    def add(self, packet: Packet, now: float) -> bool:
        """Buffer a packet; returns False (drop) when the buffer is full."""
        queue = self._buffers.setdefault(packet.destination, [])
        self._expire(queue, now)
        if len(queue) >= self.capacity_per_destination:
            return False
        queue.append((now, packet))
        return True

    def pop_all(self, destination: int, now: float) -> List[Packet]:
        """Remove and return all non-expired packets buffered for ``destination``."""
        queue = self._buffers.pop(destination, [])
        self._expire(queue, now)
        return [packet for _, packet in queue]

    def pending_destinations(self) -> List[int]:
        """Destinations that currently have buffered packets."""
        return [destination for destination, queue in self._buffers.items() if queue]

    def has_pending(self, destination: int) -> bool:
        """True when packets are buffered for ``destination``."""
        return bool(self._buffers.get(destination))

    def drop_all(self, destination: int) -> int:
        """Discard everything buffered for ``destination``; returns the count."""
        queue = self._buffers.pop(destination, [])
        return len(queue)

    def _expire(self, queue: List[Tuple[float, Packet]], now: float) -> None:
        fresh = [(t, p) for t, p in queue if now - t <= self.max_age_s]
        if self.on_expire is not None:
            for _ in range(len(queue) - len(fresh)):
                self.on_expire()
        queue[:] = fresh

    def __len__(self) -> int:
        return sum(len(queue) for queue in self._buffers.values())


class OnDemandProtocol(RoutingProtocol):
    """Base of the protocols that discover routes on demand.

    The config must provide ``discovery_timeout_s`` and
    ``max_discovery_retries``.  Subclasses implement :meth:`_send_request`,
    :meth:`_handle_request` and :meth:`_has_route`, buffer packets that have
    no route with :meth:`_await_route`, and call :meth:`_complete_discovery`
    once a reply installs a route.
    """

    #: Packet type of this protocol's route request, claimed on the medium.
    request_ptype = "RREQ"

    def __init__(self, node: Node, network: Network, config: ProtocolConfig) -> None:
        super().__init__(node, network, config)
        #: Data packets waiting for a route; one that waits too long is a
        #: buffer drop, as one turned away from a full buffer is.
        self.pending = PendingPacketBuffer(on_expire=self.stats.buffer_drop)
        #: Requests already seen, keyed by ``(origin, request id)``.
        self._request_cache = DuplicateCache(lifetime_s=10.0)
        self._request_id = 0
        #: destination -> (start time, retries) of the discovery in flight.
        self._discoveries: Dict[int, Tuple[float, int]] = {}
        network.medium.claim_frames(self.request_ptype, _open_request)

    # ------------------------------------------------------------------ hooks
    def _send_request(self, destination: int) -> None:
        """Send the request (id ``self._request_id``) for ``destination``."""
        raise NotImplementedError

    def _handle_request(self, packet: Packet, sender_id: int) -> None:
        """Handle a request received from ``sender_id``.

        ``packet`` is the transmitted frame, shared by every receiver: read
        it, never write to it (relay a :meth:`~repro.sim.packet.Packet.forwarded`
        copy).
        """
        raise NotImplementedError

    def _has_route(self, destination: int) -> bool:
        """Whether a usable route toward ``destination`` is held."""
        raise NotImplementedError

    # -------------------------------------------------------------- lifecycle
    def _await_route(self, packet: Packet) -> None:
        """Buffer ``packet`` and make sure a discovery for it is running."""
        if not self.pending.add(packet, self.now):
            self.stats.buffer_drop()
        self._discover(packet.destination)

    def _discover(self, destination: int) -> None:
        """Start a discovery for ``destination`` unless one is in flight."""
        if destination not in self._discoveries:
            self._start_discovery(destination, retries=0)

    def _start_discovery(self, destination: int, retries: int) -> None:
        self._request_id += 1
        self._discoveries[destination] = (self.now, retries)
        self.stats.route_discovery_started()
        # Mark our own request as seen so we never relay it.
        self._request_cache.seen((self.node.node_id, self._request_id), self.now)
        self._send_request(destination)
        self.sim.schedule(self.config.discovery_timeout_s, self._discovery_timeout, destination)

    def _discovery_timeout(self, destination: int) -> None:
        state = self._discoveries.get(destination)
        if state is None:
            return
        if self._has_route(destination):
            # The route came from elsewhere (an overheard request, a cached
            # reverse path): no completion, but the backlog can go now.
            del self._discoveries[destination]
            self._send_pending(destination)
            return
        retries = state[1]
        if retries < self.config.max_discovery_retries:
            self._start_discovery(destination, retries=retries + 1)
            return
        del self._discoveries[destination]
        for _ in range(self.pending.drop_all(destination)):
            self.stats.no_route_drop()

    def _complete_discovery(self, destination: int) -> None:
        """A route toward ``destination`` was installed: record it, send the backlog."""
        state = self._discoveries.pop(destination, None)
        if state is not None:
            self.stats.route_discovery_completed(self.now - state[0])
        self._send_pending(destination)

    def _send_pending(self, destination: int) -> None:
        for packet in self.pending.pop_all(destination, self.now):
            self.route_data(packet)


def _open_request(packet: Packet, sender_id: int) -> "FrameReceiver":
    """The medium's claim on request frames: one handler call per receiver.

    Each receiver whose protocol sends requests of this type handles the
    transmitted packet through :meth:`OnDemandProtocol._handle_request`,
    in the order the medium hands receivers over; any other receiver
    ignores it, as its ``handle_packet`` always did.
    """
    ptype = packet.ptype

    def receive(nodes: List[Node], rx_power_dbm: float) -> None:
        for node in nodes:
            protocol = node.protocol
            if getattr(protocol, "request_ptype", None) == ptype:
                protocol._handle_request(packet, sender_id)

    return receive


class SourceRoutingProtocol(OnDemandProtocol):
    """On-demand discovery of whole paths that data packets carry in their header.

    Subclasses set ``beacons`` (the forwarder's liveness check), implement
    :meth:`_route_to`, and may react to a broken hop in
    :meth:`_route_broken`.
    """

    # ------------------------------------------------------------------ hooks
    def _route_to(self, destination: int) -> Optional[List[int]]:
        """The path (this node first) to send on toward ``destination``, or None."""
        raise NotImplementedError

    def _route_broken(self, packet: Packet, next_hop: int) -> None:
        """React to ``next_hop`` having left the route ``packet`` follows.

        Called after the link break and the packet's drop are counted; the
        default does nothing more.
        """

    def _has_route(self, destination: int) -> bool:
        return self._route_to(destination) is not None

    # ------------------------------------------------------------------- data
    def route_data(self, packet: Packet) -> None:
        """Send on the route toward the destination, or buffer and discover one."""
        destination = packet.destination
        if destination == self.node.node_id:
            self.deliver_locally(packet)
            return
        path = self._route_to(destination)
        if path is None:
            self._await_route(packet)
            return
        packet.headers["src_route"] = list(path)
        packet.headers["route_index"] = 0
        self._forward_on_route(packet)

    def _handle_data(self, packet: Packet, sender_id: int) -> None:
        if packet.destination == self.node.node_id:
            self.deliver_locally(packet)
            return
        if packet.ttl <= 1:
            self.stats.ttl_drop()
            return
        route: List[int] = packet.headers.get("src_route", [])
        try:
            index = route.index(self.node.node_id)
        except ValueError:
            return
        forwarded = packet.forwarded()
        forwarded.headers["route_index"] = index
        self._forward_on_route(forwarded)

    def _forward_on_route(self, packet: Packet) -> None:
        route: List[int] = packet.headers["src_route"]
        index = packet.headers.get("route_index", 0)
        if index >= len(route) - 1:
            return
        next_hop = route[index + 1]
        if not self.beacons.table.contains(next_hop, self.now):
            self.stats.link_break()
            self.stats.no_route_drop()
            self._route_broken(packet, next_hop)
            return
        packet.headers["route_index"] = index + 1
        self.unicast(packet, next_hop)

    def _relay_reply(self, packet: Packet, path: List[int]) -> None:
        """Pass a reply one hop back along ``path`` toward the request's origin."""
        index = packet.headers["route_index"]
        if index <= 0 or index >= len(path) or path[index] != self.node.node_id:
            # We are not on the reverse path (stale unicast); ignore.
            return
        forwarded = packet.forwarded()
        forwarded.headers["route_index"] = index - 1
        self.unicast(forwarded, path[index - 1])
