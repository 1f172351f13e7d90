"""DSR: Dynamic Source Routing (paper ref. [7]).

DSR discovers complete source routes: the RREQ accumulates the list of nodes
it traverses, the destination returns that list in an RREP, and data packets
carry the full route in their header.  The origin keeps a route cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.taxonomy import Category, register_protocol
from repro.protocols.base import ProtocolConfig, RoutingProtocol
from repro.protocols.discovery import DuplicateCache, PendingPacketBuffer
from repro.protocols.neighbors import BeaconService
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.packet import Packet


@dataclass
class DsrConfig(ProtocolConfig):
    """DSR parameters.

    Attributes:
        route_cache_lifetime_s: How long a cached source route stays usable.
        discovery_timeout_s: Time to wait for an RREP before retrying.
        max_discovery_retries: RREQ retries before giving up.
        use_hello: Enable HELLO beacons for next-hop liveness checks.
    """

    route_cache_lifetime_s: float = 15.0
    discovery_timeout_s: float = 1.0
    max_discovery_retries: int = 2
    use_hello: bool = True
    rreq_size_bytes: int = 48
    rrep_size_bytes: int = 64
    rerr_size_bytes: int = 32
    #: Random delay before re-broadcasting an RREQ (flood desynchronisation).
    rreq_forward_jitter_s: float = 0.02


@register_protocol(
    "DSR",
    Category.CONNECTIVITY,
    "On-demand source routing with route caches and full-path headers.",
    paper_reference="[7], Sec. III.B",
)
class DsrProtocol(RoutingProtocol):
    """Dynamic Source Routing."""

    def __init__(
        self,
        node: Node,
        network: Network,
        config: Optional[DsrConfig] = None,
    ) -> None:
        super().__init__(node, network, config if config is not None else DsrConfig())
        #: destination -> (path, expiry)
        self._cache: Dict[int, tuple[List[int], float]] = {}
        self.pending = PendingPacketBuffer()
        self._rreq_cache = DuplicateCache(lifetime_s=10.0)
        self._rreq_id = 0
        self._discoveries: Dict[int, Dict[str, float]] = {}
        self.beacons: Optional[BeaconService] = None
        if self.config.use_hello:
            self.beacons = BeaconService(
                self,
                interval_s=self.config.hello_interval_s,
                timeout_s=self.config.neighbor_timeout_s,
            )

    # ------------------------------------------------------------------ setup
    def start(self) -> None:
        """Start HELLO beaconing if enabled."""
        super().start()
        if self.beacons is not None:
            self.beacons.start()

    def stop(self) -> None:
        """Stop beaconing."""
        super().stop()
        if self.beacons is not None:
            self.beacons.stop()

    # ------------------------------------------------------------------- data
    def route_data(self, packet: Packet) -> None:
        """Attach a cached source route or buffer the packet and discover one."""
        destination = packet.destination
        if destination == self.node.node_id:
            self.deliver_locally(packet)
            return
        path = self._cached_path(destination)
        if path is not None:
            packet.headers["src_route"] = list(path)
            packet.headers["route_index"] = 0
            self._forward_on_route(packet)
            return
        if not self.pending.add(packet, self.now):
            self.stats.buffer_drop()
        self._ensure_discovery(destination)

    # -------------------------------------------------------------- reception
    def handle_packet(self, packet: Packet, sender_id: int) -> None:
        """Dispatch on the DSR packet type."""
        ptype = packet.ptype
        if ptype == "RREQ":
            self._handle_rreq(packet, sender_id)
        elif ptype == "RREP":
            self._handle_rrep(packet, sender_id)
        elif ptype == "RERR":
            self._handle_rerr(packet, sender_id)
        elif packet.is_data:
            self._handle_data(packet, sender_id)

    # -------------------------------------------------------------- discovery
    def _cached_path(self, destination: int) -> Optional[List[int]]:
        entry = self._cache.get(destination)
        if entry is None:
            return None
        path, expiry = entry
        if expiry < self.now:
            del self._cache[destination]
            return None
        return path

    def _ensure_discovery(self, destination: int) -> None:
        if destination in self._discoveries:
            return
        self._start_discovery(destination, retries=0)

    def _start_discovery(self, destination: int, retries: int) -> None:
        self._rreq_id += 1
        self._discoveries[destination] = {"started": self.now, "retries": retries}
        self.stats.route_discovery_started()
        rreq = self.make_control(
            "RREQ",
            size_bytes=self.config.rreq_size_bytes,
            rreq_id=self._rreq_id,
            origin=self.node.node_id,
            target=destination,
            route=[self.node.node_id],
        )
        self._rreq_cache.seen((self.node.node_id, self._rreq_id), self.now)
        self.broadcast(rreq)
        self.sim.schedule(
            self.config.discovery_timeout_s, self._discovery_timeout, destination
        )

    def _discovery_timeout(self, destination: int) -> None:
        state = self._discoveries.get(destination)
        if state is None:
            return
        if self._cached_path(destination) is not None:
            self._discoveries.pop(destination, None)
            return
        retries = int(state["retries"])
        if retries < self.config.max_discovery_retries:
            self._start_discovery(destination, retries=retries + 1)
        else:
            self._discoveries.pop(destination, None)
            dropped = self.pending.drop_all(destination)
            for _ in range(dropped):
                self.stats.no_route_drop()

    def _handle_rreq(self, packet: Packet, sender_id: int) -> None:
        headers = packet.headers
        origin = headers["origin"]
        if origin == self.node.node_id:
            return
        route: List[int] = list(headers["route"])
        if self.node.node_id in route:
            return
        if self._rreq_cache.seen((origin, headers["rreq_id"]), self.now):
            return
        route.append(self.node.node_id)
        target = headers["target"]
        if target == self.node.node_id:
            # Cache the reverse route toward the origin as a by-product.
            reverse = list(reversed(route))
            self._cache[origin] = (reverse, self.now + self.config.route_cache_lifetime_s)
            rrep = self.make_control(
                "RREP",
                destination=origin,
                size_bytes=self.config.rrep_size_bytes + 4 * len(route),
                origin=origin,
                target=target,
                route=route,
                route_index=len(route) - 2,
            )
            self.unicast(rrep, sender_id)
            return
        if packet.ttl <= 1:
            self.stats.ttl_drop()
            return
        forwarded = packet.forwarded()
        forwarded.headers["route"] = route
        jitter = self.rng.uniform(0.0, self.config.rreq_forward_jitter_s)
        self.sim.schedule(jitter, self.broadcast, forwarded)

    def _handle_rrep(self, packet: Packet, sender_id: int) -> None:
        headers = packet.headers
        route: List[int] = list(headers["route"])
        origin = headers["origin"]
        target = headers["target"]
        if origin == self.node.node_id:
            self._cache[target] = (route, self.now + self.config.route_cache_lifetime_s)
            state = self._discoveries.pop(target, None)
            if state is not None:
                self.stats.route_discovery_completed(self.now - state["started"])
            for data_packet in self.pending.pop_all(target, self.now):
                self.route_data(data_packet)
            return
        index = headers["route_index"]
        if index <= 0 or route[index] != self.node.node_id:
            # We are not on the reverse path (stale unicast); ignore.
            return
        forwarded = packet.forwarded()
        forwarded.headers["route_index"] = index - 1
        self.unicast(forwarded, route[index - 1])

    def _handle_rerr(self, packet: Packet, sender_id: int) -> None:
        broken_from = packet.headers.get("broken_from")
        broken_to = packet.headers.get("broken_to")
        if broken_from is None or broken_to is None:
            return
        stale = [
            destination
            for destination, (path, _) in self._cache.items()
            if self._path_uses_link(path, broken_from, broken_to)
        ]
        for destination in stale:
            del self._cache[destination]

    @staticmethod
    def _path_uses_link(path: List[int], a: int, b: int) -> bool:
        for u, v in zip(path, path[1:]):
            if (u, v) == (a, b) or (u, v) == (b, a):
                return True
        return False

    # ------------------------------------------------------------- forwarding
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
        if self.beacons is not None and not self.beacons.table.contains(next_hop, self.now):
            self.stats.link_break()
            self.stats.no_route_drop()
            self._send_rerr(self.node.node_id, next_hop, packet.source)
            return
        packet.headers["route_index"] = index + 1
        self.unicast(packet, next_hop)

    def _send_rerr(self, broken_from: int, broken_to: int, source: int) -> None:
        rerr = self.make_control(
            "RERR",
            size_bytes=self.config.rerr_size_bytes,
            broken_from=broken_from,
            broken_to=broken_to,
            source=source,
        )
        self.broadcast(rerr)
        # Our own cache may also contain the broken link.
        self._handle_rerr(rerr, self.node.node_id)
