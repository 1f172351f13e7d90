"""DSR: Dynamic Source Routing (paper ref. [7]).

DSR discovers complete source routes: the RREQ accumulates the list of nodes
it traverses, the destination returns that list in an RREP, and data packets
carry the full route in their header.  The origin keeps a route cache.  A hop
whose next node has left its beacon table broadcasts a RERR naming the broken
link, and every node drops the cached routes that use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.taxonomy import Category, register_protocol
from repro.protocols.base import ProtocolConfig
from repro.protocols.discovery import SourceRoutingProtocol
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
    """

    route_cache_lifetime_s: float = 15.0
    discovery_timeout_s: float = 1.0
    max_discovery_retries: int = 2
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
class DsrProtocol(SourceRoutingProtocol):
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
        self.beacons = self.beacon_service()

    # -------------------------------------------------------------- reception
    def handle_packet(self, packet: Packet, sender_id: int) -> None:
        """Dispatch on the DSR packet type."""
        ptype = packet.ptype
        if ptype == "RREP":
            self._handle_rrep(packet, sender_id)
        elif ptype == "RERR":
            self._handle_rerr(packet, sender_id)
        elif packet.is_data:
            self._handle_data(packet, sender_id)

    # -------------------------------------------------------------- discovery
    def _route_to(self, destination: int) -> Optional[List[int]]:
        """The cached path toward ``destination``; an expired one is purged."""
        entry = self._cache.get(destination)
        if entry is None:
            return None
        path, expiry = entry
        if expiry < self.now:
            del self._cache[destination]
            return None
        return path

    def _send_request(self, destination: int) -> None:
        rreq = self.make_control(
            "RREQ",
            size_bytes=self.config.rreq_size_bytes,
            rreq_id=self._request_id,
            origin=self.node.node_id,
            target=destination,
            route=[self.node.node_id],
        )
        self.broadcast(rreq)

    def _handle_request(self, packet: Packet, sender_id: int) -> None:
        headers = packet.headers
        origin = headers["origin"]
        if origin == self.node.node_id:
            return
        route: List[int] = list(headers["route"])
        if self.node.node_id in route:
            return
        if self._request_cache.seen((origin, headers["rreq_id"]), self.now):
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
            self._complete_discovery(target)
            return
        self._relay_reply(packet, route)

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
    def _route_broken(self, packet: Packet, next_hop: int) -> None:
        self._send_rerr(self.node.node_id, next_hop, packet.source)

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
