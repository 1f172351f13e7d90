"""AODV: Ad hoc On-demand Distance Vector routing (RFC 3561, paper ref. [6]).

AODV is the canonical connectivity-based protocol the survey repeatedly uses
as the base other protocols extend (Abedi, DisjLi).  The implementation
follows the two-phase structure the paper describes (Sec. III.B): *route
discovery* with flooded RREQs answered by unicast RREPs, and *route
maintenance* with HELLO-based link sensing and RERRs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.taxonomy import Category, register_protocol
from repro.protocols.base import ProtocolConfig
from repro.protocols.discovery import OnDemandProtocol, RouteEntry, RouteTable
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.packet import Packet


@dataclass
class AodvConfig(ProtocolConfig):
    """AODV parameters.

    Attributes:
        route_lifetime_s: Validity period of an installed route.
        discovery_timeout_s: Time to wait for an RREP before retrying.
        max_discovery_retries: RREQ retries before giving up on a destination.
        use_hello: Enable HELLO beacons for link-break detection.
        rreq_size_bytes / rrep_size_bytes / rerr_size_bytes: Control sizes.
    """

    route_lifetime_s: float = 10.0
    discovery_timeout_s: float = 1.0
    max_discovery_retries: int = 2
    use_hello: bool = True
    rreq_size_bytes: int = 52
    rrep_size_bytes: int = 44
    rerr_size_bytes: int = 32
    #: Random delay before re-broadcasting an RREQ, which desynchronises the
    #: flood and keeps the broadcast storm from destroying itself.
    rreq_forward_jitter_s: float = 0.02


@register_protocol(
    "AODV",
    Category.CONNECTIVITY,
    "On-demand distance-vector routing with flooded RREQ and unicast RREP.",
    paper_reference="[6], Sec. III.B",
)
class AodvProtocol(OnDemandProtocol):
    """Ad hoc On-demand Distance Vector routing."""

    def __init__(
        self,
        node: Node,
        network: Network,
        config: Optional[AodvConfig] = None,
    ) -> None:
        super().__init__(node, network, config if config is not None else AodvConfig())
        self.routes = RouteTable()
        self._sequence = 0
        if self.config.use_hello:
            self.beacons = self.beacon_service()

    # ------------------------------------------------------------------- data
    def route_data(self, packet: Packet) -> None:
        """Forward along a known route or buffer and start a discovery."""
        destination = packet.destination
        if destination == self.node.node_id:
            self.deliver_locally(packet)
            return
        route = self.routes.get(destination, self.now)
        if route is not None and self._next_hop_alive(route.next_hop):
            self.unicast(packet, route.next_hop)
            return
        if route is not None:
            # The route exists but its next hop disappeared: treat as broken.
            self._handle_broken_link(route.next_hop)
        self._await_route(packet)

    # -------------------------------------------------------------- reception
    def handle_packet(self, packet: Packet, sender_id: int) -> None:
        """Dispatch on the AODV packet type."""
        ptype = packet.ptype
        if ptype == "RREP":
            self._handle_rrep(packet, sender_id)
        elif ptype == "RERR":
            self._handle_rerr(packet, sender_id)
        elif packet.is_data:
            self._handle_data(packet, sender_id)

    # -------------------------------------------------------------- discovery
    def _has_route(self, destination: int) -> bool:
        return self.routes.get(destination, self.now) is not None

    def _send_request(self, destination: int, **zone: float) -> None:
        """Flood an RREQ under a fresh sequence number (``zone``: extra headers)."""
        self._sequence += 1
        rreq = self.make_control(
            "RREQ",
            size_bytes=self.config.rreq_size_bytes,
            rreq_id=self._request_id,
            origin=self.node.node_id,
            origin_seq=self._sequence,
            target=destination,
            hop_count=0,
            **zone,
        )
        self.broadcast(rreq)

    def _handle_request(self, packet: Packet, sender_id: int) -> None:
        headers = packet.headers
        origin = headers["origin"]
        key = (origin, headers["rreq_id"])
        if origin == self.node.node_id:
            return
        if self._request_cache.seen(key, self.now):
            return
        hop_count = headers["hop_count"] + 1
        # Install / refresh the reverse route toward the origin.
        self.routes.update_if_better(
            RouteEntry(
                destination=origin,
                next_hop=sender_id,
                hop_count=hop_count,
                expiry=self.now + self.config.route_lifetime_s,
                sequence=headers["origin_seq"],
                established_at=self.now,
            ),
            self.now,
        )
        target = headers["target"]
        if target == self.node.node_id:
            self._sequence += 1
            rrep = self.make_control(
                "RREP",
                destination=origin,
                size_bytes=self.config.rrep_size_bytes,
                origin=origin,
                target=target,
                target_seq=self._sequence,
                hop_count=0,
            )
            self.unicast(rrep, sender_id)
            return
        if packet.ttl <= 1:
            self.stats.ttl_drop()
            return
        forwarded = packet.forwarded()
        forwarded.headers["hop_count"] = hop_count
        jitter = self.rng.uniform(0.0, self.config.rreq_forward_jitter_s)
        self.sim.schedule(jitter, self.broadcast, forwarded)

    def _handle_rrep(self, packet: Packet, sender_id: int) -> None:
        headers = packet.headers
        target = headers["target"]
        origin = headers["origin"]
        hop_count = headers["hop_count"] + 1
        # Install / refresh the forward route toward the target.
        self.routes.update_if_better(
            RouteEntry(
                destination=target,
                next_hop=sender_id,
                hop_count=hop_count,
                expiry=self.now + self.config.route_lifetime_s,
                sequence=headers["target_seq"],
                established_at=self.now,
            ),
            self.now,
        )
        if origin == self.node.node_id:
            self._complete_discovery(target)
            return
        reverse = self.routes.get(origin, self.now)
        if reverse is None:
            self.stats.no_route_drop()
            return
        forwarded = packet.forwarded()
        forwarded.headers["hop_count"] = hop_count
        self.unicast(forwarded, reverse.next_hop)

    def _handle_rerr(self, packet: Packet, sender_id: int) -> None:
        unreachable = packet.headers.get("unreachable", [])
        for destination in unreachable:
            route = self.routes.get(destination, self.now)
            if route is not None and route.next_hop == sender_id:
                self.routes.invalidate(destination)

    def _handle_data(self, packet: Packet, sender_id: int) -> None:
        destination = packet.destination
        if destination == self.node.node_id:
            self.deliver_locally(packet)
            return
        if packet.ttl <= 1:
            self.stats.ttl_drop()
            return
        route = self.routes.get(destination, self.now)
        if route is None or not self._next_hop_alive(route.next_hop):
            if route is not None:
                self._handle_broken_link(route.next_hop)
            self.stats.no_route_drop()
            self._send_rerr([destination])
            return
        self.unicast(packet.forwarded(), route.next_hop)

    # ------------------------------------------------------------ maintenance
    def _next_hop_alive(self, next_hop: int) -> bool:
        if self.beacons is None:
            return True
        return self.beacons.table.contains(next_hop, self.now)

    def _handle_broken_link(self, next_hop: int) -> None:
        affected = self.routes.invalidate_via(next_hop)
        if affected:
            self.stats.link_break()
            self._send_rerr(affected)

    def _send_rerr(self, unreachable: list) -> None:
        rerr = self.make_control(
            "RERR",
            size_bytes=self.config.rerr_size_bytes,
            unreachable=list(unreachable),
        )
        self.broadcast(rerr)
