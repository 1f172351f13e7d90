"""AODV: Ad hoc On-demand Distance Vector routing (RFC 3561, paper ref. [6]).

AODV is the canonical connectivity-based protocol the survey repeatedly uses
as the base other protocols extend (Abedi, DisjLi).  The implementation
follows the two-phase structure the paper describes (Sec. III.B): *route
discovery* with flooded RREQs answered by unicast RREPs, and *route
maintenance* with HELLO-based link sensing and RERRs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.taxonomy import Category, register_protocol
from repro.protocols.base import ProtocolConfig, RoutingProtocol
from repro.protocols.discovery import (
    DuplicateCache,
    PendingPacketBuffer,
    RouteEntry,
    RouteTable,
)
from repro.protocols.neighbors import BeaconService
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.packet import BROADCAST, Packet


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
class AodvProtocol(RoutingProtocol):
    """Ad hoc On-demand Distance Vector routing."""

    def __init__(
        self,
        node: Node,
        network: Network,
        config: Optional[AodvConfig] = None,
    ) -> None:
        super().__init__(node, network, config if config is not None else AodvConfig())
        self.routes = RouteTable()
        self.pending = PendingPacketBuffer()
        self._rreq_cache = DuplicateCache(lifetime_s=10.0)
        self._sequence = 0
        self._rreq_id = 0
        #: destination -> (start time, retries) of an in-flight discovery.
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
        if not self.pending.add(packet, self.now):
            self.stats.buffer_drop()
        self._ensure_discovery(destination)

    # -------------------------------------------------------------- reception
    def handle_packet(self, packet: Packet, sender_id: int) -> None:
        """Dispatch on the AODV packet type."""
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
    def _ensure_discovery(self, destination: int) -> None:
        state = self._discoveries.get(destination)
        if state is not None:
            return
        self._start_discovery(destination, retries=0)

    def _start_discovery(self, destination: int, retries: int) -> None:
        self._rreq_id += 1
        self._sequence += 1
        self._discoveries[destination] = {"started": self.now, "retries": retries}
        self.stats.route_discovery_started()
        rreq = self.make_control(
            "RREQ",
            size_bytes=self.config.rreq_size_bytes,
            rreq_id=self._rreq_id,
            origin=self.node.node_id,
            origin_seq=self._sequence,
            target=destination,
            hop_count=0,
        )
        # Mark our own RREQ as seen so we do not rebroadcast it.
        self._rreq_cache.seen((self.node.node_id, self._rreq_id), self.now)
        self.broadcast(rreq)
        self.sim.schedule(
            self.config.discovery_timeout_s, self._discovery_timeout, destination, self._rreq_id
        )

    def _discovery_timeout(self, destination: int, rreq_id: int) -> None:
        state = self._discoveries.get(destination)
        if state is None:
            return
        if self.routes.get(destination, self.now) is not None:
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
        key = (origin, headers["rreq_id"])
        if origin == self.node.node_id:
            return
        if self._rreq_cache.seen(key, self.now):
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
            state = self._discoveries.pop(target, None)
            if state is not None:
                self.stats.route_discovery_completed(self.now - state["started"])
            for data_packet in self.pending.pop_all(target, self.now):
                self.route_data(data_packet)
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
