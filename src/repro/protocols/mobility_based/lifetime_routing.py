"""Shared machinery for metric-accumulating on-demand discovery.

PBR, Taleb, Abedi (mobility category) and the Yan ticket-based protocol
(probability category) all follow the same skeleton, described in
Sec. IV.B of the paper for Taleb:

1. The source floods (or selectively forwards) a route request.  Every hop
   appends itself to the accumulated path and updates a path metric computed
   from the kinematics of the link it arrived over (the request carries the
   previous hop's position and velocity, so the receiver can evaluate the
   link without waiting for a beacon).
2. The destination collects the requests that arrive within a short window
   and answers the best one with a source-routed reply.
3. Data packets carry the selected source route.
4. The source re-initiates discovery shortly before the predicted route
   lifetime expires ("a new route discovery is always initiated prior [to
   the] duration of the routing path").

Subclasses customise the metric (hook :meth:`link_metric`), the forwarding
rule (hook :meth:`should_forward_request`) and the ranking at the
destination (hook :meth:`path_score`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.geometry import Vec2
from repro.protocols.base import ProtocolConfig, RoutingProtocol
from repro.protocols.discovery import DuplicateCache, PendingPacketBuffer
from repro.protocols.neighbors import BeaconService
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.packet import Packet


@dataclass
class PathDiscoveryConfig(ProtocolConfig):
    """Parameters of metric-accumulating discovery.

    Attributes:
        discovery_timeout_s: Time the source waits for a reply before retrying.
        max_discovery_retries: Retries before giving up.
        reply_collection_window_s: How long the destination collects requests
            before answering the best one.
        route_lifetime_cap_s: Upper bound on how long a route is trusted even
            when the predicted lifetime is longer.
        preemptive_rebuild_fraction: Fraction of the predicted route lifetime
            after which the source rebuilds the route (PBR's preemptive
            rediscovery); 0 disables preemptive rebuilds.
        request_size_bytes / reply_size_bytes: Control-packet sizes.
    """

    discovery_timeout_s: float = 1.2
    max_discovery_retries: int = 2
    reply_collection_window_s: float = 0.08
    route_lifetime_cap_s: float = 30.0
    preemptive_rebuild_fraction: float = 0.8
    request_size_bytes: int = 64
    reply_size_bytes: int = 72
    #: Random delay before re-broadcasting a request (flood desynchronisation).
    request_forward_jitter_s: float = 0.02


@dataclass
class DiscoveredRoute:
    """A source route selected by a discovery cycle."""

    path: List[int]
    metric: float
    established_at: float
    expires_at: float


class PathMetricDiscoveryProtocol(RoutingProtocol):
    """Base class: flooded discovery that accumulates a per-path mobility metric."""

    def __init__(
        self,
        node: Node,
        network: Network,
        config: Optional[PathDiscoveryConfig] = None,
    ) -> None:
        super().__init__(node, network, config if config is not None else PathDiscoveryConfig())
        self.routes: Dict[int, DiscoveredRoute] = {}
        self.pending = PendingPacketBuffer()
        self._request_cache = DuplicateCache(lifetime_s=10.0)
        self._request_id = 0
        self._discoveries: Dict[int, Dict[str, float]] = {}
        #: (origin, request_id) -> list of (score, headers) candidates at the destination.
        self._reply_candidates: Dict[Tuple[int, int], List[Tuple[float, dict]]] = {}
        self.beacons = BeaconService(
            self,
            interval_s=self.config.hello_interval_s,
            timeout_s=self.config.neighbor_timeout_s,
        )

    # ------------------------------------------------------------------ hooks
    def initial_metric(self) -> float:
        """Metric value of an empty path (identity of the accumulation)."""
        return math.inf

    def accumulate_metric(self, so_far: float, link_value: float) -> float:
        """Combine the path metric with one more link (default: minimum)."""
        return min(so_far, link_value)

    def link_metric(
        self,
        previous_position: Vec2,
        previous_velocity: Vec2,
        own_position: Vec2,
        own_velocity: Vec2,
        headers: dict,
    ) -> float:
        """Metric of the link the request just crossed (subclass hook)."""
        raise NotImplementedError

    def should_forward_request(self, headers: dict, sender_id: int) -> bool:
        """Whether this node participates in forwarding the request."""
        return True

    def path_score(self, metric: float, path: List[int]) -> float:
        """Score used by the destination to rank candidate paths (higher wins)."""
        return metric

    # ------------------------------------------------------------------ setup
    def start(self) -> None:
        """Start neighbour beaconing."""
        super().start()
        self.beacons.start()

    def stop(self) -> None:
        """Stop beaconing."""
        super().stop()
        self.beacons.stop()

    # ------------------------------------------------------------------- data
    def route_data(self, packet: Packet) -> None:
        """Send on the discovered source route, or discover one first."""
        destination = packet.destination
        if destination == self.node.node_id:
            self.deliver_locally(packet)
            return
        route = self.routes.get(destination)
        if route is not None and route.expires_at > self.now:
            packet.headers["src_route"] = list(route.path)
            packet.headers["route_index"] = 0
            self._forward_on_route(packet)
            return
        if route is not None:
            self.stats.route_lifetime(self.now - route.established_at)
            del self.routes[destination]
        if not self.pending.add(packet, self.now):
            self.stats.buffer_drop()
        self._ensure_discovery(destination)

    # -------------------------------------------------------------- reception
    def handle_packet(self, packet: Packet, sender_id: int) -> None:
        """Dispatch on packet type."""
        ptype = packet.ptype
        if ptype == "MREQ":
            self._handle_request(packet, sender_id)
        elif ptype == "MREP":
            self._handle_reply(packet, sender_id)
        elif packet.is_data:
            self._handle_data(packet, sender_id)

    # -------------------------------------------------------------- discovery
    def _ensure_discovery(self, destination: int) -> None:
        if destination in self._discoveries:
            return
        self._start_discovery(destination, retries=0)

    def _start_discovery(self, destination: int, retries: int) -> None:
        self._request_id += 1
        self._discoveries[destination] = {"started": self.now, "retries": retries}
        self.stats.route_discovery_started()
        request = self.make_control(
            "MREQ",
            size_bytes=self.config.request_size_bytes,
            request_id=self._request_id,
            origin=self.node.node_id,
            target=destination,
            path=[self.node.node_id],
            metric=self.initial_metric(),
            prev_x=self.node.position.x,
            prev_y=self.node.position.y,
            prev_vx=self.node.velocity.x,
            prev_vy=self.node.velocity.y,
            origin_group=self._own_group_tag(),
        )
        self._request_cache.seen((self.node.node_id, self._request_id), self.now)
        self.broadcast(request)
        self.sim.schedule(self.config.discovery_timeout_s, self._discovery_timeout, destination)

    def _own_group_tag(self) -> str:
        """Tag describing this node's mobility group (used by Taleb)."""
        return ""

    def _discovery_timeout(self, destination: int) -> None:
        state = self._discoveries.get(destination)
        if state is None:
            return
        route = self.routes.get(destination)
        if route is not None and route.expires_at > self.now:
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

    def _handle_request(self, packet: Packet, sender_id: int) -> None:
        headers = packet.headers
        origin = headers["origin"]
        if origin == self.node.node_id:
            return
        path: List[int] = list(headers["path"])
        if self.node.node_id in path:
            return
        previous_position = Vec2(headers["prev_x"], headers["prev_y"])
        previous_velocity = Vec2(headers["prev_vx"], headers["prev_vy"])
        link_value = self.link_metric(
            previous_position,
            previous_velocity,
            self.node.position,
            self.node.velocity,
            headers,
        )
        metric = self.accumulate_metric(headers["metric"], link_value)
        path.append(self.node.node_id)
        target = headers["target"]
        if target == self.node.node_id:
            self._collect_reply_candidate(origin, headers["request_id"], path, metric)
            return
        if self._request_cache.seen((origin, headers["request_id"]), self.now):
            return
        if not self.should_forward_request(headers, sender_id):
            return
        if packet.ttl <= 1:
            self.stats.ttl_drop()
            return
        forwarded = packet.forwarded()
        forwarded.headers.update(
            path=path,
            metric=metric,
            prev_x=self.node.position.x,
            prev_y=self.node.position.y,
            prev_vx=self.node.velocity.x,
            prev_vy=self.node.velocity.y,
        )
        jitter = self.rng.uniform(0.0, self.config.request_forward_jitter_s)
        self.sim.schedule(jitter, self.broadcast, forwarded)

    def _collect_reply_candidate(
        self, origin: int, request_id: int, path: List[int], metric: float
    ) -> None:
        key = (origin, request_id)
        score = self.path_score(metric, path)
        candidates = self._reply_candidates.get(key)
        if candidates is None:
            self._reply_candidates[key] = [(score, {"path": path, "metric": metric})]
            self.sim.schedule(
                self.config.reply_collection_window_s, self._send_best_reply, key
            )
        else:
            candidates.append((score, {"path": path, "metric": metric}))

    def _send_best_reply(self, key: Tuple[int, int]) -> None:
        candidates = self._reply_candidates.pop(key, [])
        if not candidates:
            return
        candidates.sort(key=lambda item: item[0], reverse=True)
        best = candidates[0][1]
        path: List[int] = best["path"]
        origin = key[0]
        reply = self.make_control(
            "MREP",
            destination=origin,
            size_bytes=self.config.reply_size_bytes + 4 * len(path),
            origin=origin,
            target=self.node.node_id,
            path=path,
            metric=best["metric"],
            route_index=len(path) - 2,
        )
        if len(path) >= 2:
            self.unicast(reply, path[-2])
        elif path and path[0] == origin:
            # Single-hop path: origin is our direct neighbour.
            self.unicast(reply, origin)

    def _handle_reply(self, packet: Packet, sender_id: int) -> None:
        headers = packet.headers
        origin = headers["origin"]
        path: List[int] = list(headers["path"])
        if origin == self.node.node_id:
            self._install_route(headers["target"], path, headers["metric"])
            return
        index = headers["route_index"]
        if index <= 0 or index >= len(path) or path[index] != self.node.node_id:
            return
        forwarded = packet.forwarded()
        forwarded.headers["route_index"] = index - 1
        self.unicast(forwarded, path[index - 1])

    def _install_route(self, destination: int, path: List[int], metric: float) -> None:
        lifetime = self._route_lifetime_from_metric(metric)
        route = DiscoveredRoute(
            path=path,
            metric=metric,
            established_at=self.now,
            expires_at=self.now + lifetime,
        )
        self.routes[destination] = route
        state = self._discoveries.pop(destination, None)
        if state is not None:
            self.stats.route_discovery_completed(self.now - state["started"])
        for data_packet in self.pending.pop_all(destination, self.now):
            self.route_data(data_packet)
        if self.config.preemptive_rebuild_fraction > 0 and math.isfinite(lifetime):
            self.sim.schedule(
                lifetime * self.config.preemptive_rebuild_fraction,
                self._preemptive_rebuild,
                destination,
                route.established_at,
            )

    def _route_lifetime_from_metric(self, metric: float) -> float:
        """Translate the path metric into a trusted route lifetime (seconds)."""
        if not math.isfinite(metric):
            return self.config.route_lifetime_cap_s
        return max(0.5, min(self.config.route_lifetime_cap_s, metric))

    def _preemptive_rebuild(self, destination: int, established_at: float) -> None:
        route = self.routes.get(destination)
        if route is None or route.established_at != established_at:
            return
        self.stats.route_repair()
        self._ensure_discovery(destination)

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
        if not self.beacons.table.contains(next_hop, self.now):
            self.stats.link_break()
            self.stats.no_route_drop()
            destination = packet.destination
            stale = self.routes.get(destination)
            if stale is not None:
                self.stats.route_lifetime(self.now - stale.established_at)
                del self.routes[destination]
            return
        packet.headers["route_index"] = index + 1
        self.unicast(packet, next_hop)
