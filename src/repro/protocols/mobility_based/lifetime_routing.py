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
rule (hook :meth:`should_forward_request`, or :meth:`_relay_request` for a
different relay altogether, as Yan-TBP's ticket probes) and the ranking at
the destination (hook :meth:`path_score`).  The discovery lifecycle and the
source-route forwarding come from :mod:`repro.protocols.discovery`; a hop
that finds its next node gone retires the route and records its lifetime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.geometry import Vec2
from repro.protocols.base import ProtocolConfig
from repro.protocols.discovery import SourceRoutingProtocol
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


class PathMetricDiscoveryProtocol(SourceRoutingProtocol):
    """Base class: flooded discovery that accumulates a per-path mobility metric."""

    request_ptype = "MREQ"

    def __init__(
        self,
        node: Node,
        network: Network,
        config: Optional[PathDiscoveryConfig] = None,
    ) -> None:
        super().__init__(node, network, config if config is not None else PathDiscoveryConfig())
        self.routes: Dict[int, DiscoveredRoute] = {}
        #: (origin, request_id) -> list of (score, headers) candidates at the destination.
        self._reply_candidates: Dict[Tuple[int, int], List[Tuple[float, dict]]] = {}
        self.beacons = self.beacon_service()

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

    # ------------------------------------------------------------------ routes
    def _route_to(self, destination: int) -> Optional[List[int]]:
        """The discovered path toward ``destination``; an expired one is retired."""
        route = self.routes.get(destination)
        if route is None:
            return None
        if route.expires_at > self.now:
            return route.path
        self._retire_route(destination)
        return None

    def _has_route(self, destination: int) -> bool:
        route = self.routes.get(destination)
        return route is not None and route.expires_at > self.now

    def _retire_route(self, destination: int) -> None:
        """Forget the route toward ``destination``, recording how long it lived."""
        route = self.routes.pop(destination, None)
        if route is not None:
            self.stats.route_lifetime(self.now - route.established_at)

    def _route_broken(self, packet: Packet, next_hop: int) -> None:
        self._retire_route(packet.destination)

    # -------------------------------------------------------------- reception
    def handle_packet(self, packet: Packet, sender_id: int) -> None:
        """Dispatch on packet type."""
        ptype = packet.ptype
        if ptype == "MREP":
            self._handle_reply(packet, sender_id)
        elif packet.is_data:
            self._handle_data(packet, sender_id)

    # -------------------------------------------------------------- discovery
    def _send_request(self, destination: int) -> None:
        self.broadcast(self._make_request(destination))

    def _make_request(self, destination: int, **extra) -> Packet:
        """A request for ``destination`` carrying this node's kinematics."""
        return self.make_control(
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
            **extra,
        )

    def _own_group_tag(self) -> str:
        """Tag describing this node's mobility group (used by Taleb)."""
        return ""

    def _handle_request(self, packet: Packet, sender_id: int) -> None:
        headers = packet.headers
        node_id = self.node.node_id
        if headers["origin"] == node_id or node_id in headers["path"]:
            return
        if headers["target"] == node_id:
            path, metric = self._extend_path(headers)
            self._collect_reply_candidate(headers["origin"], headers["request_id"], path, metric)
            return
        self._relay_request(packet, sender_id)

    def _extend_path(self, headers: dict) -> Tuple[List[int], float]:
        """The request's path with this node appended, and the metric across it.

        The metric adds the link the request just crossed, evaluated from
        the previous hop's kinematics in ``headers`` and this node's own.
        """
        link_value = self.link_metric(
            Vec2(headers["prev_x"], headers["prev_y"]),
            Vec2(headers["prev_vx"], headers["prev_vy"]),
            self.node.position,
            self.node.velocity,
            headers,
        )
        path: List[int] = list(headers["path"])
        path.append(self.node.node_id)
        return path, self.accumulate_metric(headers["metric"], link_value)

    def _relay_request(self, packet: Packet, sender_id: int) -> None:
        """Rebroadcast a request this node is not the target of.

        Whether to relay (the duplicate cache, :meth:`should_forward_request`,
        then the TTL) is settled before the link metric is computed, so a
        duplicate costs no metric.
        """
        headers = packet.headers
        if self._request_cache.seen((headers["origin"], headers["request_id"]), self.now):
            return
        if not self.should_forward_request(headers, sender_id):
            return
        if packet.ttl <= 1:
            self.stats.ttl_drop()
            return
        forwarded = self._extended(packet, *self._extend_path(headers))
        jitter = self.rng.uniform(0.0, self.config.request_forward_jitter_s)
        self.sim.schedule(jitter, self.broadcast, forwarded)

    def _extended(self, packet: Packet, path: List[int], metric: float, **extra) -> Packet:
        """The next hop's copy of a request: ``path``, ``metric``, our kinematics."""
        forwarded = packet.forwarded()
        forwarded.headers.update(
            path=path,
            metric=metric,
            prev_x=self.node.position.x,
            prev_y=self.node.position.y,
            prev_vx=self.node.velocity.x,
            prev_vy=self.node.velocity.y,
            **extra,
        )
        return forwarded

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
        self._relay_reply(packet, path)

    def _install_route(self, destination: int, path: List[int], metric: float) -> None:
        lifetime = self._route_lifetime_from_metric(metric)
        route = DiscoveredRoute(
            path=path,
            metric=metric,
            established_at=self.now,
            expires_at=self.now + lifetime,
        )
        self.routes[destination] = route
        self._complete_discovery(destination)
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
        self._discover(destination)
