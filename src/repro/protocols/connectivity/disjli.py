"""DisjLi: on-demand node-disjoint multipath routing (Li & Cuthbert, paper ref. [12]).

The survey lists DisjLi under the flooding-based protocols (with a mobility
flavour): a single flooded discovery collects *several node-disjoint paths*,
and the source fails over between them when the active path breaks, instead
of paying for a fresh discovery.  Multipath redundancy is a classic answer to
VANET link fragility, so this implementation rounds out the connectivity
category with it.

Mechanics: the RREQ accumulates the traversed path (like DSR); the
destination collects the copies that arrive within a short window, greedily
selects up to ``max_paths`` node-disjoint ones (shortest first), and returns
one RREP per selected path.  The source stores all of them and moves to the
next path whenever the current one loses its next hop.  Intermediate nodes
cannot fail over (only the source holds the alternate paths): a hop whose
next node is gone drops the packet, and the source's next packet switches
paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.taxonomy import Category, register_protocol
from repro.protocols.base import ProtocolConfig
from repro.protocols.discovery import SourceRoutingProtocol
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.packet import Packet


@dataclass
class DisjLiConfig(ProtocolConfig):
    """Node-disjoint multipath parameters.

    Attributes:
        max_paths: Maximum number of node-disjoint paths kept per destination.
        route_lifetime_s: Validity of a discovered path set.
        discovery_timeout_s: Time to wait for replies before retrying.
        max_discovery_retries: Discovery retries before giving up.
        reply_collection_window_s: How long the destination collects RREQs
            before selecting the disjoint path set.
    """

    max_paths: int = 3
    route_lifetime_s: float = 15.0
    discovery_timeout_s: float = 1.2
    max_discovery_retries: int = 2
    reply_collection_window_s: float = 0.08
    rreq_size_bytes: int = 52
    rrep_size_bytes: int = 64
    rreq_forward_jitter_s: float = 0.02


@register_protocol(
    "DisjLi",
    Category.CONNECTIVITY,
    "On-demand node-disjoint multipath routing: one flooded discovery yields several "
    "disjoint paths and the source fails over between them.",
    paper_reference="[12], Sec. III.B",
)
class DisjLiProtocol(SourceRoutingProtocol):
    """Node-disjoint multipath source routing."""

    def __init__(
        self,
        node: Node,
        network: Network,
        config: Optional[DisjLiConfig] = None,
    ) -> None:
        super().__init__(node, network, config if config is not None else DisjLiConfig())
        #: destination -> (list of node-disjoint paths, expiry, active index).
        self._path_sets: Dict[int, Dict[str, object]] = {}
        #: Destination-side: (origin, rreq_id) -> collected candidate paths.
        self._candidates: Dict[Tuple[int, int], List[List[int]]] = {}
        self.beacons = self.beacon_service()
        self.failovers = 0

    # -------------------------------------------------------------- reception
    def handle_packet(self, packet: Packet, sender_id: int) -> None:
        """Dispatch on packet type."""
        ptype = packet.ptype
        if ptype == "RREP":
            self._handle_rrep(packet, sender_id)
        elif packet.is_data:
            self._handle_data(packet, sender_id)

    # --------------------------------------------------------------- multipath
    def _route_to(self, destination: int) -> Optional[List[int]]:
        """The currently usable path toward ``destination`` (with failover)."""
        entry = self._path_sets.get(destination)
        if entry is None or entry["expiry"] < self.now:  # type: ignore[operator]
            return None
        paths: List[List[int]] = entry["paths"]  # type: ignore[assignment]
        index = int(entry["active"])  # type: ignore[arg-type]
        while index < len(paths):
            path = paths[index]
            next_hop = path[1] if len(path) > 1 else None
            if next_hop is None or self.beacons.table.contains(next_hop, self.now):
                if index != entry["active"]:
                    entry["active"] = index
                return path
            # The first hop of this path is gone: fail over to the next path.
            self.failovers += 1
            self.stats.route_repair()
            index += 1
        return None

    @staticmethod
    def select_disjoint_paths(candidates: List[List[int]], max_paths: int) -> List[List[int]]:
        """Greedily pick up to ``max_paths`` node-disjoint paths (shortest first).

        Two paths are node-disjoint when they share no intermediate node;
        they necessarily share the two endpoints.
        """
        chosen: List[List[int]] = []
        used_intermediates: set = set()
        for path in sorted(candidates, key=len):
            intermediates = set(path[1:-1])
            if intermediates & used_intermediates:
                continue
            chosen.append(path)
            used_intermediates |= intermediates
            if len(chosen) >= max_paths:
                break
        return chosen

    # -------------------------------------------------------------- discovery
    def _send_request(self, destination: int) -> None:
        cfg: DisjLiConfig = self.config  # type: ignore[assignment]
        rreq = self.make_control(
            "RREQ",
            size_bytes=cfg.rreq_size_bytes,
            rreq_id=self._request_id,
            origin=self.node.node_id,
            target=destination,
            route=[self.node.node_id],
        )
        self.broadcast(rreq)

    def _handle_request(self, packet: Packet, sender_id: int) -> None:
        cfg: DisjLiConfig = self.config  # type: ignore[assignment]
        headers = packet.headers
        origin = headers["origin"]
        if origin == self.node.node_id:
            return
        route: List[int] = list(headers["route"])
        if self.node.node_id in route:
            return
        route.append(self.node.node_id)
        target = headers["target"]
        if target == self.node.node_id:
            # Collect every arriving copy: disjointness needs alternatives, so
            # the duplicate cache is *not* consulted at the destination.
            key = (origin, headers["rreq_id"])
            candidates = self._candidates.get(key)
            if candidates is None:
                self._candidates[key] = [route]
                self.sim.schedule(cfg.reply_collection_window_s, self._send_replies, key)
            else:
                candidates.append(route)
            return
        if self._request_cache.seen((origin, headers["rreq_id"]), self.now):
            return
        if packet.ttl <= 1:
            self.stats.ttl_drop()
            return
        forwarded = packet.forwarded()
        forwarded.headers["route"] = route
        jitter = self.rng.uniform(0.0, cfg.rreq_forward_jitter_s)
        self.sim.schedule(jitter, self.broadcast, forwarded)

    def _send_replies(self, key: Tuple[int, int]) -> None:
        cfg: DisjLiConfig = self.config  # type: ignore[assignment]
        candidates = self._candidates.pop(key, [])
        if not candidates:
            return
        disjoint = self.select_disjoint_paths(candidates, cfg.max_paths)
        origin = key[0]
        for path in disjoint:
            rrep = self.make_control(
                "RREP",
                destination=origin,
                size_bytes=cfg.rrep_size_bytes + 4 * len(path),
                origin=origin,
                target=self.node.node_id,
                route=path,
                route_index=len(path) - 2,
            )
            if len(path) >= 2:
                self.unicast(rrep, path[-2])

    def _handle_rrep(self, packet: Packet, sender_id: int) -> None:
        cfg: DisjLiConfig = self.config  # type: ignore[assignment]
        headers = packet.headers
        origin = headers["origin"]
        route: List[int] = list(headers["route"])
        target = headers["target"]
        if origin == self.node.node_id:
            entry = self._path_sets.setdefault(
                target, {"paths": [], "expiry": 0.0, "active": 0}
            )
            paths: List[List[int]] = entry["paths"]  # type: ignore[assignment]
            if route not in paths:
                paths.append(route)
                paths.sort(key=len)
            entry["expiry"] = self.now + cfg.route_lifetime_s
            entry["active"] = 0
            self._complete_discovery(target)
            return
        self._relay_reply(packet, route)
