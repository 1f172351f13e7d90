"""Yan ticket-based probing with stability constraint (TBP-SS, paper ref. [27]).

Yan et al. replace brute-force flooded discovery with *selective probing*: the
source issues a small number of tickets; each probe travels hop by hop, and
every node forwards it only to its few most *stable* neighbours (ranked by
expected link duration computed from the probabilistic link model),
splitting its tickets among them.  The destination answers the probe whose
path has the best bottleneck stability, and data follows that source route.
Because only a handful of probes exist per discovery, the control overhead is
O(tickets x path length) instead of O(network size).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.stability import LinkStabilityModel
from repro.core.taxonomy import Category, register_protocol
from repro.geometry import Vec2
from repro.protocols.mobility_based.lifetime_routing import (
    PathDiscoveryConfig,
    PathMetricDiscoveryProtocol,
)
from repro.protocols.neighbors import NeighborEntry
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.packet import Packet


@dataclass
class YanTbpConfig(PathDiscoveryConfig):
    """Ticket-based probing parameters.

    Attributes:
        tickets: Number of probes the source issues per discovery.
        max_fanout: Maximum neighbours one node forwards a probe to.
        communication_range_m: Range parameter of the stability model.
        relative_speed_std_mps: Calibrated relative-speed spread of the
            stability model (the "certain traffic" the model is tuned for).
    """

    tickets: int = 3
    max_fanout: int = 2
    communication_range_m: float = 250.0
    relative_speed_std_mps: float = 2.0
    #: Hop budget of a probe.  Probes that miss the destination must die out
    #: quickly -- an unbounded probe would wander the platoon and erase the
    #: cost advantage over flooded discovery.
    probe_ttl: int = 12


@register_protocol(
    "Yan-TBP",
    Category.PROBABILITY,
    "Ticket-based probing: a few probes follow the most stable links (expected link "
    "duration from a probability model) instead of flooding.",
    paper_reference="[27], Sec. VII.B",
)
class YanTbpProtocol(PathMetricDiscoveryProtocol):
    """Ticket-based probing with stability-constrained path selection."""

    def __init__(
        self,
        node: Node,
        network: Network,
        config: Optional[YanTbpConfig] = None,
    ) -> None:
        super().__init__(node, network, config if config is not None else YanTbpConfig())
        cfg: YanTbpConfig = self.config  # type: ignore[assignment]
        self.stability = LinkStabilityModel(
            communication_range=cfg.communication_range_m,
            relative_speed_std=cfg.relative_speed_std_mps,
        )

    # ------------------------------------------------------- metric and score
    def link_metric(
        self,
        previous_position: Vec2,
        previous_velocity: Vec2,
        own_position: Vec2,
        own_velocity: Vec2,
        headers: dict,
    ) -> float:
        """Expected duration (stability) of the link the probe just crossed."""
        return self.stability.expected_duration(
            previous_position, previous_velocity, own_position, own_velocity
        )

    def path_score(self, metric: float, path: List[int]) -> float:
        """Best bottleneck stability wins; shorter paths break ties."""
        return metric - 1e-3 * len(path)

    # ----------------------------------------------------- selective probing
    def _send_request(self, destination: int) -> None:
        """Issue up to ``tickets`` probes to the most stable neighbours."""
        cfg: YanTbpConfig = self.config  # type: ignore[assignment]
        candidates = self._stable_neighbors(
            exclude=[self.node.node_id], toward=self._target_position(destination)
        )
        if not candidates:
            # No neighbours known yet: fall back to one broadcast probe so the
            # discovery can still succeed right after start-up.
            self.broadcast(self._make_probe(destination, cfg.tickets))
            return
        chosen = candidates[: cfg.tickets]
        share = max(1, cfg.tickets // max(1, len(chosen)))
        for entry in chosen:
            self.unicast(self._make_probe(destination, share), entry.node_id)

    def _make_probe(self, destination: int, tickets: int) -> Packet:
        cfg: YanTbpConfig = self.config  # type: ignore[assignment]
        probe = self._make_request(destination, tickets=tickets)
        probe.ttl = cfg.probe_ttl
        return probe

    def _relay_request(self, packet: Packet, sender_id: int) -> None:
        """Forward the probe to the most stable next neighbours (ticket split)."""
        path, metric = self._extend_path(packet.headers)
        if packet.ttl <= 1:
            self.stats.ttl_drop()
            return
        cfg: YanTbpConfig = self.config  # type: ignore[assignment]
        target = packet.headers["target"]
        tickets = int(packet.headers.get("tickets", 1))
        # If the probed destination is already a fresh neighbour, hand the
        # probe straight to it instead of splitting further tickets.
        if self.beacons.table.contains(target, self.now):
            self.unicast(self._extended(packet, list(path), metric, tickets=1), target)
            return
        candidates = self._stable_neighbors(
            exclude=path + [sender_id],
            toward=self._target_position(target),
            require_progress=True,
        )
        if not candidates:
            # No neighbour makes progress toward the destination: the ticket
            # dies here rather than wandering the platoon (selective probing,
            # not a random walk).
            return
        fanout = min(cfg.max_fanout, max(1, tickets), len(candidates))
        share = max(1, tickets // fanout)
        for entry in candidates[:fanout]:
            self.unicast(
                self._extended(packet, list(path), metric, tickets=share), entry.node_id
            )

    def _target_position(self, target: int) -> Optional[Vec2]:
        """Best-known position of the probed destination (None when unknown).

        The original protocol learns destination coordinates from the request
        initiator (GPS-equipped vehicles); the reproduction reads them from
        the shared location oracle the geographic protocols also use.
        """
        if not self.network.has_node(target):
            return None
        return self.network.node(target).position

    def _stable_neighbors(
        self,
        exclude: List[int],
        toward: Optional[Vec2] = None,
        require_progress: bool = False,
    ) -> List[NeighborEntry]:
        """Neighbours sorted by decreasing expected link duration.

        When ``toward`` is given, neighbours that make geographic progress
        toward it are preferred (tickets head toward the destination and the
        stability constraint ranks among them).  With ``require_progress``
        (used when forwarding tickets) non-progressing neighbours are never
        used; without it (the origin's first hop) they are a fallback.
        """
        excluded = set(exclude)
        progressing = []
        others = []
        own_distance = (
            self.node.position.distance_to(toward) if toward is not None else 0.0
        )
        for entry in self.beacons.neighbors():
            if entry.node_id in excluded:
                continue
            stability = self.stability.expected_duration(
                self.node.position, self.node.velocity, entry.position, entry.velocity
            )
            if toward is not None:
                progress = own_distance - entry.predicted_position(self.now).distance_to(toward)
                if progress > 0:
                    # Rank by stability weighted by progress so probes prefer
                    # stable links that also shorten the remaining path
                    # (stability alone produces meandering many-hop probes).
                    progressing.append((stability * progress, entry))
                else:
                    others.append((stability, entry))
            else:
                progressing.append((stability, entry))
        progressing.sort(key=lambda item: item[0], reverse=True)
        others.sort(key=lambda item: item[0], reverse=True)
        if require_progress:
            ordered = progressing
        else:
            ordered = progressing if progressing else others
        return [entry for _, entry in ordered]
