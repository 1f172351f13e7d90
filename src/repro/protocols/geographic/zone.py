"""Zone (corridor) routing in the style of Bronsted & Kristensen (paper ref. [22]).

A zone is a geographic area -- in the paper's example, a 500-metre section of
road.  Packets are flooded, but only nodes *inside the zone* rebroadcast;
everybody else drops the packet.  For unicast traffic the natural zone is a
corridor around the source-destination line, which bounds the flood to the
nodes that could plausibly be useful relays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.taxonomy import Category, register_protocol
from repro.geometry import Vec2
from repro.protocols.base import ProtocolConfig, RoutingProtocol
from repro.protocols.discovery import DuplicateCache
from repro.protocols.location import LocationService
from repro.roadnet.zones import CorridorZone
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.packet import Packet


@dataclass
class ZoneConfig(ProtocolConfig):
    """Zone-routing parameters.

    Attributes:
        corridor_width_m: Half-width of the forwarding corridor around the
            source-destination line.
        rebroadcast_jitter_s: Random delay before a rebroadcast.
    """

    corridor_width_m: float = 300.0
    rebroadcast_jitter_s: float = 0.01


@register_protocol(
    "Zone",
    Category.GEOGRAPHIC,
    "Zone-restricted flooding: only nodes inside the source-destination corridor rebroadcast.",
    paper_reference="[22], Sec. VI.B",
)
class ZoneProtocol(RoutingProtocol):
    """Corridor-restricted flooding."""

    uses_location_service = True

    def __init__(
        self,
        node: Node,
        network: Network,
        config: Optional[ZoneConfig] = None,
        location_service: Optional[LocationService] = None,
    ) -> None:
        super().__init__(node, network, config if config is not None else ZoneConfig())
        self.location = (
            location_service if location_service is not None else LocationService(network)
        )
        self._seen = DuplicateCache(lifetime_s=30.0)

    # ------------------------------------------------------------------- data
    def route_data(self, packet: Packet) -> None:
        """Stamp the corridor endpoints into the packet and flood it."""
        if packet.destination == self.node.node_id:
            self.deliver_locally(packet)
            return
        destination_position = self.location.position_of(packet.destination)
        if destination_position is None:
            self.stats.no_route_drop()
            return
        packet.headers["zone_src_x"] = self.node.position.x
        packet.headers["zone_src_y"] = self.node.position.y
        packet.headers["zone_dst_x"] = destination_position.x
        packet.headers["zone_dst_y"] = destination_position.y
        self._seen.seen(packet.flow_key, self.now)
        self.broadcast(packet)

    # -------------------------------------------------------------- reception
    def handle_packet(self, packet: Packet, sender_id: int) -> None:
        """Rebroadcast new packets only when inside the packet's corridor."""
        if not packet.is_data:
            return
        if self._seen.seen(packet.flow_key, self.now):
            return
        if packet.destination == self.node.node_id:
            self.deliver_locally(packet)
            return
        if packet.ttl <= 1:
            self.stats.ttl_drop()
            return
        zone = self._zone_of(packet)
        if zone is not None and not zone.contains(self.node.position):
            # Outside the zone: read and drop, exactly as the paper describes.
            return
        forwarded = packet.forwarded()
        cfg: ZoneConfig = self.config  # type: ignore[assignment]
        jitter = self.rng.uniform(0.0, cfg.rebroadcast_jitter_s)
        self.sim.schedule(jitter, self.broadcast, forwarded)

    # -------------------------------------------------------------- internals
    def _zone_of(self, packet: Packet) -> Optional[CorridorZone]:
        headers = packet.headers
        if "zone_src_x" not in headers or "zone_dst_x" not in headers:
            return None
        cfg: ZoneConfig = self.config  # type: ignore[assignment]
        return CorridorZone(
            start=Vec2(headers["zone_src_x"], headers["zone_src_y"]),
            end=Vec2(headers["zone_dst_x"], headers["zone_dst_y"]),
            width=cfg.corridor_width_m,
        )
