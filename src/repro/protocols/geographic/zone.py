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
from repro.protocols.connectivity.flooding import FloodingConfig, FloodingProtocol
from repro.protocols.location import LocationService
from repro.roadnet.zones import CorridorZone
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.packet import Packet


@dataclass
class ZoneConfig(FloodingConfig):
    """Zone-routing parameters.

    Attributes:
        corridor_width_m: Half-width of the forwarding corridor around the
            source-destination line.
    """

    corridor_width_m: float = 300.0


@register_protocol(
    "Zone",
    Category.GEOGRAPHIC,
    "Zone-restricted flooding: only nodes inside the source-destination corridor rebroadcast.",
    paper_reference="[22], Sec. VI.B",
)
class ZoneProtocol(FloodingProtocol):
    """Corridor-restricted flooding."""

    uses_location_service = True
    seen_lifetime_s = 30.0
    delivers_broadcast = False

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

    def route_data(self, packet: Packet) -> None:
        """Stamp the corridor endpoints into the packet and flood it."""
        if packet.destination != self.node.node_id:
            destination_position = self.location.position_of(packet.destination)
            if destination_position is None:
                self.stats.no_route_drop()
                return
            packet.headers["zone_src_x"] = self.node.position.x
            packet.headers["zone_src_y"] = self.node.position.y
            packet.headers["zone_dst_x"] = destination_position.x
            packet.headers["zone_dst_y"] = destination_position.y
        super().route_data(packet)

    def _forward(self, packet: Packet) -> None:
        """Rebroadcast only from inside the packet's corridor (the origin is on it)."""
        zone = self._zone_of(packet)
        if zone is not None and not zone.contains(self.node.position):
            # Outside the zone: read and drop, exactly as the paper describes.
            return
        super()._forward(packet)

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
