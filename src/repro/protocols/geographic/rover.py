"""ROVER: RObust VEhicular Routing (Kihl et al., paper ref. [25]).

ROVER is the survey's example of a *reactive geographic* protocol: "zones are
defined on the basis of positions ... The protocol broadcasts control
packets, similar to AODV, among zones to find a routing path.  Once the
routing path is found, data packets are unicasted along the single path."
In other words: AODV-style discovery, but the RREQ flood is confined to the
geographic zone that is actually relevant (here, the corridor between the
source and the destination), and data follows the discovered route unicast.

The implementation therefore reuses the AODV machinery and adds the zone
filter to RREQ forwarding; the zone is stamped into the request by the
origin using the location service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.taxonomy import Category, register_protocol
from repro.geometry import Vec2
from repro.protocols.connectivity.aodv import AodvConfig, AodvProtocol
from repro.protocols.location import LocationService
from repro.roadnet.zones import CorridorZone
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.packet import Packet


@dataclass
class RoverConfig(AodvConfig):
    """ROVER parameters.

    Attributes:
        zone_width_m: Half-width of the discovery corridor around the
            source-destination line (the "zone of relevance").
    """

    zone_width_m: float = 400.0


@register_protocol(
    "ROVER",
    Category.GEOGRAPHIC,
    "Reactive zone routing: AODV-style discovery confined to the source-destination "
    "zone, unicast data on the discovered path.",
    paper_reference="[25], Sec. VI.B",
)
class RoverProtocol(AodvProtocol):
    """Zone-confined reactive routing."""

    uses_location_service = True

    def __init__(
        self,
        node: Node,
        network: Network,
        config: Optional[RoverConfig] = None,
        location_service: Optional[LocationService] = None,
    ) -> None:
        super().__init__(node, network, config if config is not None else RoverConfig())
        self.location = (
            location_service if location_service is not None else LocationService(network)
        )

    # ------------------------------------------------------------- discovery
    def _send_request(self, destination: int, **zone: float) -> None:
        """As AODV, but stamp the discovery zone into the request."""
        destination_position = self.location.position_of(destination)
        if destination_position is not None:
            zone.update(
                zone_src_x=self.node.position.x,
                zone_src_y=self.node.position.y,
                zone_dst_x=destination_position.x,
                zone_dst_y=destination_position.y,
            )
        super()._send_request(destination, **zone)

    def _discovery_zone(self, packet: Packet) -> Optional[CorridorZone]:
        headers = packet.headers
        if "zone_src_x" not in headers:
            return None
        cfg: RoverConfig = self.config  # type: ignore[assignment]
        return CorridorZone(
            start=Vec2(headers["zone_src_x"], headers["zone_src_y"]),
            end=Vec2(headers["zone_dst_x"], headers["zone_dst_y"]),
            width=cfg.zone_width_m,
        )

    def _handle_request(self, packet: Packet, sender_id: int) -> None:
        """Drop requests overheard outside the discovery zone, else behave as AODV."""
        zone = self._discovery_zone(packet)
        if (
            zone is not None
            and packet.headers.get("target") != self.node.node_id
            and not zone.contains(self.node.position)
        ):
            return
        super()._handle_request(packet, sender_id)
