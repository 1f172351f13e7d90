"""Grid/gateway routing in the style of CarNet [20] and LORA-DCBF [26].

The plane is partitioned into square grid cells.  Within each cell one
vehicle -- the one closest to the cell centre -- acts as the *gateway*; only
gateways retransmit packets between cells ("all the members in the zone can
read and process the packet; they do not retransmit.  Only gateway nodes
retransmit packets between zones").  Forwarding is greedy over gateway
neighbours toward the destination's cell, which keeps duplicate transmissions
low at the cost of slightly longer paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.taxonomy import Category, register_protocol
from repro.protocols.base import ProtocolConfig
from repro.protocols.location import LocationService
from repro.protocols.neighbors import NeighborEntry
from repro.protocols.relay import RelayProtocol
from repro.roadnet.zones import GridPartition
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.packet import Packet


@dataclass
class GridGatewayConfig(ProtocolConfig):
    """Grid-gateway parameters.

    Attributes:
        cell_size_m: Side length of a grid cell (a few hundred metres, i.e.
            comparable to the radio range, so adjacent gateways can hear each
            other).
        allow_member_fallback: When no gateway neighbour makes progress,
            whether ordinary members may be used as a fallback next hop.
    """

    cell_size_m: float = 250.0
    allow_member_fallback: bool = True
    #: Neighbours estimated to be farther than this are skipped as next hops.
    max_neighbor_distance_m: float = 230.0


@register_protocol(
    "Grid-Gateway",
    Category.GEOGRAPHIC,
    "CarNet/LORA-DCBF-style grid routing: per-cell gateways forward packets between cells.",
    paper_reference="[20][26], Sec. VI.B",
)
class GridGatewayProtocol(RelayProtocol):
    """Grid-cell gateway forwarding.

    Data frames are unicast gateway to gateway, so being handed one means
    the previous hop chose this node as its gateway: the node relays it.
    The "members do not retransmit" rule is kept by senders addressing only
    gateways, not by dropping explicitly addressed frames.
    """

    def __init__(
        self,
        node: Node,
        network: Network,
        config: Optional[GridGatewayConfig] = None,
        location_service: Optional[LocationService] = None,
    ) -> None:
        super().__init__(
            node,
            network,
            config if config is not None else GridGatewayConfig(),
            location_service,
        )
        self.grid = GridPartition(self.config.cell_size_m)  # type: ignore[arg-type]
        self.beacons = self.beacon_service()

    # --------------------------------------------------------------- gateways
    def is_gateway(self) -> bool:
        """True when this node is the gateway of its current cell.

        The gateway is the node closest to the cell centre among this node
        and its known same-cell neighbours; ties break on the lower node id.
        """
        own_cell = self.grid.cell_of(self.node.position)
        centre = self.grid.cell_center(own_cell)
        own_distance = self.node.position.distance_to(centre)
        for entry in self.beacons.neighbors():
            if self.grid.cell_of(entry.position) != own_cell:
                continue
            their_distance = entry.position.distance_to(centre)
            if their_distance < own_distance - 1e-9:
                return False
            if abs(their_distance - own_distance) <= 1e-9 and entry.node_id < self.node.node_id:
                return False
        return True

    def gateway_neighbors(self) -> List[NeighborEntry]:
        """Neighbours that are gateways of their own cells (local estimate).

        A neighbour is assumed to be its cell's gateway when, among the
        neighbours this node knows about in that cell, it is the closest to
        the cell centre.  This is the same information a beacon-driven
        election would converge to.
        """
        neighbors = self.beacons.neighbors()
        best_per_cell: dict = {}
        for entry in neighbors:
            cell = self.grid.cell_of(entry.position)
            centre = self.grid.cell_center(cell)
            distance = entry.position.distance_to(centre)
            incumbent = best_per_cell.get(cell)
            if incumbent is None or distance < incumbent[0]:
                best_per_cell[cell] = (distance, entry)
        return [entry for _, entry in best_per_cell.values()]

    # -------------------------------------------------------------- internals
    def _forward(self, packet: Packet) -> None:
        cfg: GridGatewayConfig = self.config  # type: ignore[assignment]
        destination_position = self.location.position_of(packet.destination)
        if destination_position is None:
            self.stats.no_route_drop()
            return
        neighbors = self.beacons.neighbors()
        by_id = {entry.node_id: entry for entry in neighbors}
        if packet.destination in by_id:
            self.unicast(packet, packet.destination)
            return
        next_hop = self._closest_neighbor(
            self.gateway_neighbors(), destination_position, cfg.max_neighbor_distance_m
        )
        if next_hop is None and cfg.allow_member_fallback:
            next_hop = self._closest_neighbor(
                neighbors, destination_position, cfg.max_neighbor_distance_m
            )
        if next_hop is None:
            self.stats.no_route_drop()
            return
        self.unicast(packet, next_hop)
