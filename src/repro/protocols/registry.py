"""Per-node protocol factories, resolved by taxonomy name.

The harness and benchmarks refer to protocols by their taxonomy name
("AODV", "PBR", "Yan-TBP", ...), registered in
:data:`repro.core.taxonomy.PROTOCOLS` when :mod:`repro.protocols` (the
parent package of this module, so always imported first) loads its
category subpackages.  This module turns a name plus optional shared
services (location service, road graph, protocol config) into the per-node
factory that :meth:`repro.sim.network.Network.attach_protocols` expects.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.taxonomy import PROTOCOLS
from repro.protocols.base import ProtocolConfig, RoutingProtocol
from repro.protocols.location import LocationService
from repro.roadnet.graph import RoadGraph
from repro.sim.node import Node

#: Protocols that accept a shared :class:`LocationService`.
_LOCATION_AWARE = {
    "Abedi",
    "Wedde",
    "RSU-Relay",
    "Bus-Ferry",
    "Greedy",
    "Zone",
    "Grid-Gateway",
    "ROVER",
    "REAR",
    "GVGrid",
    "CAR",
}


def make_protocol_factory(
    name: str,
    config: Optional[ProtocolConfig] = None,
    location_service: Optional[LocationService] = None,
    road_graph: Optional[RoadGraph] = None,
) -> Callable[[Node], RoutingProtocol]:
    """Build the per-node factory for protocol ``name``.

    Args:
        name: A protocol registered in :data:`~repro.core.taxonomy.PROTOCOLS`.
        config: Optional protocol-specific config instance (must match the
            protocol's expected config class).
        location_service: Shared location service for the protocols that need
            one; a per-network default is created lazily when omitted.
        road_graph: Road graph handed to CAR (ignored by other protocols).

    Returns:
        A callable mapping a :class:`~repro.sim.node.Node` to a new protocol
        instance attached to that node's network.
    """
    protocol_class = PROTOCOLS[name]
    shared: Dict[int, LocationService] = {}

    def factory(node: Node) -> RoutingProtocol:
        network = node.network
        if network is None:
            raise ValueError("node must be added to a network before attaching protocols")
        kwargs = {}
        if config is not None:
            kwargs["config"] = config
        if name in _LOCATION_AWARE:
            service = location_service
            if service is None:
                service = shared.get(id(network))
                if service is None:
                    service = LocationService(network)
                    shared[id(network)] = service
            kwargs["location_service"] = service
        if name == "CAR" and road_graph is not None:
            kwargs["road_graph"] = road_graph
        return protocol_class(node, network, **kwargs)

    return factory
