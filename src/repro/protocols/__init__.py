"""Routing protocols: one subpackage per category of the paper's taxonomy.

Importing this package registers every implemented protocol in
:data:`repro.core.taxonomy.PROTOCOLS`, which is how the harness resolves
protocols by name and the Fig. 1 benchmark enumerates the taxonomy.

Shared building blocks live at this level:

* :mod:`repro.protocols.base` -- the :class:`RoutingProtocol` interface,
  which also starts and stops a protocol's beacons.
* :mod:`repro.protocols.neighbors` -- HELLO beaconing and neighbour tables.
* :mod:`repro.protocols.discovery` -- the on-demand routing core: the
  discovery lifecycle (:class:`OnDemandProtocol`), source-route forwarding
  (:class:`SourceRoutingProtocol`), and the duplicate caches, route tables
  and pending-packet buffers they use.
* :mod:`repro.protocols.relay` -- the one data receive of the floods and
  the hop-by-hop relays (:class:`ForwardingProtocol`), and the location
  lookup and greedy next hop of the relays (:class:`RelayProtocol`).
* :mod:`repro.protocols.location` -- the idealised location service the
  geographic protocols assume (GPS plus a location lookup).
"""

from repro.protocols.base import ProtocolConfig, RoutingProtocol
from repro.protocols.discovery import (
    DuplicateCache,
    OnDemandProtocol,
    PendingPacketBuffer,
    RouteEntry,
    RouteTable,
    SourceRoutingProtocol,
)
from repro.protocols.location import LocationService
from repro.protocols.neighbors import BeaconService, NeighborEntry, NeighborTable
from repro.protocols.relay import RelayProtocol

# Import the category subpackages for their registration side effects.
from repro.protocols import connectivity as connectivity  # noqa: F401
from repro.protocols import mobility_based as mobility_based  # noqa: F401
from repro.protocols import infrastructure as infrastructure  # noqa: F401
from repro.protocols import geographic as geographic  # noqa: F401
from repro.protocols import probability as probability  # noqa: F401

from repro.core.taxonomy import PROTOCOLS
from repro.protocols.registry import make_protocol_factory

__all__ = [
    "ProtocolConfig",
    "RoutingProtocol",
    "DuplicateCache",
    "OnDemandProtocol",
    "SourceRoutingProtocol",
    "RelayProtocol",
    "PendingPacketBuffer",
    "RouteEntry",
    "RouteTable",
    "LocationService",
    "BeaconService",
    "NeighborEntry",
    "NeighborTable",
    "PROTOCOLS",
    "make_protocol_factory",
]
