"""Network nodes.

A node is a radio-equipped participant of the VANET: a vehicle (OBU), a
road-side unit (RSU) or a bus ferry.  Position and velocity are *not* stored
on the node -- they are read through a :class:`PositionProvider`, so the same
node class works for vehicles driven by a mobility model, for static RSUs and
for trace-replayed vehicles.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Callable, Optional, Protocol, runtime_checkable

from repro.geometry import Vec2
from repro.sim.packet import BROADCAST, Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance for typing only
    from repro.protocols.base import RoutingProtocol
    from repro.sim.network import Network


class NodeKind(Enum):
    """The three kinds of node the surveyed protocols distinguish."""

    VEHICLE = "vehicle"
    RSU = "rsu"
    BUS = "bus"


@runtime_checkable
class PositionProvider(Protocol):
    """Anything that can report a position and a velocity.

    A provider class may declare ``stepped = True``: its position changes
    only inside a mobility step that is followed by
    :meth:`~repro.sim.medium.WirelessMedium.refresh_positions` (static
    infrastructure, vehicles driven by a mobility model).  The medium then
    reuses one in-range table per query position until the next refresh.
    A provider without the attribute counts as *live* -- its position may
    move with ``sim.now`` between steps -- and while one is registered the
    medium scans afresh on every query.  Mirrors
    ``PropagationModel.deterministic``.
    """

    def position(self) -> Vec2:
        """Current position in metres."""

    def velocity(self) -> Vec2:
        """Current velocity vector in metres/second."""


class StaticPositionProvider:
    """Position provider for fixed infrastructure (RSUs)."""

    #: The position never changes (see :class:`PositionProvider`).
    stepped = True

    def __init__(self, position: Vec2) -> None:
        self._position = position

    def position(self) -> Vec2:
        """The fixed position."""
        return self._position

    def velocity(self) -> Vec2:
        """Always the zero vector."""
        return Vec2(0.0, 0.0)


class Node:
    """A radio-equipped network node."""

    def __init__(
        self,
        node_id: int,
        position_provider: PositionProvider,
        kind: NodeKind = NodeKind.VEHICLE,
    ) -> None:
        self.node_id = node_id
        self.kind = kind
        self._position_provider = position_provider
        self.network: Optional["Network"] = None
        self.protocol: Optional["RoutingProtocol"] = None
        self.mac = None  # assigned by WirelessMedium.register()
        #: Transmit power in dBm; can be overridden per node before start.
        self.tx_power_dbm: float = 20.0
        #: Retired application-layer frame hook, always ``None``: workloads
        #: now claim their frame types on the medium (see
        #: :meth:`~repro.sim.medium.WirelessMedium.claim_frames`) and
        #: :meth:`deliver` no longer calls it.  Kept because the end-to-end
        #: benchmark's tracer reads it to attribute receptions to a layer.
        self.app_frame_handler: Optional[Callable[[Packet, int], bool]] = None
        #: Application-layer delivery hook installed by workloads: called
        #: when a unicast data packet destined to this node is delivered
        #: end-to-end (request/response workloads answer from here).
        self.app_delivery_handler: Optional[Callable[[Packet], None]] = None

    # ------------------------------------------------------------- kinematics
    @property
    def position(self) -> Vec2:
        """Current position (metres)."""
        return self._position_provider.position()

    @property
    def velocity(self) -> Vec2:
        """Current velocity vector (m/s)."""
        return self._position_provider.velocity()

    @property
    def speed(self) -> float:
        """Current scalar speed (m/s)."""
        return self.velocity.norm()

    @property
    def heading(self) -> float:
        """Current heading in radians (0 when stationary)."""
        velocity = self.velocity
        if velocity.norm_sq() == 0.0:
            return 0.0
        return velocity.angle()

    @property
    def is_infrastructure(self) -> bool:
        """True for RSUs (fixed, backbone-connected nodes)."""
        return self.kind is NodeKind.RSU

    def distance_to(self, other: "Node") -> float:
        """Euclidean distance to another node (metres)."""
        return self.position.distance_to(other.position)

    # ------------------------------------------------------------ attachment
    def attach_protocol(self, protocol: "RoutingProtocol") -> None:
        """Install the routing protocol instance that runs on this node."""
        self.protocol = protocol

    # -------------------------------------------------------------- data path
    def send(self, packet: Packet, next_hop: int = BROADCAST) -> None:
        """Hand a packet to the MAC for transmission.

        ``next_hop`` is the link-layer destination: a node id for unicast
        frames or :data:`~repro.sim.packet.BROADCAST`.
        """
        if self.mac is None:
            raise RuntimeError(
                f"node {self.node_id} is not registered with a wireless medium"
            )
        self.mac.enqueue(packet, next_hop)

    def deliver(self, packet: Packet, sender_id: int) -> None:
        """Called by the medium when an unclaimed frame is successfully received.

        ``packet`` is the transmitted packet itself, shared with the sender
        and every other receiver: the protocol reads it and sends a
        :meth:`~repro.sim.packet.Packet.copy` when it relays.  Claimed frame
        types -- HELLO, BSM and EVT, and the RREQ and MREQ route requests --
        go to their claim's ``receive`` instead, which also gets the
        received signal strength (see
        :meth:`~repro.sim.medium.WirelessMedium.claim_frames`), so what
        arrives here is routing replies and errors, data and other
        protocols' control frames.
        """
        if self.protocol is not None:
            self.protocol.handle_packet(packet, sender_id)

    def wired_deliver(self, packet: Packet, sender_id: int) -> None:
        """Called by the RSU backbone when a frame arrives over the wire."""
        if self.protocol is not None:
            self.protocol.handle_backbone_packet(packet, sender_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        pos = self.position
        return f"Node({self.node_id}, {self.kind.value}, x={pos.x:.1f}, y={pos.y:.1f})"
