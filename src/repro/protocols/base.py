"""The routing-protocol interface every implementation follows."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

from repro.core.taxonomy import Category
from repro.protocols.neighbors import BeaconService
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.packet import BROADCAST, Packet, make_control_packet, make_data_packet


@dataclass
class ProtocolConfig:
    """Parameters shared by every protocol.

    Attributes:
        data_ttl: Hop budget of application data packets.
        control_ttl: Hop budget of control packets.
        data_size_bytes: Default data-packet size.
        hello_interval_s: Beacon period for protocols that beacon.
        neighbor_timeout_s: Age after which a neighbour entry is stale.
    """

    data_ttl: int = 32
    control_ttl: int = 32
    data_size_bytes: int = 512
    #: VANET safety beacons run at 2-10 Hz; 2 Hz keeps neighbour positions
    #: fresh enough for forwarding decisions at highway speeds.
    hello_interval_s: float = 0.5
    neighbor_timeout_s: float = 1.5


class RoutingProtocol(ABC):
    """Base class for all routing protocols.

    A protocol instance runs on exactly one node.  Subclasses implement
    :meth:`handle_packet` (frames received over the air) and route data
    packets handed to :meth:`send_data` by the application layer.  A
    protocol that beacons sets :attr:`beacons` (see :meth:`beacon_service`);
    :meth:`start` and :meth:`stop` then start and stop it.
    """

    #: Registry name and Fig. 1 taxonomy entry; stamped by ``@register_protocol``.
    protocol_name: str = "base"
    category: Optional[Category] = None
    description: str = ""
    paper_reference: str = ""
    #: Set True when ``__init__`` accepts a ``location_service``: the
    #: protocol factory then hands every node of a network the same shared
    #: :class:`~repro.protocols.location.LocationService`.
    uses_location_service: bool = False

    def __init__(
        self,
        node: Node,
        network: Network,
        config: Optional[ProtocolConfig] = None,
    ) -> None:
        self.node = node
        self.network = network
        self.sim = network.sim
        self.stats = network.stats
        self.config = config if config is not None else ProtocolConfig()
        self.rng = self.sim.rng.stream(f"protocol-{self.protocol_name}-{node.node_id}")
        self._started = False
        self._flow_seq = 0
        #: HELLO beaconing and the neighbour table, for protocols that beacon.
        self.beacons: Optional[BeaconService] = None

    # ----------------------------------------------------------------- set up
    def beacon_service(self, **options) -> BeaconService:
        """A HELLO service at the configured interval and neighbour timeout."""
        return BeaconService(
            self,
            interval_s=self.config.hello_interval_s,
            timeout_s=self.config.neighbor_timeout_s,
            **options,
        )

    def start(self) -> None:
        """Called once when the simulation starts: starts beaconing, if any.

        Subclasses with timers of their own schedule them after this.
        """
        self._started = True
        if self.beacons is not None:
            self.beacons.start()

    def stop(self) -> None:
        """Called when the run ends: stops beaconing, if any."""
        self._started = False
        if self.beacons is not None:
            self.beacons.stop()

    # -------------------------------------------------------------- data path
    def send_data(
        self,
        destination: int,
        size_bytes: Optional[int] = None,
        flow_id: Optional[int] = None,
        seq: Optional[int] = None,
    ) -> Packet:
        """Originate one application data packet toward ``destination``.

        The packet is recorded with the statistics collector and handed to
        :meth:`route_data`, which subclasses implement (or inherit).
        """
        if seq is None:
            self._flow_seq += 1
            seq = self._flow_seq
        packet = make_data_packet(
            self.protocol_name,
            self.node.node_id,
            destination,
            size_bytes=size_bytes if size_bytes is not None else self.config.data_size_bytes,
            created_at=self.sim.now,
            flow_id=flow_id,
            seq=seq,
            ttl=self.config.data_ttl,
        )
        self.stats.data_originated(packet)
        self.route_data(packet)
        return packet

    @abstractmethod
    def route_data(self, packet: Packet) -> None:
        """Route a data packet originated by (or arriving at) this node."""

    @abstractmethod
    def handle_packet(self, packet: Packet, sender_id: int) -> None:
        """Handle a frame received over the wireless channel.

        ``packet`` is the transmitted packet, shared by every receiver:
        read it, never change it, and relay a
        :meth:`~repro.sim.packet.Packet.forwarded` copy.
        """

    def handle_backbone_packet(self, packet: Packet, sender_id: int) -> None:
        """Handle a frame received over the wired RSU backbone.

        Only infrastructure protocols use the backbone; the default treats it
        like a wireless reception so non-infrastructure protocols running on
        RSU nodes still work.
        """
        self.handle_packet(packet, sender_id)

    # ----------------------------------------------------------------- helpers
    def broadcast(self, packet: Packet) -> None:
        """Send a frame to every neighbour in range."""
        self.node.send(packet, BROADCAST)

    def unicast(self, packet: Packet, next_hop: int) -> None:
        """Send a frame to one specific neighbour."""
        self.node.send(packet, next_hop)

    def deliver_locally(self, packet: Packet) -> None:
        """Consume a data packet whose destination is this node."""
        fresh = self.stats.data_delivered(packet, self.sim.now, receiver=self.node.node_id)
        self.network.trace.record(
            self.sim.now,
            "delivered",
            self.node.node_id,
            source=packet.source,
            flow=packet.flow_id,
            seq=packet.seq,
            hops=packet.hop_count,
        )
        # Hand the payload up to the application layer: request/response
        # workloads (e.g. v2i) answer delivered packets from this hook.
        # Only first deliveries propagate -- protocols that deliver before
        # their duplicate check would otherwise trigger one application
        # reaction per received copy.
        if fresh and self.node.app_delivery_handler is not None:
            self.node.app_delivery_handler(packet)

    def make_control(
        self,
        ptype: str,
        destination: int = BROADCAST,
        size_bytes: int = 64,
        **headers,
    ) -> Packet:
        """Create a control packet originated by this node."""
        return make_control_packet(
            self.protocol_name,
            ptype,
            self.node.node_id,
            destination,
            size_bytes=size_bytes,
            created_at=self.sim.now,
            ttl=self.config.control_ttl,
            headers=headers,
        )

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"{type(self).__name__}(node={self.node.node_id})"
