"""Pure flooding: every node rebroadcasts every packet it has not seen before.

This is the paper's baseline (Sec. III.A): trivially simple, very reliable in
terms of availability, but each data packet costs on the order of one
transmission per node -- the broadcast-storm problem [5] once density grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.taxonomy import Category, register_protocol
from repro.protocols.base import ProtocolConfig
from repro.protocols.relay import ForwardingProtocol
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.packet import Packet


@dataclass
class FloodingConfig(ProtocolConfig):
    """Flooding parameters.

    Attributes:
        rebroadcast_jitter_s: Random delay before a rebroadcast, which
            desynchronises neighbours and slightly reduces collisions.
    """

    rebroadcast_jitter_s: float = 0.01


@register_protocol(
    "Flooding",
    Category.CONNECTIVITY,
    "Blind flooding of data packets with duplicate suppression.",
    paper_reference="Sec. III.A",
)
class FloodingProtocol(ForwardingProtocol):
    """Blind flooding with per-packet duplicate suppression."""

    destination_first = False
    seen_lifetime_s = 60.0
    delivers_broadcast = True

    def __init__(
        self,
        node: Node,
        network: Network,
        config: Optional[FloodingConfig] = None,
    ) -> None:
        super().__init__(node, network, config if config is not None else FloodingConfig())

    def _forward(self, packet: Packet) -> None:
        """Broadcast at once at the origin; rebroadcast a relayed copy after a jitter."""
        if packet.hop_count == 0:
            self.broadcast(packet)
            return
        jitter = self.rng.uniform(0.0, self.config.rebroadcast_jitter_s)
        self.sim.schedule(jitter, self.broadcast, packet)
