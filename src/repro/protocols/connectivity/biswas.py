"""Biswas-style flooding with implicit acknowledgements (paper ref. [9]).

Biswas et al. extend flooding for highway safety messaging: after a vehicle
rebroadcasts a packet, it listens for the same packet being rebroadcast by a
vehicle behind it.  Hearing that rebroadcast is an implicit acknowledgement
that the message keeps propagating; if no rebroadcast is overheard within a
timeout, the vehicle retransmits, up to a retry limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.taxonomy import Category, register_protocol
from repro.protocols.base import ProtocolConfig
from repro.protocols.relay import ForwardingProtocol
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.packet import Packet


@dataclass
class BiswasConfig(ProtocolConfig):
    """Implicit-acknowledgement flooding parameters.

    Attributes:
        ack_timeout_s: How long to wait for an overheard rebroadcast.
        max_retransmissions: Retransmissions before giving up on a packet.
    """

    ack_timeout_s: float = 0.3
    max_retransmissions: int = 3


@register_protocol(
    "Biswas",
    Category.CONNECTIVITY,
    "Flooding with implicit acknowledgements and periodic retransmission.",
    paper_reference="[9], Sec. III.B",
)
class BiswasProtocol(ForwardingProtocol):
    """Flooding where overheard rebroadcasts act as acknowledgements."""

    destination_first = False
    seen_lifetime_s = 60.0
    delivers_broadcast = True

    def __init__(
        self,
        node: Node,
        network: Network,
        config: Optional[BiswasConfig] = None,
    ) -> None:
        super().__init__(node, network, config if config is not None else BiswasConfig())
        #: flow_key -> {"packet", "retries", "acked"}
        self._awaiting_ack: Dict[Tuple, Dict[str, object]] = {}

    def handle_packet(self, packet: Packet, sender_id: int) -> None:
        """Take any copy of a packet awaiting its ack as that ack, then receive it."""
        pending = self._awaiting_ack.get(packet.flow_key)
        if pending is not None:
            pending["acked"] = True
        super().handle_packet(packet, sender_id)

    def _forward(self, packet: Packet) -> None:
        """Broadcast the packet and watch for its implicit acknowledgement."""
        key = packet.flow_key
        self._awaiting_ack[key] = {"packet": packet, "retries": 0, "acked": False}
        self.broadcast(packet)
        self.sim.schedule(self.config.ack_timeout_s, self._check_ack, key)

    def _check_ack(self, key: Tuple) -> None:
        pending = self._awaiting_ack.get(key)
        if pending is None:
            return
        if pending["acked"]:
            del self._awaiting_ack[key]
            return
        retries = int(pending["retries"])
        if retries >= self.config.max_retransmissions:
            del self._awaiting_ack[key]
            return
        pending["retries"] = retries + 1
        packet: Packet = pending["packet"]  # type: ignore[assignment]
        self.broadcast(packet.copy())
        self.sim.schedule(self.config.ack_timeout_s, self._check_ack, key)
