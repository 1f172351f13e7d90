"""Packet model.

The paper's surveyed protocols exchange two kinds of packets (Sec. III.A):
*control* packets (HELLO, RREQ, RREP, RERR, beacons, probes, tickets) and
*data* packets.  A single :class:`Packet` class models both; protocol-specific
fields travel in the ``headers`` dictionary so the simulator core stays
protocol-agnostic.

A packet never changes after its first transmission: every receiver of a
frame reads the one transmitted packet, so a node that wants a different
packet -- a relay's next hop, a rewritten header -- sends a
:meth:`Packet.copy`.  Copies are shallow, so header values are replaced,
never changed in place.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional

#: Link-layer broadcast address.  A packet sent to ``BROADCAST`` is delivered
#: to every node that successfully receives the frame.
BROADCAST: int = -1

_uid_counter = itertools.count(1)  # repro-lint: ok DET-001 -- uids run on across runs in one process; in-process traces compare them by first appearance (normalized_records)


class PacketKind(Enum):
    """Coarse classification used by the statistics collector."""

    DATA = "data"
    CONTROL = "control"


@dataclass
class Packet:
    """A network-layer packet.

    Attributes:
        uid: Globally unique identifier of this packet instance.
        kind: Data or control (drives the overhead accounting).
        protocol: Name of the routing protocol that created the packet.
        ptype: Protocol-specific type, e.g. ``"RREQ"``, ``"HELLO"``, ``"DATA"``.
        source: Node id of the original sender (end-to-end).
        destination: Node id of the final destination, or :data:`BROADCAST`.
        size_bytes: Size used for transmission-duration and overhead accounting.
        created_at: Simulation time at which the packet was originated.
        ttl: Remaining hop budget; decremented at each forward.
        hop_count: Number of hops traversed so far.
        flow_id: Identifier of the application flow (data packets only).
        seq: Application/flow sequence number (data packets only).
        headers: Protocol-specific header fields.
        payload: Opaque application payload description.
    """

    kind: PacketKind
    protocol: str
    ptype: str
    source: int
    destination: int
    size_bytes: int = 512
    created_at: float = 0.0
    ttl: int = 64
    hop_count: int = 0
    flow_id: Optional[int] = None
    seq: Optional[int] = None
    headers: Dict[str, Any] = field(default_factory=dict)
    payload: Dict[str, Any] = field(default_factory=dict)
    uid: int = field(default_factory=lambda: next(_uid_counter))

    def copy(self, **overrides: Any) -> "Packet":
        """Return a copy with a fresh uid, optionally overriding fields.

        Forwarding a packet across a hop conceptually creates a new frame, so
        copies always receive a new ``uid``; the end-to-end identity of a data
        packet is ``(source, flow_id, seq)`` and of a control packet whatever
        the protocol puts in its headers (e.g. an RREQ id).

        The copy has its own field dict and its own ``headers`` and
        ``payload`` dicts, so rebinding a key on it leaves this packet as
        it was; nested header values are shared, and are replaced rather
        than changed in place (see the module docstring).
        """
        state = self.__dict__.copy()
        state["headers"] = dict(self.headers)
        state["payload"] = dict(self.payload)
        state["uid"] = next(_uid_counter)
        if overrides:
            state.update(overrides)
        fresh = object.__new__(self.__class__)
        fresh.__dict__ = state
        return fresh

    def forwarded(self) -> "Packet":
        """Copy of this packet with the hop count incremented and TTL decremented."""
        return self.copy(hop_count=self.hop_count + 1, ttl=self.ttl - 1)

    @property
    def is_data(self) -> bool:
        """True for application data packets."""
        return self.kind is PacketKind.DATA

    @property
    def is_control(self) -> bool:
        """True for routing control packets."""
        return self.kind is PacketKind.CONTROL

    @property
    def flow_key(self) -> tuple[int, Optional[int], Optional[int]]:
        """End-to-end identity of a data packet: ``(source, flow_id, seq)``."""
        return (self.source, self.flow_id, self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"Packet(uid={self.uid}, {self.protocol}/{self.ptype}, "
            f"{self.source}->{self.destination}, hops={self.hop_count}, ttl={self.ttl})"
        )


def make_data_packet(
    protocol: str,
    source: int,
    destination: int,
    *,
    size_bytes: int = 512,
    created_at: float = 0.0,
    flow_id: Optional[int] = None,
    seq: Optional[int] = None,
    ttl: int = 64,
    headers: Optional[Dict[str, Any]] = None,
) -> Packet:
    """Convenience constructor for an application data packet."""
    return Packet(
        kind=PacketKind.DATA,
        protocol=protocol,
        ptype="DATA",
        source=source,
        destination=destination,
        size_bytes=size_bytes,
        created_at=created_at,
        flow_id=flow_id,
        seq=seq,
        ttl=ttl,
        headers=dict(headers or {}),
    )


def make_control_packet(
    protocol: str,
    ptype: str,
    source: int,
    destination: int = BROADCAST,
    *,
    size_bytes: int = 64,
    created_at: float = 0.0,
    ttl: int = 64,
    headers: Optional[Dict[str, Any]] = None,
) -> Packet:
    """Convenience constructor for a routing control packet."""
    return Packet(
        kind=PacketKind.CONTROL,
        protocol=protocol,
        ptype=ptype,
        source=source,
        destination=destination,
        size_bytes=size_bytes,
        created_at=created_at,
        ttl=ttl,
        headers=dict(headers or {}),
    )
