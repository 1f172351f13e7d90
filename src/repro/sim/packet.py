"""Packet model.

The paper's surveyed protocols exchange two kinds of packets (Sec. III.A):
*control* packets (HELLO, RREQ, RREP, RERR, beacons, probes, tickets) and
*data* packets.  A single :class:`Packet` class models both; protocol-specific
fields travel in the ``headers`` dictionary so the simulator core stays
protocol-agnostic.
"""

from __future__ import annotations

import copy
import itertools
from collections.abc import MutableMapping
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Iterator, Optional

#: Link-layer broadcast address.  A packet sent to ``BROADCAST`` is delivered
#: to every node that successfully receives the frame.
BROADCAST: int = -1

_uid_counter = itertools.count(1)

#: Draw the next packet uid without building a packet.  The medium draws
#: one per claimed reception (see
#: :meth:`~repro.sim.medium.WirelessMedium.claim_frames`), where no
#: per-receiver view is made, so uids number exactly as if one were.
next_uid = _uid_counter.__next__

#: `object.__new__` hoisted to a module global: `view()` runs per receiver
#: per broadcast frame, where the attribute chain is measurable.
_new_instance = object.__new__

#: Types that deep-copy to themselves; header/payload values of these types
#: are shared, everything else is copied.
_ATOMIC_TYPES = frozenset({int, float, str, bool, bytes, type(None)})


def _copy_value(value: Any) -> Any:
    """Deep-copy a header/payload value, fast-pathing the common shapes.

    Equivalent to :func:`copy.deepcopy` for dicts, lists and atomic values
    (the overwhelming majority of header content); anything else falls back
    to deepcopy proper.  Frame delivery copies the packet once per receiver,
    so this sits on the hottest path in the simulator.
    """
    cls = value.__class__
    if cls is dict:
        return {key: _copy_value(item) for key, item in value.items()}
    if cls in _ATOMIC_TYPES:
        return value
    if cls is list:
        return [_copy_value(item) for item in value]
    if cls is CowMapping:
        return {key: _copy_value(item) for key, item in value.items()}
    return copy.deepcopy(value)


class CowMapping(MutableMapping):
    """Copy-on-write dict facade shared between a packet and its views.

    Reads delegate to the shared dict; the first write deep-copies the
    shared content into a private dict, so the original is never touched.
    Used for :class:`PacketView` headers/payload.  Scalar reads (``get``,
    ``in``) go straight to the dict in effect; ``keys``/``items``/``values``
    stay the ABC's live views, which follow a later copy-on-write.
    """

    __slots__ = ("_shared", "_local")

    def __init__(self, shared: Dict[str, Any]) -> None:
        self._shared = shared
        self._local: Optional[Dict[str, Any]] = None

    def _materialize(self) -> Dict[str, Any]:
        local = self._local
        if local is None:
            local = {key: _copy_value(item) for key, item in self._shared.items()}
            self._local = local
        return local

    def __getitem__(self, key: str) -> Any:
        local = self._local
        return (self._shared if local is None else local)[key]

    def __setitem__(self, key: str, value: Any) -> None:
        self._materialize()[key] = value

    def __delitem__(self, key: str) -> None:
        del self._materialize()[key]

    def get(self, key: str, default: Any = None) -> Any:
        # The ABC's get() goes through __getitem__ and a KeyError; header
        # reads on delivered frames are hot enough to want the dict's own.
        local = self._local
        return (self._shared if local is None else local).get(key, default)

    def __contains__(self, key: object) -> bool:
        local = self._local
        return key in (self._shared if local is None else local)

    def __iter__(self) -> Iterator[str]:
        local = self._local
        return iter(self._shared if local is None else local)

    def __len__(self) -> int:
        local = self._local
        return len(self._shared if local is None else local)

    def __bool__(self) -> bool:
        local = self._local
        return bool(self._shared if local is None else local)

    def content(self) -> Dict[str, Any]:
        """The backing dict currently in effect (shared until first write)."""
        local = self._local
        return self._shared if local is None else local

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        state = "local" if self._local is not None else "shared"
        return f"CowMapping({self.content()!r}, {state})"


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
        rx_power_dbm: Receiver-side metadata -- the signal strength at which
            this copy of the packet was received, stamped by the medium on
            delivery.  ``None`` while the packet is in flight.
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
    rx_power_dbm: Optional[float] = None
    uid: int = field(default_factory=lambda: next(_uid_counter))

    def copy(self, **overrides: Any) -> "Packet":
        """Return a copy with a fresh uid, optionally overriding fields.

        Forwarding a packet across a hop conceptually creates a new frame, so
        copies always receive a new ``uid``; the end-to-end identity of a data
        packet is ``(source, flow_id, seq)`` and of a control packet whatever
        the protocol puts in its headers (e.g. an RREQ id).

        The medium calls this once per delivered frame, so the copy is
        hand-rolled (``dataclasses.replace`` re-runs field resolution per
        call) with headers and payload duplicated through the deepcopy fast
        path above.
        """
        fresh = object.__new__(self.__class__)
        state = fresh.__dict__
        state.update(self.__dict__)
        headers = state["headers"]
        if headers:
            state["headers"] = {key: _copy_value(item) for key, item in headers.items()}
        else:
            state["headers"] = {}
        payload = state["payload"]
        if payload:
            state["payload"] = {key: _copy_value(item) for key, item in payload.items()}
        else:
            state["payload"] = {}
        state["uid"] = next(_uid_counter)
        if overrides:
            state.update(overrides)
        return fresh

    def view(self) -> "PacketView":
        """Return a copy-on-write view of this packet with a fresh uid.

        A view behaves like :meth:`copy` -- same fields, new ``uid`` -- but
        shares the headers/payload storage until (if ever) it is mutated.
        The medium uses views for per-receiver frame delivery, where the
        overwhelming majority of frames (e.g. broadcast beacons) are read
        and dropped without mutation.  The uid is drawn from the same
        counter as :meth:`copy`, so traces are byte-identical either way.

        Plain fields are *snapshotted* at delivery: the view takes one
        C-level copy of this packet's field dict (minus ``headers`` and
        ``payload``), so field reads are plain instance-dict hits and a
        later write to the base is not seen -- exactly what :meth:`copy`
        gives.  ``headers``/``payload`` are copy-on-write: the first read
        wraps the base's dict in a :class:`CowMapping`.

        Contract: a frame handed to the medium is immutable while in
        flight.  Protocols that mutate received packets in place (rather
        than forwarding a copy) must set ``mutates_in_flight = True`` so
        the medium falls back to full copies for their nodes; attribute
        writes and header/payload *item* writes on a view are always safe
        (copy-on-write), but in-place mutation of a mutable header value
        (e.g. ``packet.headers["path"].append(...)``) would leak through
        to the shared base.
        """
        state = self.__dict__.copy()
        # A view of a view may carry materialised mappings of its own; the
        # new view wraps them afresh on first read.
        state.pop("headers", None)
        state.pop("payload", None)
        state["_base"] = self
        state["uid"] = next(_uid_counter)
        fresh = _new_instance(PacketView)
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


class PacketView(Packet):
    """Copy-on-write view of a :class:`Packet` (see :meth:`Packet.view`).

    The instance dict holds a snapshot of the base's plain fields, the
    fresh ``uid`` and ``_base``; attribute writes (e.g. the medium stamping
    ``rx_power_dbm``) simply replace the snapshot.  ``headers``/``payload``
    are the only attributes served by ``__getattr__``: the first read hands
    out a cached :class:`CowMapping` over the base's dict, so item writes
    materialize a private dict instead of touching the shared one.
    """

    def __getattr__(self, name: str) -> Any:
        # Only reached when `name` is not in the instance dict or on the
        # class.  Anything but the two lazy mappings is a plain miss (which
        # also keeps pickling/copy protocol probes away from `_base`).
        if name != "headers" and name != "payload":
            raise AttributeError(name)
        value = getattr(self.__dict__["_base"], name)
        value = CowMapping(value if value.__class__ is dict else value.content())
        self.__dict__[name] = value
        return value

    def copy(self, **overrides: Any) -> "Packet":
        """Materialize a full, independent :class:`Packet` from this view."""
        fresh = _new_instance(Packet)
        state = fresh.__dict__
        state.update(self.__dict__)
        del state["_base"]
        for key in ("headers", "payload"):
            mapping = getattr(self, key)
            if mapping:
                state[key] = {k: _copy_value(v) for k, v in mapping.items()}
            else:
                state[key] = {}
        state["uid"] = next(_uid_counter)
        if overrides:
            state.update(overrides)
        return fresh


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
