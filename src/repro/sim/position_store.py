"""Struct-of-arrays store for live node kinematic state.

The scalar simulator keeps node state scattered across objects: positions
live in :class:`~repro.mobility.vehicle.VehicleState` instances behind
per-node position providers, transmit powers as plain node attributes.
Every hot-path operation (frame delivery fan-out, carrier sensing,
reachability queries, mobility stepping) therefore walks Python objects one
at a time.

:class:`PositionStore` flips that layout: positions, velocities and transmit
powers live in contiguous float64 numpy arrays, one row per registered node,
with id<->row maps on the side.  The vectorized medium backend
(``spatial_backend="vectorized"``) registers every node here and computes
per-frame physics as array expressions over candidate rows; array-capable
mobility models write whole position arrays through the store per step.

Bit-exactness contract: the store never transforms values -- a row holds
exactly the floats the scalar code would hold, and readers get them back
unchanged (float64 round-trips through numpy arrays bit for bit).  That is
what lets the vectorized backend reproduce the grid backend's event traces
byte for byte.

This module is the only place the core imports numpy; callers that want a
clear failure when numpy is missing go through :func:`require_numpy`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

try:  # pragma: no cover - exercised only on numpy-less installs
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

from repro.geometry import Vec2

#: Initial row capacity; grows by doubling, so registration is amortised O(1).
_INITIAL_CAPACITY = 64


def require_numpy(feature: str = 'spatial_backend="vectorized"'):
    """Return the numpy module or fail fast with an actionable error."""
    if np is None:
        raise RuntimeError(
            f"{feature} requires numpy, which is not installed; "
            f"install it (pip install numpy) or use spatial_backend=\"grid\""
        )
    return np


class PositionStore:
    """Contiguous struct-of-arrays state for every registered node.

    Columns (all float64, one row per node):

    * ``xs`` / ``ys`` -- position in metres,
    * ``vxs`` / ``vys`` -- velocity in m/s,
    * ``tx_power_dbm`` -- transmit power.

    Rows are dense: removal swaps the last row into the vacated slot, so the
    live arrays are always ``self.size`` rows with no holes, and array
    expressions never need a liveness mask.  ``row_of`` / ``id_at`` map
    between node ids and row indices.

    A row is either *managed* (an array-capable mobility model writes it in
    bulk each step) or *pulled* (the medium copies the node's scalar
    ``position``/``velocity`` into it on every refresh).  Static rows (RSUs)
    are pulled once at registration and never touched again.
    """

    def __init__(self) -> None:
        require_numpy()
        capacity = _INITIAL_CAPACITY
        self.xs = np.zeros(capacity)
        self.ys = np.zeros(capacity)
        self.vxs = np.zeros(capacity)
        self.vys = np.zeros(capacity)
        self.tx_power_dbm = np.zeros(capacity)
        self.size = 0
        self._row_of: Dict[int, int] = {}
        self._id_at: List[int] = []
        #: Rows bulk-written by a mobility model (skip the scalar pull).
        self._managed: Dict[int, bool] = {}
        #: Rows whose provider never moves (pulled once, never refreshed).
        self._static: Dict[int, bool] = {}
        #: Bumped on any structural or positional change; lets callers cache
        #: derived arrays (e.g. grid cell coordinates) per version.
        self.version = 0
        #: Bumped only when rows are added or removed (row<->id mapping
        #: changed); lets callers cache per-row metadata across position
        #: updates.
        self.structure_version = 0

    # ------------------------------------------------------------- structure
    def _grow(self) -> None:
        capacity = len(self.xs) * 2
        for name in ("xs", "ys", "vxs", "vys", "tx_power_dbm"):
            old = getattr(self, name)
            new = np.zeros(capacity)
            new[: self.size] = old[: self.size]
            setattr(self, name, new)

    def add(
        self,
        node_id: int,
        position: Vec2,
        velocity: Optional[Vec2] = None,
        tx_power_dbm: float = 20.0,
        static: bool = False,
    ) -> int:
        """Append a row for ``node_id`` and return its row index."""
        if node_id in self._row_of:
            raise ValueError(f"node id {node_id} already stored")
        if self.size == len(self.xs):
            self._grow()
        row = self.size
        self.size += 1
        self._row_of[node_id] = row
        self._id_at.append(node_id)
        self.xs[row] = position.x
        self.ys[row] = position.y
        if velocity is not None:
            self.vxs[row] = velocity.x
            self.vys[row] = velocity.y
        else:
            self.vxs[row] = 0.0
            self.vys[row] = 0.0
        self.tx_power_dbm[row] = tx_power_dbm
        self._managed[node_id] = False
        self._static[node_id] = static
        self.version += 1
        self.structure_version += 1
        return row

    def remove(self, node_id: int) -> None:
        """Drop ``node_id``'s row (the last row is swapped into its place)."""
        row = self._row_of.pop(node_id, None)
        if row is None:
            return
        last = self.size - 1
        if row != last:
            moved_id = self._id_at[last]
            for name in ("xs", "ys", "vxs", "vys", "tx_power_dbm"):
                column = getattr(self, name)
                column[row] = column[last]
            self._id_at[row] = moved_id
            self._row_of[moved_id] = row
        self._id_at.pop()
        self.size = last
        self._managed.pop(node_id, None)
        self._static.pop(node_id, None)
        self.version += 1
        self.structure_version += 1

    def __len__(self) -> int:
        return self.size

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._row_of

    def row_of(self, node_id: int) -> int:
        """Row index of ``node_id``."""
        return self._row_of[node_id]

    def id_at(self, row: int) -> int:
        """Node id stored at ``row``."""
        return self._id_at[row]

    def ids(self) -> List[int]:
        """All stored node ids in row order (a copy)."""
        return list(self._id_at)

    def ids_view(self) -> List[int]:
        """The live row->id list itself (callers must not mutate it).

        The vectorized delivery path maps surviving rows back to node ids
        once per frame; indexing the list directly beats a per-row method
        call on that path.
        """
        return self._id_at

    def rows_for(self, node_ids) -> "np.ndarray":
        """Row indices for an iterable of node ids (int64 array, same order)."""
        row_of = self._row_of
        return np.fromiter(
            (row_of[node_id] for node_id in node_ids), dtype=np.int64
        )

    # ------------------------------------------------------------- ownership
    def set_managed(self, node_id: int, managed: bool = True) -> None:
        """Mark ``node_id``'s row as bulk-written by a mobility model."""
        if node_id not in self._row_of:
            raise KeyError(node_id)
        self._managed[node_id] = managed

    def unmanaged_dynamic_ids(self) -> List[int]:
        """Node ids whose rows must be pulled from scalar state on refresh."""
        return [
            node_id
            for node_id in self._id_at
            if not self._managed[node_id] and not self._static[node_id]
        ]

    # ----------------------------------------------------------------- values
    def set_position(self, node_id: int, position: Vec2) -> None:
        """Write one node's position (scalar pull path)."""
        row = self._row_of[node_id]
        self.xs[row] = position.x
        self.ys[row] = position.y

    def set_velocity(self, node_id: int, velocity: Vec2) -> None:
        """Write one node's velocity (scalar pull path)."""
        row = self._row_of[node_id]
        self.vxs[row] = velocity.x
        self.vys[row] = velocity.y

    def set_tx_power(self, node_id: int, tx_power_dbm: float) -> None:
        """Write one node's transmit power."""
        self.tx_power_dbm[self._row_of[node_id]] = tx_power_dbm

    def position_of(self, node_id: int) -> Vec2:
        """Read one node's stored position back as a :class:`Vec2`."""
        row = self._row_of[node_id]
        return Vec2(float(self.xs[row]), float(self.ys[row]))

    def touch(self) -> None:
        """Record that stored values changed (invalidate derived caches)."""
        self.version += 1


__all__ = ["PositionStore", "require_numpy"]
