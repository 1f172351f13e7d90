"""The uniform-grid point index behind the wireless medium's neighbour queries.

Reception fan-out in :meth:`~repro.sim.medium.WirelessMedium._complete` and
:meth:`~repro.sim.network.Network.nodes_within` ask the same geometric
question: *which nodes lie near this point?*  An exhaustive scan answers it
in O(N) per frame, which caps dense urban scenarios at a few hundred
vehicles.  :class:`UniformGridIndex` hashes the plane into square cells and
updates positions incrementally, so one query touches only the handful of
cells around the query point.

A query returns a **candidate superset** of item ids (every item whose
*stored* position falls within ``radius`` plus the index's slack), and the
caller re-filters candidates against live positions with an exact distance
test.  The result is therefore the same set an exhaustive scan finds, as
long as items have moved less than the slack since their last
:meth:`UniformGridIndex.update`; the test suite keeps that scan as the
oracle the grid is checked against.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.geometry import Vec2


class UniformGridIndex:
    """Uniform-grid index: the plane is hashed into square cells.

    ``cell_size_m`` should be on the order of the query radius (the medium
    uses its reception cutoff) so a query touches the 3x3 block of cells
    around the query point.  ``slack_m`` widens every query to cover items
    that drifted away from their stored position since the last
    :meth:`update`; correctness therefore requires items to move less than
    ``slack_m`` between updates, which the medium guarantees by refreshing
    stored positions at least every mobility step.
    """

    def __init__(self, cell_size_m: float, slack_m: float = 0.0) -> None:
        if cell_size_m <= 0:
            raise ValueError(f"cell size must be positive (got {cell_size_m})")
        if slack_m < 0:
            raise ValueError(f"slack must be non-negative (got {slack_m})")
        self.cell_size_m = cell_size_m
        self.slack_m = slack_m
        #: cell coordinate -> {item_id: None} (dict used as an ordered set).
        self._cells: Dict[Tuple[int, int], Dict[int, None]] = {}
        self._cell_of: Dict[int, Tuple[int, int]] = {}

    def _cell(self, position: Vec2) -> Tuple[int, int]:
        return (
            math.floor(position.x / self.cell_size_m),
            math.floor(position.y / self.cell_size_m),
        )

    def insert(self, item_id: int, position: Vec2) -> None:
        """Add ``item_id`` to the cell containing ``position``."""
        if item_id in self._cell_of:
            raise ValueError(f"item id {item_id} already indexed")
        cell = self._cell(position)
        self._cells.setdefault(cell, {})[item_id] = None
        self._cell_of[item_id] = cell

    def update(self, item_id: int, position: Vec2) -> None:
        """Move ``item_id``; cheap when it stays inside its current cell."""
        new_cell = self._cell(position)
        old_cell = self._cell_of.get(item_id)
        if old_cell == new_cell:
            return
        if old_cell is not None:
            self._discard(item_id, old_cell)
        self._cells.setdefault(new_cell, {})[item_id] = None
        self._cell_of[item_id] = new_cell

    def remove(self, item_id: int) -> None:
        """Drop ``item_id`` from its cell."""
        cell = self._cell_of.pop(item_id, None)
        if cell is not None:
            self._discard(item_id, cell)

    def _discard(self, item_id: int, cell: Tuple[int, int]) -> None:
        bucket = self._cells.get(cell)
        if bucket is not None:
            bucket.pop(item_id, None)
            if not bucket:
                del self._cells[cell]

    def query_ids(self, position: Vec2, radius: float) -> List[int]:
        """Ids in every cell intersecting the slack-widened query disk."""
        reach = radius + self.slack_m
        if not math.isfinite(reach):
            return list(self._cell_of)
        size = self.cell_size_m
        cx_min = math.floor((position.x - reach) / size)
        cx_max = math.floor((position.x + reach) / size)
        cy_min = math.floor((position.y - reach) / size)
        cy_max = math.floor((position.y + reach) / size)
        cells = self._cells
        ids: List[int] = []
        if (cx_max - cx_min + 1) * (cy_max - cy_min + 1) > len(cells):
            # The query disk spans more cells than exist: walking the
            # occupied cells is cheaper than walking the empty grid.
            for (cx, cy), bucket in cells.items():
                if cx_min <= cx <= cx_max and cy_min <= cy <= cy_max:
                    ids.extend(bucket)
            return ids
        for cx in range(cx_min, cx_max + 1):
            for cy in range(cy_min, cy_max + 1):
                bucket = cells.get((cx, cy))
                if bucket:
                    ids.extend(bucket)
        return ids

    def clear(self) -> None:
        """Drop every item."""
        self._cells.clear()
        self._cell_of.clear()

    def __len__(self) -> int:
        return len(self._cell_of)

