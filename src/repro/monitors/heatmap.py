"""Per-region grid heatmap probe: where the channel load actually is."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Tuple

from repro.monitors.base import Monitor
from repro.monitors.registry import MONITORS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.packet import Packet


@MONITORS.register("heatmap")
class TransmissionHeatmapMonitor(Monitor):
    """Counts transmissions per square grid cell of the plane.

    Every frame handed to the channel increments the cell containing the
    sender's position.  The full map is emitted once, at finalize, as a
    ``heatmap`` telemetry event with deterministically sorted
    ``[ix, iy, count]`` rows; summary metrics report the active-cell
    count, total, and the peak cell (the hotspot a city-wide mean hides).
    """

    def __init__(self, cell_size_m: float = 250.0, data_only: bool = False):
        super().__init__()
        if cell_size_m <= 0:
            raise ValueError(f"cell_size_m must be positive, got {cell_size_m!r}")
        self.cell_size_m = cell_size_m
        self.data_only = data_only
        self._cells: Dict[Tuple[int, int], int] = {}

    def on_transmission(
        self, now: float, packet: "Packet", sender_id: int, position
    ) -> None:
        if self.data_only and packet.is_control:
            return
        cell = (
            int(math.floor(position.x / self.cell_size_m)),
            int(math.floor(position.y / self.cell_size_m)),
        )
        self._cells[cell] = self._cells.get(cell, 0) + 1

    def finalize(self, now: float) -> Dict[str, float]:
        rows = [[ix, iy, count] for (ix, iy), count in sorted(self._cells.items())]
        total = sum(self._cells.values())
        peak = max(self._cells.values()) if self._cells else 0
        self.emit(
            "heatmap",
            now,
            cell_size_m=self.cell_size_m,
            cells=rows,
            total=total,
        )
        return {
            "heatmap_active_cells": float(len(self._cells)),
            "heatmap_total_tx": float(total),
            "heatmap_peak_cell_tx": float(peak),
        }


MONITORS.register_preset(
    "heatmap-250m",
    TransmissionHeatmapMonitor,
    "transmission heatmap on 250 m cells",
    kind="heatmap",
    cell_size_m=250.0,
)
MONITORS.register_preset(
    "heatmap-1km",
    TransmissionHeatmapMonitor,
    "coarse city-scale heatmap on 1 km cells",
    kind="heatmap",
    cell_size_m=1000.0,
)
