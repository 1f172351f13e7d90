"""Constant-bit-rate unicast flows: the traffic of every Table I comparison."""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.workloads.base import Workload
from repro.workloads.registry import WORKLOADS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.runner import BuiltScenario
    from repro.harness.scenario import Scenario


@dataclass(frozen=True)
class CbrFlow:
    """One explicit ``cbr`` flow: vehicle-list indices (``None`` draws a
    random pair) and timing (``None`` takes the workload's own value)."""

    source_index: Optional[int] = None
    destination_index: Optional[int] = None
    start_time_s: Optional[float] = None
    interval_s: Optional[float] = None
    packet_count: Optional[int] = None
    size_bytes: Optional[int] = None


@WORKLOADS.register("cbr")
class CbrWorkload(Workload):
    """Constant-bit-rate unicast flows between random (or pinned) vehicle pairs.

    ``flow_count`` flows of ``packet_count`` packets, one every
    ``interval_s`` from ``start_time_s``, each between a random vehicle
    pair; explicit ``flows`` (:class:`CbrFlow` records, e.g. with pinned
    endpoints) replace the random ones.  Endpoints left unpinned are drawn
    from the ``"traffic"`` stream exactly the way the runner's retired
    ``_schedule_flows`` drew them, so default runs reproduce pre-redesign
    results seed for seed.
    """

    traffic_keywords = {
        "flows": "flow_count",
        "packets_per_flow": "packet_count",
        "packet_interval": "interval_s",
        "warmup": "start_time_s",
    }
    traffic_overrides = {"flows": "flow_count"}

    def __init__(
        self,
        flow_count: int = 5,
        start_time_s: float = 5.0,
        interval_s: float = 1.0,
        packet_count: int = 20,
        size_bytes: int = 512,
        flows: Sequence[CbrFlow] = (),
    ) -> None:
        # Named errors here, not a silent empty run (negative counts) or a
        # deep scheduler/MAC error (negative interval or size) mid-run.
        # A zero interval is a legal burst.
        for name, value in (
            ("flow_count", flow_count),
            ("packet_count", packet_count),
            ("interval_s", interval_s),
        ):
            if value < 0:
                raise ValueError(f"{name} must be >= 0 (got {value})")
        if size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive (got {size_bytes})")
        self.flow_count = flow_count
        self.start_time_s = start_time_s
        self.interval_s = interval_s
        self.packet_count = packet_count
        self.size_bytes = size_bytes
        self.flows = tuple(flows)

    def _specs(self) -> List[CbrFlow]:
        keys = ("start_time_s", "interval_s", "packet_count", "size_bytes")
        own = {key: getattr(self, key) for key in keys}
        if not self.flows:
            return [CbrFlow(**own)] * self.flow_count
        return [
            replace(flow, **{key: own[key] for key in keys if getattr(flow, key) is None})
            for flow in self.flows
        ]

    def build(
        self, scenario: "Scenario", built: "BuiltScenario", rng: random.Random
    ) -> List[Dict[str, float]]:
        flows: List[Dict[str, float]] = []
        vehicles = built.vehicle_nodes
        if len(vehicles) < 2:
            return flows
        for flow_id, spec in enumerate(self._specs(), start=1):
            # Endpoints are resolved before the degenerate-start check so a
            # skipped flow still consumes exactly the draws the legacy
            # scheduler consumed -- later unpinned flows keep their pairs.
            source_index = spec.source_index
            destination_index = spec.destination_index
            if source_index is None or destination_index is None:
                source_index, destination_index = self.pick_pair(rng, len(vehicles))
            if spec.start_time_s > scenario.duration_s:
                # The scheduling loop below sends nothing once send_time
                # exceeds the duration (a start exactly *at* the duration
                # still sends one packet, as the legacy scheduler did), so a
                # flow starting past it contributes zero packets; keeping it
                # registered would silently pad the flow table with dead
                # entries.
                warnings.warn(
                    f"flow {flow_id} starts at {spec.start_time_s:.1f}s, past the "
                    f"scenario duration ({scenario.duration_s:.1f}s); it sends "
                    "nothing and is excluded from flow accounting",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            source = vehicles[source_index % len(vehicles)]
            destination = vehicles[destination_index % len(vehicles)]
            built.stats.register_flow(flow_id, source.node_id, destination.node_id)
            flows.append(
                {
                    "flow_id": flow_id,
                    "source": source.node_id,
                    "destination": destination.node_id,
                }
            )
            for packet_index in range(spec.packet_count):
                send_time = spec.start_time_s + packet_index * spec.interval_s
                if send_time > scenario.duration_s:
                    break
                built.sim.schedule_at(
                    send_time,
                    self.send_unicast,
                    built,
                    source,
                    destination,
                    spec.size_bytes,
                    flow_id,
                    packet_index + 1,
                )
        return flows
