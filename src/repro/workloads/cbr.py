"""Constant-bit-rate unicast flows (the classic ``FlowSpec`` traffic)."""

from __future__ import annotations

import random
import warnings
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.workloads.base import Workload
from repro.workloads.registry import WORKLOADS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.runner import BuiltScenario
    from repro.harness.scenario import Scenario


@WORKLOADS.register("cbr")
class CbrWorkload(Workload):
    """Constant-bit-rate unicast flows between random (or pinned) vehicle pairs.

    This is the pre-registry traffic model, byte-for-byte: explicit
    ``Scenario.flows`` entries are honoured first; otherwise
    ``Scenario.default_flow_count`` flows are stamped from
    ``Scenario.flow_template``.  Endpoints left unpinned are drawn from the
    ``"traffic"`` stream exactly the way the runner's retired
    ``_schedule_flows`` drew them, so default runs reproduce pre-redesign
    results seed for seed.

    Constructor keywords (all optional) override the scenario's template:
    ``flow_count``, ``start_time_s``, ``interval_s``, ``packet_count``,
    ``size_bytes``.
    """

    def __init__(
        self,
        flow_count: Optional[int] = None,
        start_time_s: Optional[float] = None,
        interval_s: Optional[float] = None,
        packet_count: Optional[int] = None,
        size_bytes: Optional[int] = None,
    ) -> None:
        self.flow_count = flow_count
        self.start_time_s = start_time_s
        self.interval_s = interval_s
        self.packet_count = packet_count
        self.size_bytes = size_bytes

    def _specs(self, scenario: "Scenario") -> List:
        from repro.harness.scenario import FlowSpec

        specs = list(scenario.flows)
        if not specs:
            template = scenario.flow_template
            count = self.flow_count if self.flow_count is not None else scenario.default_flow_count
            specs = [
                FlowSpec(
                    start_time_s=self.start_time_s
                    if self.start_time_s is not None
                    else template.start_time_s,
                    interval_s=self.interval_s
                    if self.interval_s is not None
                    else template.interval_s,
                    packet_count=self.packet_count
                    if self.packet_count is not None
                    else template.packet_count,
                    size_bytes=self.size_bytes
                    if self.size_bytes is not None
                    else template.size_bytes,
                )
                for _ in range(count)
            ]
        return specs

    def build(
        self, scenario: "Scenario", built: "BuiltScenario", rng: random.Random
    ) -> List[Dict[str, float]]:
        flows: List[Dict[str, float]] = []
        vehicles = built.vehicle_nodes
        if len(vehicles) < 2:
            return flows
        sends = []
        for flow_id, spec in enumerate(self._specs(scenario), start=1):
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
                sends.append(
                    (
                        send_time,
                        self.send_unicast,
                        (
                            built,
                            source,
                            destination,
                            spec.size_bytes,
                            flow_id,
                            packet_index + 1,
                        ),
                        0,
                    )
                )
        # One bulk queue insert for the whole traffic matrix; push order
        # matches the legacy per-packet loop, so the trace is unchanged.
        built.sim.schedule_at_many(sends)
        return flows
