"""Poisson unicast traffic: an open flow population with exponential gaps."""

from __future__ import annotations

import random
import warnings
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.workloads.base import Workload
from repro.workloads.registry import WORKLOADS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.runner import BuiltScenario
    from repro.harness.scenario import Scenario


@WORKLOADS.register("poisson")
class PoissonWorkload(Workload):
    """Open population of unicast flows with exponential inter-arrival times.

    Flows arrive as a Poisson process over the evaluated window; each flow
    picks a fresh random vehicle pair and sends a burst of packets whose
    inter-packet gaps are themselves exponential.  This models event-driven
    (rather than clocked) application traffic, and -- unlike ``cbr`` -- the
    number of concurrently active flows fluctuates over the run.

    Constructor keywords:
        arrival_rate_per_s: Flow arrival rate; defaults to
            ``default_flow_count`` arrivals spread over the post-start
            window (``duration_s - start_time_s``) so the mean number of
            flows matches the scenario's ``cbr`` shim.
        packets_per_flow: Exact packet count per flow -- only the *gaps*
            between packets are random (the template's ``packet_count``
            when omitted; packets past the duration are cut off).
        mean_interval_s: Mean inter-packet gap (the template's
            ``interval_s`` when omitted).
        size_bytes: Payload size (the template's when omitted).
        start_time_s: Arrivals begin here (the template's ``start_time_s``
            when omitted).
    """

    def __init__(
        self,
        arrival_rate_per_s: Optional[float] = None,
        packets_per_flow: Optional[int] = None,
        mean_interval_s: Optional[float] = None,
        size_bytes: Optional[int] = None,
        start_time_s: Optional[float] = None,
    ) -> None:
        if arrival_rate_per_s is not None and arrival_rate_per_s <= 0:
            raise ValueError(
                f"arrival_rate_per_s must be positive (got {arrival_rate_per_s})"
            )
        if mean_interval_s is not None and mean_interval_s <= 0:
            raise ValueError(
                f"mean_interval_s must be positive (got {mean_interval_s})"
            )
        if packets_per_flow is not None and packets_per_flow < 1:
            # A zero-packet flow would register one dead flow-table entry
            # per arrival (the case the cbr degenerate-flow guard excludes).
            raise ValueError(
                f"packets_per_flow must be >= 1 (got {packets_per_flow})"
            )
        self.arrival_rate_per_s = arrival_rate_per_s
        self.packets_per_flow = packets_per_flow
        self.mean_interval_s = mean_interval_s
        self.size_bytes = size_bytes
        self.start_time_s = start_time_s

    def build(
        self, scenario: "Scenario", built: "BuiltScenario", rng: random.Random
    ) -> List[Dict[str, float]]:
        flows: List[Dict[str, float]] = []
        vehicles = built.vehicle_nodes
        if len(vehicles) < 2:
            return flows
        template = scenario.flow_template
        start = self.start_time_s if self.start_time_s is not None else template.start_time_s
        window = scenario.duration_s - start
        if window <= 0:
            warnings.warn(
                f"poisson start time ({start:.1f}s) leaves no arrival window before "
                f"the scenario duration ({scenario.duration_s:.1f}s); no traffic "
                "scheduled",
                RuntimeWarning,
                stacklevel=2,
            )
            return flows
        rate = (
            self.arrival_rate_per_s
            if self.arrival_rate_per_s is not None
            else max(scenario.default_flow_count, 1) / window
        )
        packets = (
            self.packets_per_flow if self.packets_per_flow is not None else template.packet_count
        )
        if packets < 1:
            warnings.warn(
                f"poisson flows of {packets} packets send nothing; no traffic scheduled",
                RuntimeWarning,
                stacklevel=2,
            )
            return flows
        mean_gap = (
            self.mean_interval_s if self.mean_interval_s is not None else template.interval_s
        )
        size = self.size_bytes if self.size_bytes is not None else template.size_bytes

        flow_id = 0
        sends = []
        arrival = start + rng.expovariate(rate)
        while arrival <= scenario.duration_s:
            flow_id += 1
            source_index, destination_index = self.pick_pair(rng, len(vehicles))
            source = vehicles[source_index]
            destination = vehicles[destination_index]
            built.stats.register_flow(flow_id, source.node_id, destination.node_id)
            flows.append(
                {
                    "flow_id": flow_id,
                    "source": source.node_id,
                    "destination": destination.node_id,
                }
            )
            send_time = arrival
            for packet_index in range(packets):
                if send_time > scenario.duration_s:
                    break
                sends.append(
                    (
                        send_time,
                        self.send_unicast,
                        (built, source, destination, size, flow_id, packet_index + 1),
                        0,
                    )
                )
                send_time += rng.expovariate(1.0 / mean_gap) if mean_gap > 0 else 0.0
            arrival += rng.expovariate(rate)
        # Bulk insert after all RNG draws: draw order above is untouched and
        # push order matches the legacy loop, so traces are unchanged.
        built.sim.schedule_at_many(sends)
        return flows


WORKLOADS.register_preset(
    "poisson-bursty",
    PoissonWorkload,
    "Poisson flow arrivals with 5 pkt/s bursts per flow",
    kind="poisson",
    mean_interval_s=0.2,
)
