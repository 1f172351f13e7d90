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
            ``max(flow_count, 1)`` arrivals spread over the post-start
            window (``duration_s - start_time_s``).
        packets_per_flow: Exact packet count per flow -- only the *gaps*
            between packets are random (packets past the duration are cut
            off; zero schedules no traffic).
        mean_interval_s: Mean inter-packet gap (zero sends each flow as
            one burst).
        size_bytes: Payload size.
        start_time_s: Arrivals begin here.
        flow_count: Mean number of flows when ``arrival_rate_per_s`` is
            unset, so the mean matches a ``cbr`` run of the same count.
    """

    traffic_keywords = {
        "flows": "flow_count",
        "packets_per_flow": "packets_per_flow",
        "packet_interval": "mean_interval_s",
        "warmup": "start_time_s",
    }
    traffic_overrides = {"arrival_rate_per_s": "flow_count"}

    def __init__(
        self,
        arrival_rate_per_s: Optional[float] = None,
        packets_per_flow: int = 20,
        mean_interval_s: float = 1.0,
        size_bytes: int = 512,
        start_time_s: float = 5.0,
        flow_count: int = 5,
    ) -> None:
        if arrival_rate_per_s is not None and arrival_rate_per_s <= 0:
            raise ValueError(
                f"arrival_rate_per_s must be positive (got {arrival_rate_per_s})"
            )
        if mean_interval_s < 0:
            raise ValueError(
                f"mean_interval_s must be >= 0 (got {mean_interval_s})"
            )
        if packets_per_flow < 0:
            raise ValueError(
                f"packets_per_flow must be >= 0 (got {packets_per_flow})"
            )
        if not size_bytes > 0:
            raise ValueError(f"size_bytes must be positive (got {size_bytes})")
        self.arrival_rate_per_s = arrival_rate_per_s
        self.packets_per_flow = packets_per_flow
        self.mean_interval_s = mean_interval_s
        self.size_bytes = size_bytes
        self.start_time_s = start_time_s
        self.flow_count = flow_count

    def build(
        self, scenario: "Scenario", built: "BuiltScenario", rng: random.Random
    ) -> List[Dict[str, float]]:
        flows: List[Dict[str, float]] = []
        vehicles = built.vehicle_nodes
        if len(vehicles) < 2:
            return flows
        start = self.start_time_s
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
        # A set rate is positive (see __init__), so ``or`` only replaces None.
        rate = self.arrival_rate_per_s or max(self.flow_count, 1) / window
        if self.packets_per_flow < 1:
            warnings.warn(
                "poisson flows of 0 packets send nothing; no traffic scheduled",
                RuntimeWarning,
                stacklevel=2,
            )
            return flows
        mean_gap = self.mean_interval_s
        flow_id = 0
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
            for packet_index in range(self.packets_per_flow):
                if send_time > scenario.duration_s:
                    break
                built.sim.schedule_at(
                    send_time,
                    self.send_unicast,
                    built,
                    source,
                    destination,
                    self.size_bytes,
                    flow_id,
                    packet_index + 1,
                )
                send_time += rng.expovariate(1.0 / mean_gap) if mean_gap > 0 else 0.0
            arrival += rng.expovariate(rate)
        return flows


WORKLOADS.register_preset(
    "poisson-bursty",
    PoissonWorkload,
    "Poisson flow arrivals with 5 pkt/s bursts per flow",
    kind="poisson",
    mean_interval_s=0.2,
)
