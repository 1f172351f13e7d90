"""Pluggable application workloads.

Traffic is a first-class, registry-resolved subsystem
(:data:`~repro.workloads.registry.WORKLOADS`): a :class:`~repro.workloads.base.Workload`
builds a run's offered traffic from ``(Scenario, BuiltScenario, rng)``, and
``Scenario.workload`` names which one (kind or preset) a run uses.

Built-in kinds:

* ``cbr`` -- constant-bit-rate unicast flows (the classic ``FlowSpec``
  semantics; the default, trace-equivalent to the pre-registry runner),
* ``poisson`` -- open flow population with exponential inter-arrivals,
* ``safety-beacon`` -- single-hop broadcast BSMs from every vehicle,
* ``event-burst`` -- geo-scoped flooding of emergency warnings,
* ``v2i`` -- vehicle <-> nearest-RSU request/response sessions.
"""

from repro.workloads.base import Workload
from repro.workloads.registry import WORKLOADS

# Importing the built-in workload modules registers their kinds and presets.
from repro.workloads.cbr import CbrWorkload
from repro.workloads.event_burst import EventBurstWorkload
from repro.workloads.poisson import PoissonWorkload
from repro.workloads.safety_beacon import SafetyBeaconWorkload
from repro.workloads.v2i import V2IWorkload

__all__ = [
    "WORKLOADS",
    "Workload",
    "CbrWorkload",
    "EventBurstWorkload",
    "PoissonWorkload",
    "SafetyBeaconWorkload",
    "V2IWorkload",
]
