"""Scenario descriptions.

A :class:`Scenario` is a declarative description of one simulation setting:
the mobility model and traffic density, the radio, the infrastructure, the
application workload and the run length.  The runner turns it into a live
:class:`~repro.sim.network.Network`.

The mobility substrate is named by the free-form ``kind`` string and resolved
through the scenario registry (:mod:`repro.harness.scenarios`), the same way
protocols are resolved through :mod:`repro.protocols.registry`.  The built-in
kinds are ``"highway"``, ``"manhattan"``, ``"random_waypoint"``, ``"city"``
and ``"trace"``; plug-ins register more without touching this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Tuple

from repro.mobility.generator import TrafficDensity
from repro.mobility.highway import HighwayConfig
from repro.mobility.manhattan import ManhattanConfig
from repro.mobility.random_waypoint import RandomWaypointConfig
from repro.roadnet.city import CityConfig


@dataclass
class Scenario:
    """A complete simulation setting.

    Attributes:
        name: Label used in reports.
        kind: Mobility substrate, resolved by name through the scenario
            registry (``"highway"``, ``"manhattan"``, ``"random_waypoint"``,
            ``"city"``, ``"trace"``, or any registered plug-in kind).
        density: Traffic density regime (sparse / normal / congested).
        duration_s: Simulated time after which flows stop being evaluated.
        drain_s: Extra simulated time to let in-flight packets arrive.
        seed: Master random seed (mobility, radio, MAC and traffic all derive
            their streams from it).
        max_vehicles: Cap on the vehicle population (keeps congested runs
            tractable); ``None`` means no cap.
        highway / manhattan / city / waypoint: Mobility-model configurations
            (only the one matching ``kind`` is consulted).
        trace_path: FCD trace file driving a ``"trace"`` scenario.
        radio_stack: Radio/channel profile, resolved by name through the
            radio registry (:mod:`repro.radio.registry`): a kind such as
            ``"unit_disk"``, ``"shadowing"`` or ``"nakagami"``, or a preset
            such as ``"dsrc-urban-nlos"``.  ``None`` (the default) resolves
            to the ``ideal-disk-250m`` preset.
        radio_params: Keyword parameters handed to the radio builder (on
            top of a preset's own parameters), e.g. ``{"m": 1.0}`` for
            Rayleigh-depth ``nakagami`` fading.
        rsu_spacing_m: Distance between road-side units (``None`` = no RSUs).
        bus_count: Number of vehicles designated as buses (Bus-Ferry).
        workload: Application-traffic model, resolved by name through the
            workload registry (:mod:`repro.workloads`): a kind such as
            ``"cbr"`` (default), ``"poisson"``, ``"safety-beacon"``,
            ``"event-burst"``, ``"v2i"``, or a preset such as
            ``"safety-beacon-10hz"``.
        workload_params: Keyword parameters handed to the workload's
            constructor (on top of a preset's own parameters), e.g.
            ``{"flow_count": 2}`` or ``{"flows": [CbrFlow(...)]}`` for
            ``cbr``: traffic lives only in the workload.
        mobility_step_s: Mobility update interval.
        monitors: Observability probes attached to the run, resolved by
            name through the monitor registry (:mod:`repro.monitors`):
            kinds such as ``"latency-dist"``, ``"timeseries"``,
            ``"heatmap"``, ``"invariant"`` or presets such as
            ``"invariant-strict"``.  Empty (the default) leaves the sim
            core's event tap uninstalled, so unmonitored runs stay
            byte-identical and pay only a truthy check per event.
        monitor_params: Per-monitor keyword overrides, keyed by the name
            used in ``monitors`` (on top of a preset's own parameters).
    """

    name: str = "scenario"
    kind: str = "highway"
    density: TrafficDensity = TrafficDensity.NORMAL
    duration_s: float = 40.0
    drain_s: float = 3.0
    seed: int = 1
    max_vehicles: Optional[int] = 200
    highway: HighwayConfig = field(default_factory=HighwayConfig)
    manhattan: ManhattanConfig = field(default_factory=ManhattanConfig)
    city: CityConfig = field(default_factory=CityConfig)
    waypoint: RandomWaypointConfig = field(default_factory=RandomWaypointConfig)
    trace_path: Optional[str] = None
    radio_stack: Optional[str] = None
    radio_params: Dict[str, object] = field(default_factory=dict)
    rsu_spacing_m: Optional[float] = None
    bus_count: int = 0
    workload: str = "cbr"
    workload_params: Dict[str, object] = field(default_factory=dict)
    mobility_step_s: float = 0.5
    monitors: Tuple[str, ...] = ()
    monitor_params: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Tolerate enum-like kinds (e.g. code written against the retired
        # ``ScenarioKind`` enum): the registry is keyed by plain strings.
        if isinstance(self.kind, Enum):
            self.kind = str(self.kind.value)
        # A negative or non-finite horizon, or a negative vehicle cap, would
        # otherwise run "successfully" to a silent 0.0 delivery ratio (or,
        # for NaN, never stop).  Zero stays legal: a degenerate, empty run.
        for name in ("duration_s", "drain_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0 (got {value!r})")
        if self.max_vehicles is not None and self.max_vehicles < 0:
            raise ValueError(f"max_vehicles must be >= 0 (got {self.max_vehicles!r})")

    def with_overrides(self, **overrides) -> "Scenario":
        """A copy of this scenario with the given attributes replaced."""
        from dataclasses import replace

        return replace(self, **overrides)

    @classmethod
    def from_name(cls, spec: str, **overrides) -> "Scenario":
        """Resolve a named preset (or ``trace:<path>``) into a scenario.

        See :func:`repro.harness.scenarios.scenario_from_name` for the
        resolution rules; ``overrides`` are applied on top of the preset.
        """
        from repro.harness.scenarios import scenario_from_name

        return scenario_from_name(spec, **overrides)


def highway_scenario(
    density: TrafficDensity = TrafficDensity.NORMAL,
    name: Optional[str] = None,
    **overrides,
) -> Scenario:
    """Convenience constructor for a highway scenario at a given density."""
    scenario = Scenario(
        name=name if name is not None else f"highway-{density.value}",
        kind="highway",
        density=density,
    )
    return scenario.with_overrides(**overrides) if overrides else scenario


def manhattan_scenario(
    density: TrafficDensity = TrafficDensity.NORMAL,
    name: Optional[str] = None,
    **overrides,
) -> Scenario:
    """Convenience constructor for an urban-grid scenario at a given density."""
    scenario = Scenario(
        name=name if name is not None else f"manhattan-{density.value}",
        kind="manhattan",
        density=density,
    )
    return scenario.with_overrides(**overrides) if overrides else scenario


def city_scenario(
    density: TrafficDensity = TrafficDensity.NORMAL,
    name: Optional[str] = None,
    **overrides,
) -> Scenario:
    """Convenience constructor for a synthetic arterial+grid city scenario."""
    scenario = Scenario(
        name=name if name is not None else f"city-{density.value}",
        kind="city",
        density=density,
    )
    return scenario.with_overrides(**overrides) if overrides else scenario


def trace_scenario(
    trace_path: str,
    name: Optional[str] = None,
    **overrides,
) -> Scenario:
    """Convenience constructor for a trace-replay scenario.

    ``trace_path`` points at a CSV floating-car-data trace as written by
    :func:`repro.mobility.fcd_trace.write_fcd_trace` (or converted from a
    SUMO FCD export); the replay drives vehicle positions directly, so
    ``density`` and ``max_vehicles`` are ignored.
    """
    scenario = Scenario(
        name=name if name is not None else f"trace:{trace_path}",
        kind="trace",
        trace_path=trace_path,
    )
    return scenario.with_overrides(**overrides) if overrides else scenario
