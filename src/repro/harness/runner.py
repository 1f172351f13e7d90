"""Turn a :class:`~repro.harness.scenario.Scenario` into a simulation run.

The runner builds the mobility model, the network, the radio and the
infrastructure, attaches the requested protocol to every node, hands traffic
generation to the scenario's workload (resolved by name through
:mod:`repro.workloads`), runs the simulation and returns the collected
metrics.

Every pluggable dimension of a run resolves through a registry: the mobility
substrate (``SCENARIOS``), the routing protocol (``PROTOCOLS``), the traffic
workload (``WORKLOADS``), the radio stack (``RADIOS``) and the attached
monitors (``MONITORS``).
The runner itself hardcodes none of them.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.mobility.vehicle import VehiclePositionProvider
from repro.monitors import MONITORS
from repro.monitors.base import Monitor
from repro.monitors.telemetry import TelemetrySink, resolve_sink, telemetry_line
from repro.protocols.base import ProtocolConfig
from repro.protocols.location import LocationService
from repro.protocols.registry import make_protocol_factory
from repro.radio.registry import DEFAULT_RADIO, stack_for_scenario
from repro.roadnet.graph import RoadGraph
from repro.sim.engine import Simulator
from repro.sim.medium import WirelessMedium
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import Node
from repro.sim.statistics import StatsCollector
from repro.sim.trace import EventTrace
from repro.store.schema import (
    RECORD_SCHEMA_VERSION,
    check_record_fields,
    check_record_schema_version,
)
from repro.harness.scenario import Scenario
from repro.harness.scenarios import build_mobility
from repro.workloads import WORKLOADS


@dataclass
class RunRecord:
    """Slim, picklable outcome of one (scenario, protocol, seed) run.

    This is the unit of data the parallel sweep layer ships between worker
    processes and persists to JSON/CSV: it carries the metric dictionaries
    but not the live :class:`~repro.sim.statistics.StatsCollector` (which
    references simulation objects and is expensive to serialise).
    """

    scenario_name: str
    protocol: str
    seed: int
    summary: Dict[str, float]
    extra: Dict[str, float] = field(default_factory=dict)
    flow_details: List[Dict[str, float]] = field(default_factory=list)
    vehicle_count: int = 0
    rsu_count: int = 0
    wall_clock_s: float = 0.0
    workload: str = "cbr"
    radio: str = DEFAULT_RADIO

    @property
    def metrics(self) -> Dict[str, float]:
        """Summary and derived metrics merged into one flat dictionary."""
        merged = dict(self.summary)
        merged.update(self.extra)
        return merged

    def row(self) -> Dict[str, float]:
        """Flat row (scenario + protocol + workload + radio + seed + metrics)."""
        row: Dict[str, float] = {
            "scenario": self.scenario_name,
            "protocol": self.protocol,
            "workload": self.workload,
            "radio": self.radio,
            "seed": self.seed,
            "vehicles": self.vehicle_count,
            "rsus": self.rsu_count,
        }
        row.update(self.metrics)
        return row

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation (see :func:`from_dict`).

        Stamped with the current record ``schema_version`` so persisted
        artifacts (sweep JSON, the experiment store's record log) stay
        self-describing; :meth:`from_dict` rejects versions it does not
        know how to parse.
        """
        payload = asdict(self)
        payload["schema_version"] = RECORD_SCHEMA_VERSION
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunRecord":
        """Rebuild a record written by :meth:`to_dict`.

        Accepts the known schema versions (an unstamped payload is the
        legacy version 1) and raises ``ValueError`` on anything newer --
        silently field-picking a future layout would fabricate defaults
        instead of data.
        """
        check_record_schema_version(payload, "RunRecord payload")
        return cls(
            scenario_name=str(payload["scenario_name"]),
            protocol=str(payload["protocol"]),
            seed=int(payload["seed"]),
            summary=dict(payload.get("summary", {})),
            extra=dict(payload.get("extra", {})),
            flow_details=[dict(flow) for flow in payload.get("flow_details", [])],
            vehicle_count=int(payload.get("vehicle_count", 0)),
            rsu_count=int(payload.get("rsu_count", 0)),
            wall_clock_s=float(payload.get("wall_clock_s", 0.0)),
            workload=str(payload.get("workload", "cbr")),
            radio=str(payload.get("radio", DEFAULT_RADIO)),
        )


# The persisted layout must be the catalogued one (rule SCHEMA-001).
check_record_fields(RunRecord)


@dataclass
class RunResult:
    """Outcome of one (scenario, protocol) run."""

    scenario_name: str
    protocol: str
    summary: Dict[str, float]
    stats: StatsCollector
    flow_details: List[Dict[str, float]] = field(default_factory=list)
    vehicle_count: int = 0
    rsu_count: int = 0
    wall_clock_s: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)
    seed: int = 0
    workload: str = "cbr"
    radio: str = DEFAULT_RADIO

    @property
    def delivery_ratio(self) -> float:
        """Aggregate packet delivery ratio of the run."""
        return self.summary["delivery_ratio"]

    @property
    def overhead_ratio(self) -> float:
        """Control transmissions per delivered data packet."""
        return self.summary["overhead_ratio"]

    def row(self) -> Dict[str, float]:
        """Flat row (scenario + protocol + workload + radio + metrics)."""
        row: Dict[str, float] = {
            "scenario": self.scenario_name,
            "protocol": self.protocol,
            "workload": self.workload,
            "radio": self.radio,
            "vehicles": self.vehicle_count,
            "rsus": self.rsu_count,
        }
        row.update(self.summary)
        row.update(self.extra)
        return row

    def to_record(self) -> RunRecord:
        """The slim, picklable form of this result (drops the stats object)."""
        return RunRecord(
            scenario_name=self.scenario_name,
            protocol=self.protocol,
            seed=self.seed,
            summary=dict(self.summary),
            extra=dict(self.extra),
            flow_details=[dict(flow) for flow in self.flow_details],
            vehicle_count=self.vehicle_count,
            rsu_count=self.rsu_count,
            wall_clock_s=self.wall_clock_s,
            workload=self.workload,
            radio=self.radio,
        )


class BuiltScenario:
    """A scenario instantiated into live simulation objects (pre-run)."""

    def __init__(
        self,
        scenario: Scenario,
        sim: Simulator,
        network: Network,
        stats: StatsCollector,
        vehicle_nodes: List[Node],
        road_graph: Optional[RoadGraph],
        trace: EventTrace,
        radio_range_m: float,
        radio_name: str = DEFAULT_RADIO,
        monitors: Sequence["Monitor"] = (),
        telemetry_sink: Optional["TelemetrySink"] = None,
        telemetry_owned: bool = False,
    ) -> None:
        self.scenario = scenario
        self.sim = sim
        self.network = network
        self.stats = stats
        self.vehicle_nodes = vehicle_nodes
        self.road_graph = road_graph
        self.trace = trace
        #: Monitor probes bound to this run (empty for unmonitored runs);
        #: the runner finalizes them after ``sim.run`` and merges their
        #: summaries into ``RunResult.extra``.
        self.monitors: Tuple["Monitor", ...] = tuple(monitors)
        #: Telemetry sink the monitors emit into, and whether this build
        #: created it (and must therefore close it after the run).
        self.telemetry_sink = telemetry_sink
        self.telemetry_owned = telemetry_owned
        #: Nominal radio range of the run's resolved radio stack, cached at
        #: build time (the shadowed models solve it by bisection).  This is
        #: the range workloads must use for reachability denominators and
        #: ideal-hop estimates.
        self.radio_range_m = radio_range_m
        #: Registry name the run's radio stack resolved from; recorded in
        #: run records so results stay attributable to the stack actually
        #: built (no parallel re-resolution that could drift).
        self.radio_name = radio_name
        #: Lower-bound hop count sampled at each packet-send instant, keyed
        #: by the packet's end-to-end identity (``Packet.flow_key``); used by
        #: :meth:`ExperimentRunner._derive_extra` to estimate the path
        #: stretch.  Lives here (not on the runner) so that reusing one
        #: runner across runs can never leak samples between runs.
        self.ideal_hop_samples: Dict[Tuple, float] = {}


class ExperimentRunner:
    """Build and run scenarios."""

    def __init__(self, trace_enabled: bool = False, trace_max_records: int = 50_000) -> None:
        self.trace_enabled = trace_enabled
        self.trace_max_records = trace_max_records

    # ------------------------------------------------------------------ build
    def build(
        self,
        scenario: Scenario,
        telemetry=None,
        run_context: Optional[Dict[str, object]] = None,
    ) -> BuiltScenario:
        """Instantiate the mobility, radio, network and infrastructure of a scenario.

        ``telemetry`` is a sink spec for monitor JSONL telemetry (a path,
        callable, :class:`~repro.monitors.telemetry.TelemetrySink`, or
        ``None``); it is only consulted when ``scenario.monitors`` is
        non-empty.  ``run_context`` carries extra fields (e.g. the
        protocol name) for the ``run_start`` telemetry header.
        """
        sim = Simulator(seed=scenario.seed)
        stats = StatsCollector()
        trace = EventTrace(enabled=self.trace_enabled, max_records=self.trace_max_records)
        # The radio stack is resolved through the radio registry
        # (repro.radio.registry) -- scenario.radio_stack by name, or the
        # default preset; random channel models draw from the simulator's
        # "radio" stream.
        radio_stack = stack_for_scenario(scenario, sim.rng.stream("radio"))
        # Monitor probes resolve by name through the monitor registry and
        # attach to the sim core via the event tap.  This happens *before*
        # the network is populated so probes observe the initial node_join
        # events; with no monitors the tap stays None and the sim core
        # pays only a truthy check per event.
        monitors: List[Monitor] = []
        telemetry_sink: Optional[TelemetrySink] = None
        telemetry_owned = False
        if scenario.monitors:
            from repro.sim.tap import EventTap

            telemetry_sink, telemetry_owned = resolve_sink(telemetry)
            for name in scenario.monitors:
                params = dict(scenario.monitor_params.get(name, {}))
                monitors.append(MONITORS.resolve(name, **params))
            for monitor in monitors:
                monitor.bind(stats, telemetry_sink)
            stats.tap = EventTap(sim, monitors)
            if telemetry_sink is not None:
                context = dict(run_context or {})
                telemetry_sink.write(
                    telemetry_line(
                        "run_start",
                        0.0,
                        "harness",
                        scenario=scenario.name,
                        seed=scenario.seed,
                        workload=scenario.workload,
                        radio=radio_stack.name,
                        monitors=list(scenario.monitors),
                        **context,
                    )
                )
        medium = WirelessMedium(
            sim,
            stack=radio_stack,
            stats=stats,
            trace=trace,
        )
        # The scenario kind is resolved through the scenario registry
        # (repro.harness.scenarios); every builder draws its stochastic
        # choices from the simulator's "mobility" stream.
        built_mobility = build_mobility(scenario, sim.rng.stream("mobility"))
        mobility = built_mobility.mobility
        road_graph = built_mobility.road_graph
        network = Network(
            sim,
            medium=medium,
            stats=stats,
            mobility=mobility,
            config=NetworkConfig(mobility_step=scenario.mobility_step_s),
            trace=trace,
        )
        vehicle_nodes: List[Node] = []
        for index, vehicle in enumerate(mobility.vehicles):
            provider = VehiclePositionProvider(vehicle)
            if index < scenario.bus_count:
                node = network.add_bus(provider)
            else:
                node = network.add_vehicle(provider)
            node.tx_power_dbm = radio_stack.tx_power_dbm
            vehicle_nodes.append(node)
        for position in built_mobility.rsu_positions:
            rsu = network.add_rsu(position)
            rsu.tx_power_dbm = radio_stack.tx_power_dbm
        return BuiltScenario(
            scenario,
            sim,
            network,
            stats,
            vehicle_nodes,
            road_graph,
            trace,
            radio_range_m=radio_stack.nominal_range_m(),
            radio_name=radio_stack.name,
            monitors=monitors,
            telemetry_sink=telemetry_sink,
            telemetry_owned=telemetry_owned,
        )

    # -------------------------------------------------------------------- run
    def run(
        self,
        scenario: Scenario,
        protocol_name: str,
        protocol_config: Optional[ProtocolConfig] = None,
        telemetry=None,
    ) -> RunResult:
        """Run ``protocol_name`` through ``scenario`` and return the metrics.

        Application traffic comes from the scenario's workload: the ``cbr``
        default schedules the classic random-pair unicast flows, while any
        other registered kind or preset (``safety-beacon``, ``v2i``, ...)
        schedules its own traffic shape through the same protocol API.
        ``telemetry`` forwards a monitor telemetry sink spec (path,
        callable, or sink -- only consulted when ``scenario.monitors`` is
        non-empty).
        """
        started_wall = time.perf_counter()
        built = self.build(
            scenario,
            telemetry=telemetry,
            run_context={"protocol": protocol_name},
        )
        location_service = LocationService(
            built.network, rng=built.sim.rng.stream("location")
        )
        factory = make_protocol_factory(
            protocol_name,
            config=protocol_config,
            location_service=location_service,
            road_graph=built.road_graph,
        )
        built.network.attach_protocols(factory)
        workload = WORKLOADS.resolve(scenario.workload, **dict(scenario.workload_params))
        # Workloads draw from the simulator's "traffic" stream -- the stream
        # the pre-registry runner used -- so default cbr runs reproduce
        # pre-redesign schedules seed for seed.
        flows = workload.build(scenario, built, built.sim.rng.stream("traffic"))
        built.network.start()
        built.sim.run(until=scenario.duration_s + scenario.drain_s)
        summary = built.stats.summary()
        extra = self._derive_extra(built, flows)
        extra.update(workload.extra_metrics(built))
        # Monitor teardown: flush probes, merge their summaries, close an
        # owned sink.  The invariant probe hard-fails here on violations;
        # the sink is closed either way so partial telemetry survives.
        try:
            for monitor in built.monitors:
                extra.update(monitor.finalize(built.sim.now))
            if built.telemetry_sink is not None:
                built.telemetry_sink.write(
                    telemetry_line("run_end", built.sim.now, "harness")
                )
        finally:
            if built.telemetry_owned and built.telemetry_sink is not None:
                built.telemetry_sink.close()
        result = RunResult(
            scenario_name=scenario.name,
            protocol=protocol_name,
            summary=summary,
            stats=built.stats,
            flow_details=[
                {
                    "flow_id": float(flow.flow_id),
                    "delivery_ratio": flow.delivery_ratio,
                    "mean_delay_s": flow.mean_delay,
                    "mean_hops": flow.mean_hops,
                }
                for flow in built.stats.flows.values()
            ],
            vehicle_count=len(built.vehicle_nodes),
            rsu_count=len(built.network.rsus),
            wall_clock_s=time.perf_counter() - started_wall,
            extra=extra,
            seed=scenario.seed,
            workload=scenario.workload,
            radio=built.radio_name,
        )
        return result

    def _derive_extra(
        self, built: BuiltScenario, flows: List[Dict[str, float]]
    ) -> Dict[str, float]:
        extra: Dict[str, float] = {}
        samples = built.ideal_hop_samples
        if flows and samples:
            extra["mean_ideal_hops"] = sum(samples.values()) / len(samples)
            # The stretch must compare like with like: ``mean_hops`` only
            # covers delivered packets, so the ideal-hop denominator is
            # restricted to the same delivered population (dividing by the
            # all-sent mean deflated the stretch whenever long-distance
            # packets were the ones that got lost).
            delivered = [
                samples[key]
                for flow in built.stats.flows.values()
                for key in flow.delivered_keys
                if key in samples
            ]
            measured = built.stats.mean_hops
            if measured > 0 and delivered:
                mean_delivered_ideal = sum(delivered) / len(delivered)
                extra["path_stretch"] = (
                    measured / mean_delivered_ideal if mean_delivered_ideal > 0 else 0.0
                )
            else:
                extra["path_stretch"] = 0.0
        return extra
