"""The scenario registry: mobility-substrate kinds and named scenario presets.

The harness refers to scenario kinds by name and resolves them through
:data:`SCENARIOS`, so adding a scenario is a registry entry rather than a
code change in the runner.

* **Kinds** map a ``kind`` string to a :class:`MobilityBuilder`: a callable
  that turns a :class:`~repro.harness.scenario.Scenario` plus the
  simulator's ``"mobility"`` random stream into live mobility (and,
  optionally, the road graph and RSU positions that go with it).  The
  built-in kinds are ``highway``, ``manhattan``, ``random_waypoint``,
  ``city`` (synthetic arterial+grid topology) and ``trace`` (FCD trace
  replay).
* **Presets** map a human-friendly name such as ``city-grid-2km-sparse`` to
  a ready-made :class:`Scenario`.

:func:`scenario_from_name` resolves presets, bare kind names, and the
``trace:<path>`` shorthand, and is what the CLI's ``--scenario`` flag and
the benchmarks use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.geometry import Vec2
from repro.harness.scenario import (
    Scenario,
    city_scenario,
    highway_scenario,
    manhattan_scenario,
    trace_scenario,
)
from repro.mobility.fcd_trace import TraceReplayMobility, read_fcd_trace
from repro.mobility.generator import (
    TrafficDensity,
    make_city_scenario,
    make_highway_scenario,
    make_manhattan_scenario,
)
from repro.mobility.random_waypoint import RandomWaypointMobility
from repro.roadnet.city import CityConfig, build_city_graph, place_city_rsus
from repro.roadnet.graph import RoadGraph
from repro.roadnet.grid import build_highway_graph, build_manhattan_graph
from repro.roadnet.rsu_placement import place_along_highway, place_at_intersections
from repro.mobility.highway import HighwayConfig
from repro.registry import Preset, Registry, Row


@dataclass
class BuiltMobility:
    """What a scenario builder hands back to the runner.

    Attributes:
        mobility: The live mobility model (must expose ``vehicles`` and
            ``step(dt, now)``).
        road_graph: Road topology for map-aware protocols (CAR, GVGrid);
            ``None`` when the substrate has no road network.
        rsu_positions: Road-side-unit positions honouring the scenario's
            ``rsu_spacing_m`` (empty when the scenario deploys none).
    """

    mobility: object
    road_graph: Optional[RoadGraph] = None
    rsu_positions: List[Vec2] = field(default_factory=list)


#: A builder takes the scenario plus the simulator's seeded ``"mobility"``
#: random stream and returns the instantiated substrate.
MobilityBuilder = Callable[[Scenario, random.Random], BuiltMobility]


def _preset_columns(preset: Preset) -> Row:
    """Scenario preset rows show the built scenario's kind and density."""
    scenario = preset.build()
    return {"kind": scenario.kind, "density": scenario.density.value}


#: A bare kind resolves to a default-parameter scenario of that kind.
SCENARIOS: Registry[MobilityBuilder] = Registry(
    "scenario",
    column="kind",
    instantiate=lambda name, builder: Scenario(name=name, kind=name),
    preset_columns=_preset_columns,
)


def build_mobility(scenario: Scenario, rng: random.Random) -> BuiltMobility:
    """Resolve ``scenario.kind`` through the registry and build the substrate.

    Args:
        scenario: The scenario description.
        rng: The simulator's ``"mobility"`` stream; every stochastic choice a
            builder makes (placement, desired speeds, turn decisions) must
            draw from it so runs are reproducible per scenario seed.
    """
    return SCENARIOS[scenario.kind](scenario, rng)


# ------------------------------------------------------------ built-in kinds
@SCENARIOS.register("highway")
def _build_highway(scenario: Scenario, rng: random.Random) -> BuiltMobility:
    """IDM + MOBIL ring highway (the paper's introduction scenario)."""
    mobility = make_highway_scenario(
        scenario.density,
        config=scenario.highway,
        max_vehicles=scenario.max_vehicles,
        rng=rng,
    )
    graph = build_highway_graph(scenario.highway.length_m)
    rsus: List[Vec2] = []
    if scenario.rsu_spacing_m is not None:
        rsus = place_along_highway(scenario.highway.length_m, scenario.rsu_spacing_m)
    return BuiltMobility(mobility, graph, rsus)


@SCENARIOS.register("manhattan")
def _build_manhattan(scenario: Scenario, rng: random.Random) -> BuiltMobility:
    """Uniform urban grid with random turns at intersections."""
    mobility = make_manhattan_scenario(
        scenario.density,
        config=scenario.manhattan,
        max_vehicles=scenario.max_vehicles,
        rng=rng,
    )
    graph = build_manhattan_graph(
        scenario.manhattan.blocks_x,
        scenario.manhattan.blocks_y,
        scenario.manhattan.block_size_m,
    )
    rsus: List[Vec2] = []
    if scenario.rsu_spacing_m is not None:
        block = scenario.manhattan.block_size_m
        every_k = max(1, int(round(scenario.rsu_spacing_m / block)))
        rsus = place_at_intersections(graph, every_k=every_k)
    return BuiltMobility(mobility, graph, rsus)


@SCENARIOS.register("random_waypoint")
def _build_random_waypoint(scenario: Scenario, rng: random.Random) -> BuiltMobility:
    """The classic MANET baseline on an open rectangle (no road network)."""
    mobility = RandomWaypointMobility(scenario.waypoint, rng=rng)
    count = scenario.max_vehicles if scenario.max_vehicles is not None else 50
    for _ in range(count):
        mobility.add_vehicle()
    return BuiltMobility(mobility)


@SCENARIOS.register("city")
def _build_city(scenario: Scenario, rng: random.Random) -> BuiltMobility:
    """Synthetic arterial+grid city driven by graph-walk mobility."""
    graph = build_city_graph(scenario.city)
    mobility = make_city_scenario(
        scenario.density,
        config=scenario.city,
        max_vehicles=scenario.max_vehicles,
        rng=rng,
        graph=graph,
    )
    rsus: List[Vec2] = []
    if scenario.rsu_spacing_m is not None:
        rsus = place_city_rsus(scenario.city, graph, scenario.rsu_spacing_m)
    return BuiltMobility(mobility, graph, rsus)


@SCENARIOS.register("trace")
def _build_trace(scenario: Scenario, rng: random.Random) -> BuiltMobility:
    """Replay of a recorded (or SUMO-style) floating-car-data trace.

    The trace fixes every vehicle's motion, so the mobility stream is unused
    and ``density`` / ``max_vehicles`` are ignored.
    """
    if not scenario.trace_path:
        raise ValueError(
            "a 'trace' scenario needs trace_path "
            "(use trace_scenario(path) or the 'trace:<path>' preset syntax)"
        )
    samples = read_fcd_trace(scenario.trace_path)
    return BuiltMobility(TraceReplayMobility(samples))


# ----------------------------------------------------------------- presets
def scenario_from_name(spec: str, **overrides) -> Scenario:
    """Resolve a scenario by string, the way the CLI's ``--scenario`` does.

    Resolution order for ``spec``:

    1. ``trace:<path>`` builds a trace-replay scenario for that file.
    2. A registered preset name.
    3. A bare registered kind (``"city"``, ``"highway"``, ...) with default
       parameters.

    ``overrides`` are scenario attributes applied on top via
    :meth:`~repro.harness.scenario.Scenario.with_overrides` (including
    ``name=...`` to relabel the result).
    """
    if spec.startswith("trace:"):
        path = spec[len("trace:"):]
        if not path:
            raise ValueError("trace:<path> needs a file path after the colon")
        scenario = trace_scenario(path)
    elif spec in SCENARIOS:
        scenario = SCENARIOS.resolve(spec)
    else:
        raise KeyError(f"{SCENARIOS.unknown(spec)}; or use trace:<path>")
    return scenario.with_overrides(**overrides) if overrides else scenario


def _register_builtin_presets() -> None:
    def highway_preset(density: TrafficDensity):
        def factory() -> Scenario:
            return highway_scenario(density, name=f"highway-2km-{density.value}")

        return factory

    def long_highway_preset(density: TrafficDensity):
        def factory() -> Scenario:
            return highway_scenario(
                density,
                name=f"highway-10km-{density.value}",
                highway=HighwayConfig(length_m=10_000.0),
                max_vehicles=600,
                rsu_spacing_m=2_000.0,
            )

        return factory

    def manhattan_preset(density: TrafficDensity):
        def factory() -> Scenario:
            return manhattan_scenario(density, name=f"manhattan-800m-{density.value}")

        return factory

    def city_preset(density: TrafficDensity):
        def factory() -> Scenario:
            return city_scenario(
                density,
                name=f"city-grid-2km-{density.value}",
                city=CityConfig(blocks_x=10, blocks_y=10, block_size_m=200.0),
                max_vehicles=400,
                rsu_spacing_m=1_000.0,
            )

        return factory

    def city_core_preset() -> Scenario:
        return city_scenario(
            TrafficDensity.CONGESTED,
            name="city-core-1km-congested",
            city=CityConfig(blocks_x=5, blocks_y=5, block_size_m=200.0, arterial_every=5),
            max_vehicles=300,
            rsu_spacing_m=500.0,
        )

    def waypoint_preset() -> Scenario:
        return Scenario(name="rwp-1km-normal", kind="random_waypoint", max_vehicles=50)

    for density in TrafficDensity:
        SCENARIOS.register_preset(
            f"highway-2km-{density.value}",
            highway_preset(density),
            f"2 km bidirectional IDM highway, {density.value} traffic",
        )
        SCENARIOS.register_preset(
            f"manhattan-800m-{density.value}",
            manhattan_preset(density),
            f"4x4-block Manhattan grid, {density.value} traffic",
        )
        SCENARIOS.register_preset(
            f"city-grid-2km-{density.value}",
            city_preset(density),
            f"2x2 km arterial+grid city with RSUs on arterials, {density.value} traffic",
        )
    SCENARIOS.register_preset(
        "highway-10km-congested",
        long_highway_preset(TrafficDensity.CONGESTED),
        "10 km highway at congested density with RSUs every 2 km (up to 600 vehicles)",
    )
    SCENARIOS.register_preset(
        "city-core-1km-congested",
        city_core_preset,
        "1x1 km congested city core with dense RSU coverage",
    )
    SCENARIOS.register_preset(
        "rwp-1km-normal",
        waypoint_preset,
        "random-waypoint MANET baseline on a 1x1 km field (50 nodes)",
    )


_register_builtin_presets()


__all__ = [
    "BuiltMobility",
    "MobilityBuilder",
    "SCENARIOS",
    "build_mobility",
    "scenario_from_name",
]
