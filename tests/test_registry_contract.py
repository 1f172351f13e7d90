"""The Registry contract, checked once over every registry instance.

Rule REG-001 lives here too: over the live classes, every concrete
protocol, workload and monitor class is registered, every registered kind
subclasses its base, and every builder takes what its registry passes.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import pytest

from repro.core.taxonomy import PROTOCOLS, Category
from repro.geometry import Vec2
from repro.harness.runner import ExperimentRunner
from repro.harness.scenario import Scenario
from repro.harness.scenarios import SCENARIOS, BuiltMobility, scenario_from_name
from repro.mobility.fcd_trace import FcdSample, write_fcd_trace
from repro.monitors import MONITORS, Monitor
from repro.protocols.base import RoutingProtocol
from repro.protocols.location import LocationService
from repro.protocols.registry import make_protocol_factory
from repro.radio.interference import NO_SIGNAL_DBM
from repro.radio.reception import ProbabilisticReception
from repro.radio.registry import RADIOS
from repro.radio.stack import RadioStack
from repro.registry import Registry
from repro.workloads import WORKLOADS, CbrWorkload, Workload
from repro.workloads.registry import with_traffic
from tests.helpers import caches_off
from tests.sim.test_medium_backends import normalized_records

SENTINEL = object()

#: Kind names the probes register under.
NAMES = ("zzz-probe", "aaa-probe")


@dataclass
class Case:
    """How to feed one registry well-formed probe kinds and presets."""

    registry: Registry[Any]
    make_kind: Callable[[], Any]
    preset_factory: Callable[..., Any]
    resolve_args: Tuple[Any, ...] = ()


def _class(base: type, **attrs: Any) -> Callable[[], type]:
    return lambda: type("Probe", (base,), {"__doc__": "Contract probe.", **attrs})


CASES = {
    "protocols": Case(
        PROTOCOLS,
        _class(RoutingProtocol, category=Category.GEOGRAPHIC, description="probe"),
        lambda *args, **params: SENTINEL,
    ),
    "scenarios": Case(
        SCENARIOS,
        lambda: (lambda scenario, rng: BuiltMobility(None)),
        lambda: Scenario(name="probe"),
    ),
    "workloads": Case(WORKLOADS, _class(CbrWorkload), lambda **params: SENTINEL),
    "radios": Case(
        RADIOS,
        lambda: (lambda rng, **params: RadioStack()),
        lambda rng, **params: RadioStack(),
        resolve_args=(None,),
    ),
    "monitors": Case(MONITORS, _class(Monitor), lambda **params: SENTINEL),
}


@pytest.fixture(params=list(CASES))
def case(request):
    case = CASES[request.param]
    kinds, presets = dict(case.registry.kinds), dict(case.registry.presets)
    yield case
    case.registry.kinds.clear()
    case.registry.kinds.update(kinds)
    case.registry.presets.clear()
    case.registry.presets.update(presets)


def test_duplicate_kind_or_preset_raises(case):
    name = NAMES[0]
    case.registry.register(name)(case.make_kind())
    with pytest.raises(ValueError, match="already registered"):
        case.registry.register(name)(case.make_kind())
    case.registry.register_preset("contract-preset", case.preset_factory, "probe")
    with pytest.raises(ValueError, match="already registered"):
        case.registry.register_preset("contract-preset", case.preset_factory, "again")


def test_register_stamps_name_and_unregister_removes(case):
    name = NAMES[0]
    kind = case.registry.register(name)(case.make_kind())
    assert case.registry[name] is kind
    if case.registry.name_attr is not None:
        assert getattr(kind, case.registry.name_attr) == name
    case.registry.register_preset("contract-preset", case.preset_factory, "probe")
    assert name in case.registry.names()
    assert "contract-preset" in case.registry.preset_names()
    case.registry.unregister(name)
    case.registry.unregister_preset("contract-preset")
    assert name not in case.registry
    assert "contract-preset" not in case.registry


def test_presets_win_over_kinds(case):
    name = NAMES[0]
    case.registry.register(name)(case.make_kind())
    case.registry.register_preset(name, lambda *args, **params: SENTINEL, "shadow")
    assert case.registry.resolve(name, *case.resolve_args) is SENTINEL


def test_unknown_spec_names_both_catalogues(case):
    case.registry.register(NAMES[0])(case.make_kind())
    case.registry.register_preset("contract-preset", case.preset_factory, "probe")
    with pytest.raises(KeyError) as excinfo:
        case.registry.resolve("no-such-thing")
    message = excinfo.value.args[0]
    assert f"unknown {case.registry.label} 'no-such-thing'" in message
    assert "registered kinds:" in message and NAMES[0] in message
    assert "presets:" in message and "contract-preset" in message


def test_non_kebab_preset_name_raises(case):
    for bad in ("Contract_Preset", "contract preset", "-contract", "contract--preset"):
        with pytest.raises(ValueError, match="kebab-case"):
            case.registry.register_preset(bad, case.preset_factory, "probe")
        assert bad not in case.registry


def test_rows_come_back_sorted(case):
    for name in NAMES:
        case.registry.register(name)(case.make_kind())
    for name in ("zzz-preset", "aaa-preset"):
        case.registry.register_preset(name, case.preset_factory, "probe")
    kind_rows = case.registry.kind_rows()
    assert [row[case.registry.column] for row in kind_rows] == case.registry.names()
    assert case.registry.names() == sorted(case.registry.kinds)
    preset_rows = case.registry.preset_rows()
    assert [row["preset"] for row in preset_rows] == sorted(case.registry.presets)
    assert all(row["description"] for row in preset_rows)


@pytest.mark.parametrize("name", PROTOCOLS.names())
def test_location_service_flag_matches_constructor(name):
    # The protocol factory passes `location_service=` exactly when the
    # class says so; a wrong flag is a TypeError or a silently private
    # per-node service.
    protocol_class = PROTOCOLS[name]
    accepts = "location_service" in inspect.signature(protocol_class.__init__).parameters
    assert protocol_class.uses_location_service is accepts


@pytest.mark.parametrize("name", WORKLOADS.names())
def test_traffic_keywords_are_constructor_keywords(name):
    # The CLI traffic flags land as these keywords; a wrong one is a
    # TypeError at run time, and an unknown setting a flag nobody reads.
    from repro.cli import TRAFFIC_FLAGS

    kind = WORKLOADS[name]
    assert set(kind.traffic_keywords) <= set(TRAFFIC_FLAGS)
    parameters = inspect.signature(kind.__init__).parameters
    assert all(keyword in parameters for keyword in kind.traffic_keywords.values())


# ------------------------------------------------- REG-001, over live classes
# A component class its package forgets to register cannot be named by a
# scenario or swept, and a builder whose signature drifts breaks every
# preset's keyword overrides.  Failures name the offending file and line.

#: Class registries: (package whose modules define the kinds, base, registry).
CLASS_CONTRACTS = {
    "protocols": ("repro.protocols", RoutingProtocol, PROTOCOLS),
    "workloads": ("repro.workloads", Workload, WORKLOADS),
    "monitors": ("repro.monitors", Monitor, MONITORS),
}


def _where(obj: Any) -> str:
    return f"{inspect.getsourcefile(obj)}:{inspect.getsourcelines(obj)[1]}"


def _defined_classes(package_name: str) -> List[type]:
    """Every class defined in the package's own modules."""
    package = importlib.import_module(package_name)
    modules = [package] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(package.__path__, package_name + ".")
    ]
    return [
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]


def _registration_gaps(
    classes: List[type], base: type, kinds: Dict[str, Any]
) -> List[Tuple[str, str]]:
    """``(name, file:line)`` of each concrete ``base`` subclass among
    ``classes`` that ``kinds`` lacks, and of each kind that does not
    subclass ``base``.  A class another of ``classes`` derives from is an
    intermediate base, not a component."""
    ancestors = {ancestor for cls in classes for ancestor in cls.__mro__[1:]}
    registered = list(kinds.values())
    unregistered = [
        (cls.__qualname__, _where(cls))
        for cls in classes
        if issubclass(cls, base) and cls is not base
        and cls not in ancestors and cls not in registered
    ]
    foreign = [
        (name, _where(kind))
        for name, kind in kinds.items()
        if not (isinstance(kind, type) and issubclass(kind, base))
    ]
    return unregistered + foreign


@pytest.mark.parametrize("label", sorted(CLASS_CONTRACTS))
def test_every_component_class_is_registered(label):
    package, base, registry = CLASS_CONTRACTS[label]
    assert _registration_gaps(_defined_classes(package), base, registry.kinds) == []


@pytest.mark.parametrize("base", [RoutingProtocol, Workload, Monitor])
def test_unregistered_leaf_is_a_gap(base):
    class Intermediate(base):
        pass

    class Leaf(Intermediate):
        pass

    class Forgotten(Intermediate):
        pass

    gaps = _registration_gaps([base, Intermediate, Leaf, Forgotten], base, {"leaf": Leaf})
    assert gaps == [(Forgotten.__qualname__, _where(Forgotten))]
    assert _where(Forgotten).startswith(f"{__file__}:")


@pytest.mark.parametrize("base", [RoutingProtocol, Workload, Monitor])
def test_kind_outside_its_base_is_a_gap(base):
    class Stranger:
        pass

    assert _registration_gaps([], base, {"odd": Stranger}) == [("odd", _where(Stranger))]


def _required(builder: Callable[..., Any]) -> List[inspect.Parameter]:
    """The parameters a caller of ``builder`` must pass, and any ``*args``."""
    return [
        parameter
        for parameter in inspect.signature(builder).parameters.values()
        if parameter.kind is parameter.VAR_POSITIONAL
        or (parameter.default is parameter.empty and parameter.kind is not parameter.VAR_KEYWORD)
    ]


def _positional(parameter: inspect.Parameter) -> bool:
    return parameter.kind in (parameter.POSITIONAL_ONLY, parameter.POSITIONAL_OR_KEYWORD)


def _takes_scenario_and_rng(builder: Callable[..., Any]) -> bool:
    required = _required(builder)
    return len(required) == 2 and all(map(_positional, required))


def _takes_rng_first(builder: Callable[..., Any]) -> bool:
    """``rng`` first, every other parameter defaulted: presets override any
    subset by keyword."""
    first = next(iter(inspect.signature(builder).parameters.values()), None)
    return first is not None and first.name == "rng" and _required(builder) == [first]


#: How each registry calls its kinds: monitors by keyword only, scenario
#: builders as ``(scenario, rng)``, radio builders as ``(rng, **params)``.
SIGNATURE_CONTRACTS: Dict[str, Tuple[Registry[Any], Callable[[Any], bool]]] = {
    "monitors": (MONITORS, lambda kind: not _required(kind)),
    "scenarios": (SCENARIOS, _takes_scenario_and_rng),
    "radios": (RADIOS, _takes_rng_first),
}


def _signature_breaches(label: str, kinds: Dict[str, Any]) -> List[Tuple[str, str]]:
    holds = SIGNATURE_CONTRACTS[label][1]
    return [(name, _where(kind)) for name, kind in kinds.items() if not holds(kind)]


@pytest.mark.parametrize("label", sorted(SIGNATURE_CONTRACTS))
def test_registered_builders_take_what_their_registry_passes(label):
    assert _signature_breaches(label, SIGNATURE_CONTRACTS[label][0].kinds) == []


class _UndefaultedMonitor(Monitor):
    def __init__(self, bucket_s):
        self.bucket_s = bucket_s


class _DefaultedMonitor(Monitor):
    def __init__(self, bucket_s=1.0, *, strict=False):
        self.bucket_s = bucket_s


@pytest.mark.parametrize(
    "label,kind,holds",
    [
        ("monitors", _UndefaultedMonitor, False),
        ("monitors", _DefaultedMonitor, True),
        ("scenarios", lambda scenario: None, False),
        ("scenarios", lambda scenario, rng: None, True),
        ("radios", lambda range_m, rng=None: None, False),
        ("radios", lambda rng, range_m: None, False),
        ("radios", lambda rng, range_m=250.0, *, tx_power_dbm=20.0: None, True),
    ],
    ids=[
        "monitor-undefaulted",
        "monitor-defaulted",
        "scenario-one-arg",
        "scenario-contract",
        "radio-rng-second",
        "radio-undefaulted-extra",
        "radio-contract",
    ],
)
def test_signature_breach_is_named(label, kind, holds):
    assert _signature_breaches(label, {"probe": kind}) == ([] if holds else [("probe", _where(kind))])
    assert _where(kind).startswith(f"{__file__}:")


# ------------------------------------------------- capability flags, checked
# The medium trusts two class-level promises of a radio stack: a
# `deterministic` reception model lets it reuse one receiver's decision for
# every receiver with equal inputs, and `constant_rx_profile` lets it fold
# interference into an interferer count.  A wrong flag changes
# results silently, so every registered stack is held to what it declares.

#: Every radio preset, and every kind at its default parameters.
RADIO_SPECS = RADIOS.preset_names() + RADIOS.names()

#: Received powers around the -92 dBm sensitivity, and interference levels
#: from a quiet channel to a strong concurrent frame.
RX_POWERS_DBM = [-1000.0, -120.0, -95.0, -92.5, -92.0, -91.5, -85.0, -70.0, -40.0]
INTERFERENCE_DBM = [NO_SIGNAL_DBM, -110.0, -95.0, -80.0, -60.0]
DISTANCES_M = [0.0, 1.0, 50.0, 249.9, 250.0, 250.1, 400.0, 1500.0]


def _stack(spec):
    """``(stack, the seeded stream it was built from)``."""
    rng = random.Random(20)
    return RADIOS.resolve(spec, rng), rng


@pytest.mark.parametrize("spec", RADIO_SPECS)
def test_deterministic_reception_is_a_pure_function(spec):
    stack, _ = _stack(spec)
    reception = stack.reception
    if not reception.deterministic:
        pytest.skip(f"{spec}: {type(reception).__name__} is not deterministic")
    stream = random.Random(7)
    before = stream.getstate()
    inputs = [(rx, i) for rx in RX_POWERS_DBM for i in INTERFERENCE_DBM]
    first = [reception.decide(rx, i, stream) for rx, i in inputs]
    second = [reception.decide(rx, i, stream) for rx, i in reversed(inputs)][::-1]
    assert first == second
    assert stream.getstate() == before
    assert [reception.decide(rx, i, None) for rx, i in inputs] == first
    assert {outcome.ok for outcome in first} == {True, False}


@pytest.mark.parametrize("spec", RADIO_SPECS)
def test_deterministic_propagation_returns_equal_powers(spec):
    stack, rng = _stack(spec)
    propagation = stack.propagation
    if not propagation.deterministic:
        pytest.skip(f"{spec}: {type(propagation).__name__} is not deterministic")
    before = rng.getstate()
    tx = stack.tx_power_dbm

    def powers():
        return [
            (
                propagation.rx_power_dbm(tx, Vec2(10.0, 5.0), Vec2(10.0 + d, 5.0)),
                propagation.rx_power_dbm_from_distance(tx, d),
            )
            for d in DISTANCES_M
        ]

    first = powers()
    assert powers() == first
    assert rng.getstate() == before


# ------------------------------------------- stepped position providers
# The medium trusts a third promise: while every registered position
# provider declares `stepped = True`, it reuses one in-range table per query
# position until the next mobility step.  A provider that moves between
# steps while claiming the flag would hand frames to stale neighbour sets,
# so every scenario kind is run and its stepped nodes watched mid-step.

#: Mobility steps the probe cell runs before the watched step (so traffic
#: is flowing and every model has stepped a few times).
WATCHED_STEP = 11


def _tiny_trace(path) -> str:
    """Three vehicles driving east at 12 m/s, one sample per second."""
    write_fcd_trace(
        path,
        [
            FcdSample(float(t), vid, 40.0 * vid + 12.0 * t, 5.0, 12.0, 0.0)
            for vid in range(3)
            for t in range(10)
        ],
    )
    return str(path)


@pytest.mark.parametrize("kind", SCENARIOS.names())
def test_stepped_providers_hold_still_between_mobility_steps(kind, tmp_path):
    scenario = Scenario(
        name=f"stepped-{kind}",
        kind=kind,
        max_vehicles=12,
        duration_s=8.0,
        drain_s=0.0,
        seed=4,
        rsu_spacing_m=400.0,
        trace_path=_tiny_trace(tmp_path / "trace.csv") if kind == "trace" else None,
    )
    built = ExperimentRunner().build(scenario)
    built.network.attach_protocols(
        make_protocol_factory(
            "Greedy",
            location_service=LocationService(built.network),
            road_graph=built.road_graph,
        )
    )
    WORKLOADS.resolve(scenario.workload, flow_count=2).build(
        scenario, built, built.sim.rng.stream("traffic")
    )
    nodes = [
        node
        for node in built.network.nodes.values()
        if getattr(node._position_provider, "stepped", False)
    ]
    assert nodes, f"{kind}: no stepped node to watch"
    snapshots = []
    step = scenario.mobility_step_s
    # Two instants inside one mobility step, then one after the next step.
    for offset in (0.2, 0.8, 1.5):
        built.sim.schedule_at(
            (WATCHED_STEP + offset) * step,
            lambda: snapshots.append([node.position for node in nodes]),
        )
    built.network.start()
    built.sim.run(until=(WATCHED_STEP + 2) * step)
    early, late, next_step = snapshots
    moved = [node.node_id for node, a, b in zip(nodes, early, late) if a != b]
    assert not moved, f"{kind}: stepped nodes {moved} moved between mobility steps"
    # The watched window is not vacuous: the next step does move vehicles.
    assert next_step != late, f"{kind}: no vehicle moved across a mobility step"


# ------------------------------------------------ caches on == caches off
# The range tables (kept and built from recorded positions while every
# provider is `stepped`), decision reuse (taken while the reception model is
# `deterministic`) and the count-fold with its bulk broadcast settlement
# (taken on hard-edge channels) are shortcuts: with all of them switched off
# by `tests.helpers.caches_off`, every kind and workload must produce the
# same run as with them on.  Traced runs compare their event traces; untraced
# runs take the bulk broadcast path and compare their summaries.


def _cache_cell(kind, workload, traced, trace_path):
    scenario = Scenario(
        name=f"caches-{kind}",
        kind=kind,
        max_vehicles=12,
        duration_s=6.0,
        drain_s=0.5,
        seed=4,
        rsu_spacing_m=400.0,
        workload=workload,
        trace_path=trace_path if kind == "trace" else None,
    )
    return _run_cache_cell(with_traffic(scenario, {"flows": 2}), traced)


def _run_cache_cell(scenario, traced):
    built = ExperimentRunner(trace_enabled=traced, trace_max_records=200_000).build(scenario)
    built.network.attach_protocols(
        make_protocol_factory(
            "Greedy",
            location_service=LocationService(built.network),
            road_graph=built.road_graph,
        )
    )
    WORKLOADS.resolve(scenario.workload, **scenario.workload_params).build(
        scenario, built, built.sim.rng.stream("traffic")
    )
    built.network.start()
    built.sim.run(until=scenario.duration_s + scenario.drain_s)
    return normalized_records(built.trace), built.stats.summary()


def _same_with_caches_off(cell, label):
    records, summary = cell()
    assert summary["data_sent"] > 0, f"{label}: no traffic"
    with caches_off():
        uncached = cell()
    assert uncached == (records, summary), f"{label}: caches changed the run"
    return records


@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize("workload", ["cbr", "safety-beacon"])
@pytest.mark.parametrize("kind", SCENARIOS.names())
def test_caches_on_and_off_give_the_same_trace(kind, workload, traced, tmp_path):
    trace_path = _tiny_trace(tmp_path / "trace.csv")
    records = _same_with_caches_off(
        lambda: _cache_cell(kind, workload, traced, trace_path), f"{kind}/{workload}"
    )
    assert bool(records) == traced, f"{kind}: trace recording is {traced}"


#: Hard-edge stacks whose levels are not the default's: 23 dBm is a
#: non-integer number of mW, so the interference folds run through real
#: rounding; probabilistic reception draws from the RNG per receiver.  They
#: run on the congested city core, where hundreds of frames overlap.
HARD_EDGE_STACKS = {
    "unit-disk-23dbm": {"tx_power_dbm": 23.0},
    "unit-disk-23dbm-probabilistic": {
        "tx_power_dbm": 23.0,
        "reception": ProbabilisticReception(),
    },
}


@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize("workload", ["cbr", "safety-beacon-10hz"])
@pytest.mark.parametrize("stack", sorted(HARD_EDGE_STACKS))
def test_caches_on_and_off_agree_on_hard_edge_stacks(stack, workload, traced):
    scenario = scenario_from_name(
        "city-core-1km-congested",
        seed=4,
        duration_s=1.5,
        drain_s=0.2,
        max_vehicles=60,
        workload=workload,
        workload_params={"start_time_s": 0.3},
        radio_stack="unit_disk",
        radio_params=HARD_EDGE_STACKS[stack],
    )
    _same_with_caches_off(lambda: _run_cache_cell(scenario, traced), f"{stack}/{workload}")


# ----------------------------------------------------------- stdlib-only core
# The package needs nothing outside the standard library: networkx and numpy
# are test oracles only.  A fresh interpreter builds one preset of every
# scenario kind (a trace file for ``trace``) and runs a short CAR cell on it,
# which walks the road graph and queries road paths where there is one.
_STDLIB_CORE_SCRIPT = """
import sys
from repro.harness.runner import ExperimentRunner
from repro.harness.scenarios import SCENARIOS, scenario_from_name

specs = {"trace": "trace:" + sys.argv[1]}
for name in SCENARIOS.preset_names():
    specs.setdefault(SCENARIOS.resolve(name).kind, name)
assert sorted(specs) == sorted(SCENARIOS.names()), specs
for kind, spec in specs.items():
    scenario = scenario_from_name(
        spec, seed=1, duration_s=3.0, drain_s=0.5, max_vehicles=20,
        workload_params={"flow_count": 2, "start_time_s": 1.0},
    )
    result = ExperimentRunner().run(scenario, "CAR")
    assert result.summary["data_sent"] > 0, kind
print(sorted(name for name in ("networkx", "numpy") if name in sys.modules))
"""


def test_every_scenario_kind_runs_without_networkx_or_numpy(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", _STDLIB_CORE_SCRIPT, _tiny_trace(tmp_path / "trace.csv")],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
