"""The Registry contract, checked once over every registry instance."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Tuple

import pytest

from repro.core.taxonomy import PROTOCOLS, Category
from repro.devtools.base import LintRule
from repro.devtools.registry import LINT_RULES
from repro.harness.scenario import Scenario
from repro.harness.scenarios import SCENARIOS, BuiltMobility
from repro.monitors import MONITORS, Monitor
from repro.protocols.base import RoutingProtocol
from repro.radio.registry import RADIOS
from repro.radio.stack import RadioStack
from repro.registry import KEBAB_CASE, Registry
from repro.workloads import WORKLOADS, CbrWorkload

SENTINEL = object()


@dataclass
class Case:
    """How to feed one registry well-formed probe kinds and presets."""

    registry: Registry[Any]
    make_kind: Callable[[], Any]
    preset_factory: Callable[..., Any]
    names: Tuple[str, str] = ("zzz-probe", "aaa-probe")
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
    "lint-rules": Case(
        LINT_RULES,
        _class(LintRule, rationale="probe"),
        lambda **params: SENTINEL,
        names=("ZZZ-901", "AAA-901"),
    ),
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
    name = case.names[0]
    case.registry.register(name)(case.make_kind())
    with pytest.raises(ValueError, match="already registered"):
        case.registry.register(name)(case.make_kind())
    case.registry.register_preset("contract-preset", case.preset_factory, "probe")
    with pytest.raises(ValueError, match="already registered"):
        case.registry.register_preset("contract-preset", case.preset_factory, "again")


def test_register_stamps_name_and_unregister_removes(case):
    name = case.names[0]
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
    name = case.names[0]
    case.registry.register(name)(case.make_kind())
    if KEBAB_CASE.match(name) is None:
        # This registry's kind names are never valid preset names, so no
        # preset can shadow one.
        with pytest.raises(ValueError, match="kebab-case"):
            case.registry.register_preset(name, case.preset_factory, "shadow")
        return
    case.registry.register_preset(name, lambda *args, **params: SENTINEL, "shadow")
    assert case.registry.resolve(name, *case.resolve_args) is SENTINEL


def test_unknown_spec_names_both_catalogues(case):
    case.registry.register(case.names[0])(case.make_kind())
    case.registry.register_preset("contract-preset", case.preset_factory, "probe")
    with pytest.raises(KeyError) as excinfo:
        case.registry.resolve("no-such-thing")
    message = excinfo.value.args[0]
    assert f"unknown {case.registry.label} 'no-such-thing'" in message
    assert "registered kinds:" in message and case.names[0] in message
    assert "presets:" in message and "contract-preset" in message


def test_non_kebab_preset_name_raises(case):
    for bad in ("Contract_Preset", "contract preset", "-contract", "contract--preset"):
        with pytest.raises(ValueError, match="kebab-case"):
            case.registry.register_preset(bad, case.preset_factory, "probe")
        assert bad not in case.registry


def test_rows_come_back_sorted(case):
    for name in case.names:
        case.registry.register(name)(case.make_kind())
    for name in ("zzz-preset", "aaa-preset"):
        case.registry.register_preset(name, case.preset_factory, "probe")
    kind_rows = case.registry.kind_rows()
    assert [row[case.registry.column] for row in kind_rows] == case.registry.names()
    assert case.registry.names() == sorted(case.registry.kinds)
    preset_rows = case.registry.preset_rows()
    assert [row["preset"] for row in preset_rows] == sorted(case.registry.presets)
    assert all(row["description"] for row in preset_rows)
