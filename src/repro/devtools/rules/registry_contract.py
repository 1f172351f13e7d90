"""REG-001: every pluggable component honours its registry's contract.

Cross-file checks over the whole lint run:

* every concrete ``RoutingProtocol`` subclass under ``protocols/`` carries
  a ``@register_protocol`` decoration, every concrete ``Workload`` subclass
  under ``workloads/`` a ``@WORKLOADS.register`` one and every concrete
  ``Monitor`` subclass under ``monitors/`` a ``@MONITORS.register`` one
  (classes that other classes subclass are intermediate bases and exempt),
  and every decorated class really subclasses its base;
* a registered monitor's ``__init__`` defaults every parameter after
  ``self`` so presets and ``MONITORS.resolve`` can override any subset by
  keyword;
* ``@SCENARIOS.register`` builders accept exactly the contract signature
  ``(scenario, rng)``;
* ``@RADIOS.register`` builders take ``rng`` first with every other
  parameter defaulted (so presets can override any subset by keyword).

Preset names are not checked here: ``Registry.register_preset`` rejects a
non-kebab-case name at registration time.

The checks are syntactic (AST only, nothing imported), so they run on any
tree -- including test fixtures -- without executing registry side effects.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.base import LintRule, ParsedModule, ProjectContext
from repro.devtools.findings import SEVERITY_ERROR, Finding
from repro.devtools.registry import LINT_RULES


@dataclass(frozen=True)
class _Contract:
    """Which classes under ``directory`` must carry which registration."""

    directory: str
    base: str
    decorator: str
    consequence: str
    interface: str


_CONTRACTS = (
    _Contract(
        "protocols/",
        "RoutingProtocol",
        "register_protocol",
        "unregistered protocols cannot be named by scenarios or swept",
        "the RoutingProtocol per-node interface",
    ),
    _Contract(
        "workloads/",
        "Workload",
        "WORKLOADS.register",
        "unregistered workloads cannot be named by scenarios or swept",
        "the Workload build(scenario, built, rng) interface",
    ),
    _Contract(
        "monitors/",
        "Monitor",
        "MONITORS.register",
        "unregistered monitors cannot be attached by name via "
        "Scenario.monitors or --monitor",
        "the event-tap on_* hook interface",
    ),
)


@dataclass
class _ClassFact:
    module: ParsedModule
    node: ast.ClassDef
    bases: Tuple[str, ...]
    decorators: Tuple[str, ...]


@dataclass
class _ProjectFacts:
    """Everything REG-001 needs, gathered in one pass over the project."""

    classes: Dict[str, _ClassFact] = field(default_factory=dict)
    base_names: Set[str] = field(default_factory=set)


def _decorator_name(node: ast.expr) -> Optional[str]:
    """Dotted name of a decorator, call or not (``WORKLOADS.register``,
    ``register_protocol``), or None."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        owner = _decorator_name(node.value)
        return f"{owner}.{node.attr}" if owner is not None else node.attr
    return None


def _decorated_with(decorators: Tuple[str, ...], wanted: str) -> bool:
    """True when one decorator is ``wanted`` itself or a qualified spelling
    of it (``taxonomy.register_protocol``)."""
    return any(name == wanted or name.endswith("." + wanted) for name in decorators)


def _base_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _required_positional(args: ast.arguments) -> List[ast.arg]:
    """Positional parameters without defaults, in declaration order."""
    positional = list(args.posonlyargs) + list(args.args)
    defaulted = len(args.defaults)
    return positional[: len(positional) - defaulted] if defaulted else positional


@LINT_RULES.register("REG-001")
class RegistryContractRule(LintRule):
    """Unregistered components and builder contract drift."""

    severity = SEVERITY_ERROR
    rationale = (
        "every concrete protocol/workload/monitor is registered and "
        "scenario/radio/monitor builders match their registry's call contract"
    )
    historical_bug = (
        "PR 5: a radio builder that took its overrides positionally broke "
        "every preset's keyword-override path until the signature was fixed "
        "in review"
    )

    # ------------------------------------------------------------- gather
    def _gather(self, project: ProjectContext) -> _ProjectFacts:
        facts = _ProjectFacts()
        for module in project.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    bases = tuple(
                        name
                        for name in (_base_name(base) for base in node.bases)
                        if name is not None
                    )
                    decorators = tuple(
                        name
                        for name in (
                            _decorator_name(dec) for dec in node.decorator_list
                        )
                        if name is not None
                    )
                    facts.classes.setdefault(
                        node.name, _ClassFact(module, node, bases, decorators)
                    )
                    facts.base_names.update(bases)
        return facts

    def _subclasses(
        self, facts: _ProjectFacts, name: str, target: str
    ) -> Optional[bool]:
        """Whether class ``name`` has ``target`` in its (named) MRO; None
        when a base outside the linted files hides the answer."""
        seen: Set[str] = set()
        stack = [name]
        resolved = True
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            if current == target:
                return True
            fact = facts.classes.get(current)
            if fact is None:
                resolved = False
            else:
                stack.extend(fact.bases)
        return False if resolved else None

    # ------------------------------------------------------------- checks
    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        facts = self._gather(project)
        for contract in _CONTRACTS:
            yield from self._check_registration(facts, contract)
        for module in project.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from self._check_builder_signature(module, node)

    def _check_registration(
        self, facts: _ProjectFacts, contract: _Contract
    ) -> Iterator[Finding]:
        for name, fact in sorted(facts.classes.items()):
            if not fact.module.relpath.startswith(contract.directory):
                continue
            is_component = (
                False if name == contract.base else self._subclasses(facts, name, contract.base)
            )
            registered = _decorated_with(fact.decorators, contract.decorator)
            if is_component and not registered and name not in facts.base_names:
                yield self.report(
                    fact.module,
                    fact.node,
                    f"concrete {contract.base} subclass {name} lacks "
                    f"@{contract.decorator}(...); {contract.consequence}",
                )
            elif registered and is_component is False:
                yield self.report(
                    fact.module,
                    fact.node,
                    f"@{contract.decorator} on {name}, which does not subclass "
                    f"{contract.base}; the registry contract requires "
                    f"{contract.interface}",
                )
            if registered and contract.base == "Monitor":
                yield from self._check_monitor_init(fact)

    def _check_monitor_init(self, fact: _ClassFact) -> Iterator[Finding]:
        """Registered monitors must default every __init__ parameter."""
        for statement in fact.node.body:
            if (
                not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
                or statement.name != "__init__"
            ):
                continue
            required = _required_positional(statement.args)
            undefaulted_kwonly = [
                arg
                for arg, default in zip(
                    statement.args.kwonlyargs, statement.args.kw_defaults
                )
                if default is None
            ]
            # ``self`` is the one allowed undefaulted parameter.
            if len(required) > 1 or undefaulted_kwonly or statement.args.vararg:
                yield self.report(
                    fact.module,
                    statement,
                    f"monitor builder {fact.node.name}.__init__ must default "
                    "every parameter after self, so MONITORS.resolve and "
                    "presets can override any subset by keyword",
                )

    def _check_builder_signature(
        self, module: ParsedModule, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        decorators = tuple(
            name
            for name in (_decorator_name(dec) for dec in node.decorator_list)
            if name is not None
        )
        if _decorated_with(decorators, "SCENARIOS.register"):
            required = _required_positional(node.args)
            if len(required) != 2 or node.args.vararg is not None:
                yield self.report(
                    module,
                    node,
                    f"scenario builder {node.name} must accept exactly "
                    "(scenario, rng) -- the MobilityBuilder contract the "
                    "runner calls it with",
                )
        if _decorated_with(decorators, "RADIOS.register"):
            positional = list(node.args.posonlyargs) + list(node.args.args)
            required = _required_positional(node.args)
            undefaulted_kwonly = [
                arg
                for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                if default is None
            ]
            if (
                not positional
                or positional[0].arg != "rng"
                or len(required) > 1
                or undefaulted_kwonly
            ):
                yield self.report(
                    module,
                    node,
                    f"radio builder {node.name} must take the seeded 'rng' "
                    "stream first and default every other parameter, so "
                    "presets can override any subset by keyword",
                )
