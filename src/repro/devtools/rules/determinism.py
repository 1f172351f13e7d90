"""DET-001 / DET-002: no ambient state or unordered iteration in the core.

DET-001 flags wall-clock and environment reads (``time.time``,
``datetime.now``, ``os.environ`` / ``os.getenv``) inside the simulation
core: anything the event loop or a protocol reads from the host machine
makes two runs of the same seed diverge.  Wall-clock *measurement* of a
finished run (``wall_clock_s`` in the harness layer) is out of scope --
the rule only covers the deterministic-core packages.

DET-002 flags iteration over syntactically-unordered collections (set
literals, ``set(...)`` / ``frozenset(...)`` calls, set-algebra method
results) in the same packages.  Set iteration order depends on insertion
history and -- for strings -- ``PYTHONHASHSEED``; feeding it into event
scheduling or trace emission is a cross-process determinism hazard.
Wrapping the expression in ``sorted(...)`` satisfies the rule.  The check
is syntactic: it cannot see a set behind a plain variable name, so it
enforces the *authoring idiom* (build ordered sequences at the source).
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, Tuple

from repro.devtools.astutils import dotted_name
from repro.devtools.base import LintRule, ParsedModule
from repro.devtools.findings import SEVERITY_ERROR, SEVERITY_WARNING, Finding
from repro.devtools.registry import LINT_RULES

#: The deterministic core: packages where a run's behaviour must be a pure
#: function of (scenario, seed).  The harness layer (wall-clock timing,
#: worker-count env vars) is intentionally outside it.
DETERMINISTIC_CORE_PREFIXES: Tuple[str, ...] = (
    "sim/",
    "protocols/",
    "workloads/",
    "mobility/",
    "radio/",
    "roadnet/",
)

#: Calls that read ambient wall-clock state.
_CLOCK_CALLS: FrozenSet[str] = frozenset(
    {
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

#: Set-algebra methods whose results iterate in hash order.
_SET_ALGEBRA_METHODS: FrozenSet[str] = frozenset(
    {"difference", "intersection", "symmetric_difference", "union"}
)


def _in_core(module: ParsedModule) -> bool:
    return module.relpath.startswith(DETERMINISTIC_CORE_PREFIXES)


@LINT_RULES.register("DET-001")
class AmbientStateRule(LintRule):
    """Wall-clock or environment reads inside the deterministic core."""

    severity = SEVERITY_ERROR
    rationale = (
        "time.time/datetime.now/os.environ inside sim//protocols//workloads/ "
        "make a run depend on the host instead of (scenario, seed)"
    )
    historical_bug = (
        "the seed's PeriodicTask jitter debugging relied on wall-clock prints "
        "that masked the off-centre jitter distribution fixed in PR 1"
    )

    def check_module(self, module: ParsedModule) -> Iterator[Finding]:
        if not _in_core(module):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                qualified = dotted_name(node.func, module.imports)
                if qualified in _CLOCK_CALLS:
                    yield self.report(
                        module,
                        node,
                        f"{qualified}() reads the wall clock inside the "
                        "deterministic core; simulation time is sim.now, "
                        "wall-clock measurement belongs in the harness",
                    )
                elif qualified == "os.getenv":
                    yield self.report(
                        module,
                        node,
                        "os.getenv() inside the deterministic core makes run "
                        "behaviour depend on the host environment; thread "
                        "configuration through Scenario fields instead",
                    )
            elif isinstance(node, ast.Attribute):
                if dotted_name(node, module.imports) == "os.environ":
                    yield self.report(
                        module,
                        node,
                        "os.environ read inside the deterministic core; "
                        "thread configuration through Scenario fields instead",
                    )


@LINT_RULES.register("DET-002")
class UnorderedIterationRule(LintRule):
    """Iteration over syntactically-unordered sets in the core."""

    severity = SEVERITY_WARNING
    rationale = (
        "set iteration order depends on insertion history and PYTHONHASHSEED; "
        "feeding it into scheduling or trace emission forks runs -- iterate "
        "sorted(...) or an insertion-ordered sequence"
    )
    historical_bug = (
        "PR 4's frozen event-burst scopes originally iterated a raw receiver "
        "set, reordering app-layer sends between otherwise identical runs"
    )

    def check_module(self, module: ParsedModule) -> Iterator[Finding]:
        if not _in_core(module):
            return
        for node in ast.walk(module.tree):
            iterables = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iterables.extend(gen.iter for gen in node.generators)
            for iterable in iterables:
                reason = self._unordered_reason(iterable)
                if reason is not None:
                    yield self.report(
                        module,
                        iterable,
                        f"iteration over {reason} visits elements in hash "
                        "order; wrap it in sorted(...) or build an ordered "
                        "sequence at the source",
                    )

    @staticmethod
    def _unordered_reason(node: ast.expr) -> "str | None":
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return f"a {func.id}(...) result"
            if isinstance(func, ast.Attribute) and func.attr in _SET_ALGEBRA_METHODS:
                return f"a .{func.attr}(...) result"
        return None
