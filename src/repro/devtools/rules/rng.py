"""RNG-001: every random draw must come from the simulator's seeded streams.

The reproducibility contract (see :mod:`repro.sim.rng`) is that *all*
randomness derives from ``scenario.seed`` through named
``sim.rng.stream(...)`` streams.  Three spellings break it:

* ``random.Random(0)`` (or any constant seed) -- a fixed-seed fallback
  that silently ignores ``scenario.seed``;
* ``random.Random()`` / ``random.SystemRandom()`` -- unseeded entropy;
* module-level ``random.random()`` / ``numpy.random.*`` -- process-global
  RNG state shared across runs and perturbed by unrelated callers.

``random.Random(expr)`` with a *non-constant* seed is allowed: that is how
seeds are threaded (:func:`repro.sim.rng.RandomStreams.stream` itself, the
generator helpers' explicit ``seed=`` parameters).  ``sim/rng.py`` is the
one module allowed to construct streams.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator

from repro.devtools.astutils import dotted_name
from repro.devtools.base import LintRule, ParsedModule
from repro.devtools.findings import SEVERITY_ERROR, Finding
from repro.devtools.registry import LINT_RULES

#: The module allowed to construct ``random.Random`` instances.
STREAM_FACTORY_MODULE = "sim/rng.py"

#: ``random.<fn>`` calls that draw from (or reset) the shared global RNG.
GLOBAL_RANDOM_FUNCS: FrozenSet[str] = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)


@LINT_RULES.register("RNG-001")
class SeededRngRule(LintRule):
    """Unseeded, fixed-seed, or module-global RNG outside ``sim/rng.py``."""

    severity = SEVERITY_ERROR
    rationale = (
        "randomness must flow from scenario.seed via sim.rng.stream(...); "
        "fixed-seed fallbacks and module-global RNGs silently ignore the seed"
    )
    historical_bug = (
        "PR 2: random-waypoint mobility seeded from a fixed Random(0) fallback "
        "while scenario.seed was ignored -- every seed produced the same motion"
    )

    def check_module(self, module: ParsedModule) -> Iterator[Finding]:
        if module.relpath == STREAM_FACTORY_MODULE:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = dotted_name(node.func, module.imports)
            if qualified is None:
                continue
            if qualified == "random.Random":
                positional = [a for a in node.args if not isinstance(a, ast.Starred)]
                if not node.args and not node.keywords:
                    yield self.report(
                        module,
                        node,
                        "unseeded random.Random(); thread a stream from "
                        "sim.rng.stream(...) so draws derive from scenario.seed",
                    )
                elif positional and isinstance(positional[0], ast.Constant):
                    yield self.report(
                        module,
                        node,
                        "random.Random with a constant seed ignores scenario.seed; "
                        "thread the simulation's seeded stream "
                        "(sim.rng.stream(...)) instead",
                    )
            elif qualified == "random.SystemRandom":
                yield self.report(
                    module,
                    node,
                    "random.SystemRandom draws OS entropy and is never "
                    "reproducible; use a seeded stream from sim.rng",
                )
            elif qualified.startswith("random."):
                func = qualified.split(".", 1)[1]
                if func in GLOBAL_RANDOM_FUNCS:
                    yield self.report(
                        module,
                        node,
                        f"module-level random.{func}() uses the process-global "
                        "RNG; draw from a named sim.rng.stream(...) instead",
                    )
            elif qualified.startswith("numpy.random."):
                yield self.report(
                    module,
                    node,
                    "numpy.random module-level state is process-global and "
                    "unseeded per run; pass a seeded generator derived from "
                    "the run's streams instead",
                )
