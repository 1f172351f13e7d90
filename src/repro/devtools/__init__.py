"""Static-analysis devtools: the determinism & registry-contract linter.

The platform's core promise -- byte-identical traces across runs,
serial-vs-parallel sweeps, and radio presets -- rests on a small set of
authoring-time invariants (all randomness flows from :mod:`repro.sim.rng`,
no ambient wall-clock or environment state in the simulation core, every
pluggable component is registered).  Historically those invariants
were tribal knowledge enforced by regression tests after the fact; this
package makes them machine-checked at authoring time.

The linter is an AST pass over plain source text (stdlib :mod:`ast`, no
third-party dependencies) with a pluggable rule registry
(:data:`~repro.devtools.registry.LINT_RULES`):

>>> from repro.devtools import lint_paths
>>> report = lint_paths(["src/repro"])
>>> report.clean
True

Run it from the command line as ``python -m repro.devtools.lint src/repro``
or via the CLI verbs ``repro-vanet lint`` / ``repro-vanet list lint-rules``.
Violations that are genuinely inert are suppressed per line with a
justified pragma::

    rng = random.Random(0)  # repro-lint: ok RNG-001 -- catalogue listing only

See the README's "Static analysis" section for the rule catalogue.
"""

from __future__ import annotations

from repro.devtools.base import LintRule, ParsedModule, ProjectContext
from repro.devtools.engine import LintReport, lint_paths, lint_sources
from repro.devtools.findings import SEVERITY_ERROR, SEVERITY_WARNING, Finding
from repro.devtools.registry import LINT_RULES

__all__ = [
    "Finding",
    "LINT_RULES",
    "LintReport",
    "LintRule",
    "ParsedModule",
    "ProjectContext",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "lint_paths",
    "lint_sources",
]
