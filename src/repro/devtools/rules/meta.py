"""Engine-level rules: pragma hygiene and parse failures.

These two rules have no ``check_module`` body -- the engine itself emits
their findings (malformed pragmas are discovered during suppression
handling, parse errors before any rule runs) -- but they are registered
here so suppression bookkeeping, ``--select`` filtering and the
``list lint-rules`` catalogue treat them exactly like ordinary rules.
"""

from __future__ import annotations

from repro.devtools.base import LintRule
from repro.devtools.findings import SEVERITY_ERROR
from repro.devtools.registry import LINT_RULES


@LINT_RULES.register("LINT-001")
class MalformedPragmaRule(LintRule):
    """A suppression pragma that does not parse or lacks a justification."""

    severity = SEVERITY_ERROR
    rationale = (
        "suppressions must name a registered rule and carry a reason "
        "('# repro-lint: ok <ID> -- <why>'); anything else suppresses nothing"
    )
    historical_bug = (
        "unjustified blanket suppressions are how the fixed-Random(0) mobility "
        "fallback survived review in the seed"
    )


@LINT_RULES.register("LINT-002")
class ParseErrorRule(LintRule):
    """A file that does not parse cannot be linted (or imported)."""

    severity = SEVERITY_ERROR
    rationale = "files the linter cannot parse are reported, never skipped"
    historical_bug = ""
