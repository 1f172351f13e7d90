"""Rule base class and the parsed-module / project contexts rules see.

The abstract contract lives here, the registry in
:mod:`repro.devtools.registry`, and the concrete rules under
:mod:`repro.devtools.rules` register themselves with
``@LINT_RULES.register``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import ClassVar, Iterator, List

from repro.devtools.astutils import ImportMap
from repro.devtools.findings import SEVERITY_ERROR, Finding


@dataclass
class ParsedModule:
    """One source file, parsed once and shared by every rule.

    Attributes:
        path: The path as given on the command line (for error messages).
        relpath: Package-relative posix path (``mobility/highway.py``);
            rules scope themselves by its prefix and findings report it.
        text: The raw source text.
        tree: The parsed AST.
        imports: Import bindings for dotted-name resolution.
    """

    path: str
    relpath: str
    text: str
    tree: ast.Module
    imports: ImportMap = field(default_factory=ImportMap)

    def finding(
        self, node: ast.AST, rule_id: str, message: str, severity: str
    ) -> Finding:
        """A finding anchored at ``node``'s location in this module."""
        return Finding(
            path=self.relpath,
            line=int(getattr(node, "lineno", 1)),
            col=int(getattr(node, "col_offset", 0)),
            rule_id=rule_id,
            message=message,
            severity=severity,
        )


@dataclass
class ProjectContext:
    """Every module of one lint run, for cross-file (registry) rules."""

    modules: List[ParsedModule]


class LintRule:
    """A single lint rule.

    Subclasses set the class attributes, register via
    ``@LINT_RULES.register("<ID>")`` (which stamps ``rule_id``), and
    implement :meth:`check_module` for per-file checks and/or
    :meth:`check_project` for cross-file checks.  ``rationale`` is the
    one-line catalogue entry; ``historical_bug`` names the real bug in this
    repository the rule would have caught at authoring time.
    """

    rule_id: ClassVar[str] = ""
    severity: ClassVar[str] = SEVERITY_ERROR
    rationale: ClassVar[str] = ""
    historical_bug: ClassVar[str] = ""

    def check_module(self, module: ParsedModule) -> Iterator[Finding]:
        """Per-file findings (default: none)."""
        return iter(())

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        """Cross-file findings over the whole lint run (default: none)."""
        return iter(())

    def report(self, module: ParsedModule, node: ast.AST, message: str) -> Finding:
        """Shorthand for a finding of this rule at ``node``."""
        return module.finding(node, self.rule_id, message, self.severity)
