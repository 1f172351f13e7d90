"""The lint engine: discover files, parse once, run rules, apply pragmas.

Two entry points:

* :func:`lint_paths` lints files and directory trees on disk (what the
  CLI and CI call);
* :func:`lint_sources` lints an in-memory ``{relpath: text}`` mapping
  (what the rule tests use for fixtures, and what the historical-bug
  regression tests use to lint *modified* copies of real modules).

Both return a :class:`LintReport` whose findings are sorted by
``(path, line, rule id)`` and already filtered through the per-line
suppression pragmas of :mod:`repro.devtools.pragmas`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.devtools import rules as _builtin_rules  # noqa: F401  (registration)
from repro.devtools.astutils import ImportMap
from repro.devtools.base import LintRule, ParsedModule, ProjectContext
from repro.devtools.findings import SEVERITY_ERROR, SEVERITY_WARNING, Finding
from repro.devtools.pragmas import extract_pragmas
from repro.devtools.registry import LINT_RULES

#: Rule id the engine uses for malformed pragmas (see rules/meta.py).
MALFORMED_PRAGMA_RULE = "LINT-001"
#: Rule id the engine uses for unparsable files (see rules/meta.py).
PARSE_ERROR_RULE = "LINT-002"


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding]
    file_count: int

    @property
    def clean(self) -> bool:
        """True when no finding survived suppression."""
        return not self.findings

    @property
    def error_count(self) -> int:
        return sum(1 for f in self.findings if f.severity == SEVERITY_ERROR)

    @property
    def warning_count(self) -> int:
        return sum(1 for f in self.findings if f.severity == SEVERITY_WARNING)

    def to_dict(self) -> Dict[str, object]:
        """JSON-reporter representation."""
        return {
            "files": self.file_count,
            "clean": self.clean,
            "errors": self.error_count,
            "warnings": self.warning_count,
            "findings": [finding.to_dict() for finding in self.findings],
        }


def _package_relpath(file: Path, root: Path) -> str:
    """Package-relative path: the suffix after the last ``repro`` component
    when the file lives inside the package, else the path relative to the
    lint root (fixture trees), else the bare file name."""
    resolved = file.resolve()
    parts = resolved.parts
    if "repro" in parts:
        anchor = len(parts) - 1 - tuple(reversed(parts)).index("repro")
        relative = parts[anchor + 1 :]
        if relative:
            return "/".join(relative)
    try:
        return resolved.relative_to(root.resolve()).as_posix()
    except ValueError:
        return file.name


def iter_python_files(paths: Sequence[str]) -> List[Tuple[Path, Path]]:
    """``(file, root)`` pairs for every ``.py`` file under ``paths``, sorted.

    ``root`` is the directory the file was discovered from (the argument
    itself for directories, the parent for explicit files); it anchors
    relative display paths for trees outside the ``repro`` package.
    """
    found: List[Tuple[Path, Path]] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.extend((file, path) for file in sorted(path.rglob("*.py")))
        else:
            found.append((path, path.parent))
    return found


def _parse(path: str, relpath: str, text: str) -> "ParsedModule | Finding":
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        return Finding(
            path=relpath,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule_id=PARSE_ERROR_RULE,
            message=f"file does not parse: {exc.msg}",
            severity=SEVERITY_ERROR,
        )
    return ParsedModule(
        path=path,
        relpath=relpath,
        text=text,
        tree=tree,
        imports=ImportMap.from_tree(tree),
    )


def _instantiate_rules(select: Optional[Iterable[str]]) -> List[LintRule]:
    if select is None:
        chosen = LINT_RULES.names()
    else:
        chosen = sorted(set(select))
        unknown = [rule_id for rule_id in chosen if rule_id not in LINT_RULES.kinds]
        if unknown:
            raise KeyError(
                f"unknown lint rule(s): {', '.join(unknown)}; "
                f"registered: {', '.join(LINT_RULES.names())}"
            )
    return [LINT_RULES[rule_id]() for rule_id in chosen]


def _run(
    modules: List[ParsedModule],
    parse_failures: List[Finding],
    select: Optional[Iterable[str]],
) -> LintReport:
    rules = _instantiate_rules(select)
    selected_ids: Set[str] = {rule.rule_id for rule in rules}
    raw: List[Finding] = [
        failure for failure in parse_failures if failure.rule_id in selected_ids
    ]
    for module in modules:
        for rule in rules:
            raw.extend(rule.check_module(module))
    project = ProjectContext(modules)
    for rule in rules:
        raw.extend(rule.check_project(project))

    kept: List[Finding] = []
    known_ids = LINT_RULES.names()
    for module in modules:
        pragmas, pragma_errors = extract_pragmas(module.text, known_ids)
        if MALFORMED_PRAGMA_RULE in selected_ids:
            kept.extend(
                Finding(
                    path=module.relpath,
                    line=error.line,
                    col=error.col,
                    rule_id=MALFORMED_PRAGMA_RULE,
                    message=error.message,
                    severity=SEVERITY_ERROR,
                )
                for error in pragma_errors
            )
        for finding in raw:
            if finding.path != module.relpath:
                continue
            if any(p.suppresses(finding.rule_id, finding.line) for p in pragmas):
                continue
            kept.append(finding)
    module_paths = {module.relpath for module in modules}
    kept.extend(f for f in raw if f.path not in module_paths)

    kept.sort(key=lambda f: (f.path, f.line, f.rule_id, f.col))
    return LintReport(findings=kept, file_count=len(modules) + len(parse_failures))


def lint_paths(
    paths: Sequence[str], select: Optional[Iterable[str]] = None
) -> LintReport:
    """Lint files and directory trees on disk.

    Args:
        paths: Files and/or directories; directories are walked for
            ``*.py`` recursively.
        select: Optional iterable of rule ids to run (default: all).
    """
    modules: List[ParsedModule] = []
    parse_failures: List[Finding] = []
    for file, root in iter_python_files(paths):
        text = file.read_text(encoding="utf-8")
        parsed = _parse(str(file), _package_relpath(file, root), text)
        if isinstance(parsed, Finding):
            parse_failures.append(parsed)
        else:
            modules.append(parsed)
    return _run(modules, parse_failures, select)


def lint_sources(
    sources: Mapping[str, str], select: Optional[Iterable[str]] = None
) -> LintReport:
    """Lint an in-memory ``{relpath: source text}`` mapping.

    Relpaths are taken verbatim (use package-relative paths such as
    ``mobility/highway.py`` so path-scoped rules apply as they would on
    the real tree).
    """
    modules: List[ParsedModule] = []
    parse_failures: List[Finding] = []
    for relpath in sorted(sources):
        parsed = _parse(relpath, relpath, sources[relpath])
        if isinstance(parsed, Finding):
            parse_failures.append(parsed)
        else:
            modules.append(parsed)
    return _run(modules, parse_failures, select)
