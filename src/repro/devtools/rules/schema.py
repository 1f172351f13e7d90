"""SCHEMA-001/002: schema-stamped formats must version their layout changes.

SCHEMA-001: record-layout changes must bump the record schema version.

The experiment store persists every :class:`~repro.harness.runner.RunRecord`
to disk with an explicit ``schema_version`` stamp, and readers refuse
payloads stamped with a version they do not know
(:func:`repro.store.schema.check_record_schema_version`).  That contract
only protects anyone if the stamp actually moves when the layout moves.

This cross-file rule pins the two ends together syntactically:

* the ``RunRecord`` dataclass field list in ``harness/runner.py`` must
  equal the ``RECORD_FIELDS`` catalogue entry for the current
  ``RECORD_SCHEMA_VERSION`` in ``store/schema.py`` -- so changing the
  record layout without bumping the version (and cataloguing the new
  layout) fails the lint, not a collaborator's resume;
* the catalogue itself must contain the current version and cover every
  version contiguously from 1 -- gaps would make the "known versions"
  error message lie.

SCHEMA-002 applies the same discipline to the streaming monitor telemetry
(:mod:`repro.monitors.telemetry`): ``TELEMETRY_FIELDS`` must be a literal
catalogue containing the current ``TELEMETRY_SCHEMA_VERSION``, covering
every version contiguously from 1, and every version's envelope must keep
the ``v`` key (without it :func:`check_telemetry_schema_version` cannot
even identify the line's format).

Purely syntactic (AST only); when either module is absent from the lint
run (partial trees, test fixtures) the rule stays silent.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.devtools.base import LintRule, ParsedModule, ProjectContext
from repro.devtools.findings import SEVERITY_ERROR, Finding
from repro.devtools.registry import LINT_RULES

#: Where the persisted-record schema contract lives.
SCHEMA_RELPATH = "store/schema.py"
#: Where the RunRecord dataclass lives.
RUNNER_RELPATH = "harness/runner.py"
#: Where the streaming telemetry schema contract lives.
TELEMETRY_RELPATH = "monitors/telemetry.py"


def _int_constant(node: ast.expr) -> Optional[int]:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    return None


def _str_tuple(node: ast.expr) -> Optional[Tuple[str, ...]]:
    """The value of a tuple/list literal of string constants, or None."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    names: List[str] = []
    for element in node.elts:
        if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
            return None
        names.append(element.value)
    return tuple(names)


def _assign_value(node: ast.stmt, name: str) -> Optional[ast.expr]:
    """The assigned expression when ``node`` binds ``name``, else None."""
    if isinstance(node, ast.AnnAssign):
        if isinstance(node.target, ast.Name) and node.target.id == name:
            return node.value
    elif isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == name:
                return node.value
    return None


def _dataclass_fields(node: ast.ClassDef) -> Tuple[str, ...]:
    """Annotated field names of a dataclass body, in declaration order.

    ``ClassVar`` annotations are not dataclass fields and are skipped.
    """
    names: List[str] = []
    for statement in node.body:
        if not isinstance(statement, ast.AnnAssign):
            continue
        if not isinstance(statement.target, ast.Name):
            continue
        annotation = statement.annotation
        base = annotation.value if isinstance(annotation, ast.Subscript) else annotation
        label = base.id if isinstance(base, ast.Name) else (
            base.attr if isinstance(base, ast.Attribute) else None
        )
        if label == "ClassVar":
            continue
        names.append(statement.target.id)
    return tuple(names)


@LINT_RULES.register("SCHEMA-001")
class RecordSchemaVersionRule(LintRule):
    """RunRecord layout drift without a RECORD_SCHEMA_VERSION bump."""

    severity = SEVERITY_ERROR
    rationale = (
        "the persisted RunRecord layout is pinned to RECORD_SCHEMA_VERSION: "
        "changing the dataclass fields requires bumping the version and "
        "cataloguing the new layout in RECORD_FIELDS"
    )
    historical_bug = (
        "PR 9: the first experiment-store draft stamped records with a "
        "schema version but nothing tied the stamp to the RunRecord layout; "
        "a field added later would have silently produced v2-stamped records "
        "that v2 readers could not round-trip"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        schema_module: Optional[ParsedModule] = None
        runner_module: Optional[ParsedModule] = None
        for module in project.modules:
            if module.relpath == SCHEMA_RELPATH:
                schema_module = module
            elif module.relpath == RUNNER_RELPATH:
                runner_module = module
        if schema_module is None or runner_module is None:
            # Partial lint run (fixtures, single files): nothing to compare.
            return

        version: Optional[int] = None
        version_node: Optional[ast.expr] = None
        catalogue: Optional[Dict[int, Tuple[str, ...]]] = None
        catalogue_node: Optional[ast.expr] = None
        for statement in schema_module.tree.body:
            value = _assign_value(statement, "RECORD_SCHEMA_VERSION")
            if value is not None:
                version = _int_constant(value)
                version_node = value
            value = _assign_value(statement, "RECORD_FIELDS")
            if value is not None and isinstance(value, ast.Dict):
                catalogue_node = value
                catalogue = {}
                for key_node, value_node in zip(value.keys, value.values):
                    key = _int_constant(key_node) if key_node is not None else None
                    fields = _str_tuple(value_node)
                    if key is None or fields is None:
                        catalogue = None
                        break
                    catalogue[key] = fields
        if version is None or version_node is None:
            return
        if catalogue is None or catalogue_node is None:
            yield self.report(
                schema_module,
                version_node,
                "RECORD_FIELDS must be a literal dict of "
                "{int version: (field, ...)} so SCHEMA-001 can pin the "
                "persisted RunRecord layout to RECORD_SCHEMA_VERSION",
            )
            return

        if version not in catalogue:
            yield self.report(
                schema_module,
                version_node,
                f"RECORD_SCHEMA_VERSION is {version} but RECORD_FIELDS has "
                f"no entry for version {version}; every shipped version "
                "needs its field layout catalogued",
            )
        expected = sorted(range(1, max(catalogue) + 1)) if catalogue else []
        if sorted(catalogue) != expected:
            yield self.report(
                schema_module,
                catalogue_node,
                "RECORD_FIELDS versions must be contiguous from 1 "
                f"(got {sorted(catalogue)}); gaps make the known-versions "
                "error message of check_record_schema_version lie",
            )

        run_record: Optional[ast.ClassDef] = None
        for node in ast.walk(runner_module.tree):
            if isinstance(node, ast.ClassDef) and node.name == "RunRecord":
                run_record = node
                break
        if run_record is None:
            return
        declared = _dataclass_fields(run_record)
        catalogued = catalogue.get(version)
        if catalogued is not None and declared != catalogued:
            yield self.report(
                runner_module,
                run_record,
                f"RunRecord fields {list(declared)} do not match "
                f"RECORD_FIELDS[{version}] = {list(catalogued)}: the record "
                "layout changed without a schema-version bump -- bump "
                "RECORD_SCHEMA_VERSION and add the new layout to "
                "RECORD_FIELDS in store/schema.py",
            )


@LINT_RULES.register("SCHEMA-002")
class TelemetrySchemaVersionRule(LintRule):
    """Telemetry envelope drift without a TELEMETRY_SCHEMA_VERSION bump."""

    severity = SEVERITY_ERROR
    rationale = (
        "every streaming telemetry line is stamped with "
        "TELEMETRY_SCHEMA_VERSION: changing the envelope requires bumping "
        "the version and cataloguing the new envelope in TELEMETRY_FIELDS"
    )
    historical_bug = (
        "PR 9: the store's schema stamp initially floated free of the layout "
        "it claimed to describe; the telemetry stream starts life with the "
        "same stamp-to-catalogue pin instead of rediscovering that bug"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        telemetry_module: Optional[ParsedModule] = None
        for module in project.modules:
            if module.relpath == TELEMETRY_RELPATH:
                telemetry_module = module
                break
        if telemetry_module is None:
            # Partial lint run (fixtures, single files): nothing to check.
            return

        version: Optional[int] = None
        version_node: Optional[ast.expr] = None
        catalogue: Optional[Dict[int, Tuple[str, ...]]] = None
        catalogue_node: Optional[ast.expr] = None
        for statement in telemetry_module.tree.body:
            value = _assign_value(statement, "TELEMETRY_SCHEMA_VERSION")
            if value is not None:
                version = _int_constant(value)
                version_node = value
            value = _assign_value(statement, "TELEMETRY_FIELDS")
            if value is not None and isinstance(value, ast.Dict):
                catalogue_node = value
                catalogue = {}
                for key_node, value_node in zip(value.keys, value.values):
                    key = _int_constant(key_node) if key_node is not None else None
                    fields = _str_tuple(value_node)
                    if key is None or fields is None:
                        catalogue = None
                        break
                    catalogue[key] = fields
        if version is None or version_node is None:
            return
        if catalogue is None or catalogue_node is None:
            yield self.report(
                telemetry_module,
                version_node,
                "TELEMETRY_FIELDS must be a literal dict of "
                "{int version: (key, ...)} so SCHEMA-002 can pin the "
                "telemetry envelope to TELEMETRY_SCHEMA_VERSION",
            )
            return

        if version not in catalogue:
            yield self.report(
                telemetry_module,
                version_node,
                f"TELEMETRY_SCHEMA_VERSION is {version} but TELEMETRY_FIELDS "
                f"has no entry for version {version}; every shipped version "
                "needs its envelope catalogued",
            )
        expected = sorted(range(1, max(catalogue) + 1)) if catalogue else []
        if sorted(catalogue) != expected:
            yield self.report(
                telemetry_module,
                catalogue_node,
                "TELEMETRY_FIELDS versions must be contiguous from 1 "
                f"(got {sorted(catalogue)}); gaps make the known-versions "
                "error message of check_telemetry_schema_version lie",
            )
        for catalogued_version, keys in sorted(catalogue.items()):
            if "v" not in keys:
                yield self.report(
                    telemetry_module,
                    catalogue_node,
                    f"TELEMETRY_FIELDS[{catalogued_version}] omits the 'v' "
                    "key; without it check_telemetry_schema_version cannot "
                    "even identify a line's format",
                )
