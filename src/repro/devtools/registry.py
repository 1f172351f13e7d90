"""The lint-rule registry.

Adding a lint rule is a registry entry (a
:class:`~repro.devtools.base.LintRule` subclass plus a
``@LINT_RULES.register("<ID>")`` decoration), not a change to the engine.
``repro-vanet list lint-rules`` renders the catalogue.
"""

from __future__ import annotations

import re
from typing import Type

from repro.devtools.base import LintRule
from repro.devtools.findings import SEVERITIES
from repro.registry import Registry, Row

_RULE_ID_RE = re.compile(r"^[A-Z]{2,8}-\d{3}$")


def _validate(rule_id: str, cls: Type[LintRule]) -> None:
    if _RULE_ID_RE.match(rule_id) is None:
        raise ValueError(
            f"lint rule id {rule_id!r} must match <LETTERS>-<3 digits>, e.g. RNG-001"
        )
    if cls.severity not in SEVERITIES:
        raise ValueError(f"lint rule {rule_id!r} has unknown severity {cls.severity!r}")


def _rule_columns(cls: Type[LintRule]) -> Row:
    return {"severity": cls.severity, "rationale": cls.rationale}


LINT_RULES: Registry[Type[LintRule]] = Registry(
    "lint rule",
    column="rule",
    name_attr="rule_id",
    validate=_validate,
    kind_columns=_rule_columns,
)

__all__ = ["LINT_RULES"]
