"""Shared AST helpers: import tracking and dotted-name resolution.

The determinism rules all reason about *which module* a call is rooted in
(``random.Random`` vs a local ``rng.random()``, ``np.random.seed`` vs
``random.seed``).  :class:`ImportMap` records what each local name is bound
to by the module's import statements, and :func:`dotted_name` resolves an
attribute chain back to its fully qualified origin, so rules never
pattern-match on surface spelling alone (``import numpy as np``,
``from random import Random`` and plain ``import random`` all resolve).
"""

from __future__ import annotations

import ast
from typing import Dict, Optional


class ImportMap:
    """Local name -> fully qualified module/attribute bindings for a module."""

    def __init__(self) -> None:
        self._bindings: Dict[str, str] = {}

    @classmethod
    def from_tree(cls, tree: ast.AST) -> "ImportMap":
        """Collect every ``import`` / ``from ... import`` binding in ``tree``."""
        imports = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        imports._bindings[alias.asname] = alias.name
                    else:
                        # ``import x.y`` binds the *top-level* name ``x``.
                        top = alias.name.split(".", 1)[0]
                        imports._bindings[top] = top
            elif isinstance(node, ast.ImportFrom):
                # Relative imports resolve inside the package; prefix the
                # dots so they can never collide with stdlib module names.
                prefix = "." * node.level + (node.module or "")
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname if alias.asname is not None else alias.name
                    imports._bindings[bound] = (
                        f"{prefix}.{alias.name}" if prefix else alias.name
                    )
        return imports

    def resolve(self, name: str) -> Optional[str]:
        """Qualified origin of local ``name``, or None when not import-bound."""
        return self._bindings.get(name)


def dotted_name(node: ast.expr, imports: ImportMap) -> Optional[str]:
    """Fully qualified dotted name of an attribute chain, or None.

    ``np.random.seed`` with ``import numpy as np`` resolves to
    ``numpy.random.seed``; ``Random`` with ``from random import Random``
    resolves to ``random.Random``; a chain rooted at a plain local variable
    (``self._rng.random``) resolves to None, which is how rules distinguish
    module-level RNG state from threaded stream instances.
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = imports.resolve(node.id)
    if root is None:
        return None
    parts.append(root)
    return ".".join(reversed(parts))


def constant_str(node: ast.expr) -> Optional[str]:
    """The value of a string-literal node, or None for anything else."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None
