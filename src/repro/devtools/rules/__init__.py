"""Built-in lint rules.

Importing this package registers every built-in rule; the engine imports
it once at module load, the same way :mod:`repro.workloads` pulls in its
built-in workload modules.
"""

from __future__ import annotations

from repro.devtools.rules import (  # noqa: F401  (imported for registration)
    determinism,
    meta,
    registry_contract,
    rng,
    schema,
)

__all__ = [
    "determinism",
    "meta",
    "registry_contract",
    "rng",
    "schema",
]
