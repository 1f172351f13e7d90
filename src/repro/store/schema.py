"""Record-schema versioning for persisted run artifacts.

Every on-disk artifact that carries :class:`~repro.harness.runner.RunRecord`
payloads -- the experiment store's JSONL record log, ``sweep_to_json``
sweep files, the store manifest -- is stamped with an explicit
``schema_version``.  Readers accept the versions they know how to parse and
fail loudly on anything else, instead of silently mis-parsing a future
layout into zero-filled defaults.

The version history and the per-version field catalogue live here, in one
dependency-free module, so that

* :mod:`repro.harness.runner` can stamp and validate payloads without
  importing the store machinery (which itself imports the runner), and
* the runner can check its :class:`RunRecord` dataclass against the
  catalogue when it is imported (:func:`check_record_fields`): changing
  the record layout without bumping :data:`RECORD_SCHEMA_VERSION` and
  extending :data:`RECORD_FIELDS` fails on import, so in every test run.

Version history:

* **1** -- the implicit pre-store layout (no ``schema_version`` key).
  Payloads without the key are read as version 1.
* **2** -- identical field set, but every written payload carries the
  explicit ``schema_version`` stamp (introduced with the experiment
  store).
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, Mapping, Tuple

#: The schema version this build writes.
RECORD_SCHEMA_VERSION: int = 2

#: Field catalogue per known schema version: the exact dataclass fields of
#: :class:`~repro.harness.runner.RunRecord`, in declaration order.  The
#: runner pins the live dataclass to the entry for
#: :data:`RECORD_SCHEMA_VERSION` on import (:func:`check_record_fields`,
#: rule SCHEMA-001); changing the record layout therefore requires a
#: version bump plus a new catalogue entry, which is exactly the audit
#: trail persisted artifacts need.
RECORD_FIELDS: Dict[int, Tuple[str, ...]] = {
    1: (
        "scenario_name",
        "protocol",
        "seed",
        "summary",
        "extra",
        "flow_details",
        "vehicle_count",
        "rsu_count",
        "wall_clock_s",
        "workload",
        "radio",
    ),
    2: (
        "scenario_name",
        "protocol",
        "seed",
        "summary",
        "extra",
        "flow_details",
        "vehicle_count",
        "rsu_count",
        "wall_clock_s",
        "workload",
        "radio",
    ),
}


def check_catalogue(
    name: str,
    catalogue: Mapping[int, Tuple[str, ...]],
    version: int,
    required: Tuple[str, ...] = (),
) -> None:
    """Raise ``ValueError`` unless ``catalogue`` is a sound version history.

    Its versions must run from 1 without a gap (a gap makes the
    known-versions error messages lie), it must hold the current
    ``version``, and every entry must list the ``required`` keys.
    """
    versions = sorted(catalogue)
    if versions != list(range(1, len(versions) + 1)):
        raise ValueError(f"{name} versions must run from 1 without a gap, got {versions}")
    if version not in catalogue:
        raise ValueError(
            f"{name} has no entry for the current version {version}; "
            "catalogue every version this build writes"
        )
    for entry, keys in sorted(catalogue.items()):
        missing = [key for key in required if key not in keys]
        if missing:
            raise ValueError(f"{name}[{entry}] lacks the required keys {missing}")


def check_record_fields(
    record_type: type,
    catalogue: Mapping[int, Tuple[str, ...]] = RECORD_FIELDS,
    version: int = RECORD_SCHEMA_VERSION,
) -> None:
    """Raise ``ValueError`` unless the dataclass ``record_type`` declares
    exactly ``catalogue[version]``, in order."""
    declared = tuple(item.name for item in fields(record_type))
    if declared != catalogue.get(version):
        raise ValueError(
            f"{record_type.__qualname__} fields {list(declared)} differ from "
            f"RECORD_FIELDS[{version}]: the record layout changed without a "
            "schema-version bump -- bump RECORD_SCHEMA_VERSION and catalogue "
            "the new layout in repro/store/schema.py"
        )


check_catalogue("RECORD_FIELDS", RECORD_FIELDS, RECORD_SCHEMA_VERSION)

#: Versions this build knows how to read.
KNOWN_RECORD_SCHEMA_VERSIONS: Tuple[int, ...] = tuple(sorted(RECORD_FIELDS))


def check_record_schema_version(payload: Dict[str, object], what: str) -> int:
    """Validate ``payload``'s ``schema_version`` stamp and return it.

    A payload without the key is a legacy version-1 artifact and is
    accepted; any version outside :data:`KNOWN_RECORD_SCHEMA_VERSIONS`
    raises ``ValueError`` with an actionable message (the alternative --
    parsing a future layout field-by-field with defaults -- would silently
    fabricate zero metrics).
    """
    raw = payload.get("schema_version", 1)
    try:
        version = int(raw)  # type: ignore[call-overload]
    except (TypeError, ValueError):
        raise ValueError(
            f"{what} carries a non-integer schema_version {raw!r}; "
            "the artifact is corrupt or was written by an incompatible tool"
        ) from None
    if version not in RECORD_FIELDS:
        known = ", ".join(str(v) for v in KNOWN_RECORD_SCHEMA_VERSIONS)
        raise ValueError(
            f"{what} has schema_version {version}, but this build only "
            f"reads versions {{{known}}}; it was written by a newer (or "
            "incompatible) version of repro -- upgrade before reading it"
        )
    return version
