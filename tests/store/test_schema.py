"""Rules SCHEMA-001/002: the schema catalogues and the record layout agree.

:mod:`repro.store.schema` and :mod:`repro.monitors.telemetry` check their
catalogues on import, and the runner checks ``RunRecord`` against
``RECORD_FIELDS``; these tests feed the same checks patched catalogues and
probe dataclasses.
"""

from dataclasses import dataclass, make_dataclass
from typing import ClassVar

import pytest

from repro.harness.runner import RunRecord
from repro.monitors.telemetry import TELEMETRY_FIELDS, TELEMETRY_SCHEMA_VERSION
from repro.store.schema import (
    RECORD_FIELDS,
    RECORD_SCHEMA_VERSION,
    check_catalogue,
    check_record_fields,
)

CATALOGUE = {1: ("a", "b"), 2: ("a", "b")}


@dataclass
class Record:
    kind: ClassVar[str] = "run"  # not a dataclass field
    a: int
    b: str


def test_live_record_catalogue_and_layout_agree():
    check_catalogue("RECORD_FIELDS", RECORD_FIELDS, RECORD_SCHEMA_VERSION)
    check_record_fields(RunRecord)


def test_live_telemetry_catalogue_is_sound():
    check_catalogue("TELEMETRY_FIELDS", TELEMETRY_FIELDS, TELEMETRY_SCHEMA_VERSION, ("v",))


@pytest.mark.parametrize(
    "record,catalogue,version",
    [
        (Record, CATALOGUE, 2),
        (
            make_dataclass("Grown", [("c", float, 0.0)], bases=(Record,)),
            {**CATALOGUE, 3: ("a", "b", "c")},
            3,
        ),
    ],
    ids=["same-version", "bumped-version"],
)
def test_matching_layout_passes(record, catalogue, version):
    check_record_fields(record, catalogue, version)


@pytest.mark.parametrize(
    "record,catalogue,version",
    [
        (make_dataclass("Added", [("c", float, 0.0)], bases=(Record,)), CATALOGUE, 2),
        (make_dataclass("Reordered", [("b", str), ("a", int)]), CATALOGUE, 2),
        (
            make_dataclass("Hostname", [("hostname", str, "")], bases=(RunRecord,)),
            RECORD_FIELDS,
            RECORD_SCHEMA_VERSION,
        ),
    ],
    ids=["added", "reordered", "live-record-drift"],
)
def test_layout_change_without_a_version_bump_fails(record, catalogue, version):
    with pytest.raises(ValueError, match="without a schema-version bump"):
        check_record_fields(record, catalogue, version)


@pytest.mark.parametrize(
    "catalogue,version,required,message",
    [
        (CATALOGUE, 3, (), "no entry for the current version 3"),
        ({1: ("a",), 3: ("a",)}, 3, (), r"without a gap, got \[1, 3\]"),
        ({1: ("event", "t", "monitor")}, 1, ("v",), r"\[1\] lacks the required keys \['v'\]"),
        (RECORD_FIELDS, RECORD_SCHEMA_VERSION + 1, (), "no entry for the current version"),
        (TELEMETRY_FIELDS, TELEMETRY_SCHEMA_VERSION + 1, ("v",), "no entry for the current"),
    ],
    ids=["missing-current", "gap", "no-v-key", "live-record-bump", "live-telemetry-bump"],
)
def test_unsound_catalogue_fails(catalogue, version, required, message):
    with pytest.raises(ValueError, match=message):
        check_catalogue("FIELDS", catalogue, version, required)
