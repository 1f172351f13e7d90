"""The paired A/B runner behind ``BENCH_perfbench_pairs.json``.

The benchmark runs themselves are replaced by a fake runner: these tests
pin the pairing (alternating order, one seed per pair), the summary
arithmetic and the row schema CI asserts.
"""

import json
from pathlib import Path

import pytest

from benchmarks import ab_pairs

METRICS = [
    {"name": "unit_ms", "unit": "ms", "better": "lower"},
    {"name": "cells", "unit": "count", "better": "higher"},
]


class _FakeBench:
    """Change runs take 80% of the parent's time; records every call."""

    def __init__(self, parent: Path):
        self.parent = parent
        self.calls = []

    def __call__(self, checkout, workload, seed, seconds, trace):
        side = "parent" if checkout == self.parent else "change"
        self.calls.append((side, workload, seed, trace))
        unit_ms = 100.0 + seed
        if side == "change":
            unit_ms *= 0.8
        return {
            "correct": True,
            "failed": 0,
            "metrics": {
                "unit_ms": {"value": unit_ms, "unit": "ms"},
                "cells": {"value": 2.0 if side == "change" else 1.0, "unit": "count"},
                "channel_calls": {"value": 5.0, "unit": "count"},
            },
        }


def _collect(seeds=(1, 2, 3, 4), traced="bsm-storm"):
    parent, change = Path("/pa/repo"), Path("/ch/repo")
    bench = _FakeBench(parent)
    part = ab_pairs.collect(
        parent, change, ["bsm-storm", "categories"], METRICS, list(seeds), 2.0,
        traced, 99, run=bench,
    )
    row = {
        "parent": {"commit": "a" * 40, "src_tree": "b" * 40},
        "change": {"commit": "c" * 40, "src_tree": "d" * 40},
        "recorded": "2026-01-01T00:00:00+00:00",
        "host": {},
        "note": "",
        **part,
    }
    return bench, row


def test_pairs_alternate_order_and_share_one_seed():
    bench, row = _collect()
    untraced = [call for call in bench.calls if call[3] == 0]
    assert [(side, seed) for side, workload, seed, _ in untraced if workload == "bsm-storm"] == [
        ("parent", 1), ("change", 1),
        ("change", 2), ("parent", 2),
        ("parent", 3), ("change", 3),
        ("change", 4), ("parent", 4),
    ]
    assert [call for call in bench.calls if call[3] == 1] == [
        ("parent", "bsm-storm", 99, 1),
        ("change", "bsm-storm", 99, 1),
    ]
    assert row["seeds"] == [1, 2, 3, 4] and row["pairs"] == 4


def test_summary_reports_medians_quartiles_and_wins():
    _, row = _collect()
    unit = row["workloads"]["bsm-storm"]["metrics"]["unit_ms"]
    assert unit["runs"]["parent"] == [101.0, 102.0, 103.0, 104.0]
    assert unit["parent"] == {"median": 102.5, "q1": 101.75, "q3": 103.25}
    assert unit["change"]["median"] == pytest.approx(0.8 * 102.5)
    assert unit["ratio"] == pytest.approx(0.8)
    assert unit["wins"] == 4 and unit["pairs"] == 4
    assert unit["gap_exceeds_parent_iqr"] is True
    cells = row["workloads"]["bsm-storm"]["metrics"]["cells"]
    assert cells["better"] == "higher" and cells["wins"] == 4
    assert row["workloads"]["categories"]["failed"] == {"parent": 0, "change": 0}
    assert row["traced"]["change"]["channel_calls"] == 5.0


def test_no_gain_is_not_a_win():
    summary = ab_pairs.summarise([10.0, 11.0, 12.0], [10.0, 11.5, 11.0], "ms", "lower")
    assert summary["wins"] == 1
    assert summary["gap_exceeds_parent_iqr"] is False


def test_one_pair_is_its_own_spread():
    assert ab_pairs.spread([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}


def test_row_schema_is_checked():
    _, row = _collect(traced=None)
    names = [m["name"] for m in METRICS]
    ab_pairs.check_row(row, ["bsm-storm", "categories"], names)
    with pytest.raises(ValueError, match="lacks workload"):
        ab_pairs.check_row(row, ["stored-sweep"], names)
    del row["workloads"]["bsm-storm"]["metrics"]["unit_ms"]["wins"]
    with pytest.raises(ValueError, match="bsm-storm/unit_ms"):
        ab_pairs.check_row(row, ["bsm-storm"], names)


def test_rows_append(tmp_path):
    out = tmp_path / "pairs.json"
    ab_pairs.append_row(out, {"n": 1})
    ab_pairs.append_row(out, {"n": 2})
    payload = json.loads(out.read_text())
    assert payload["schema"] == ab_pairs.SCHEMA_VERSION
    assert [row["n"] for row in payload["rows"]] == [1, 2]


def test_checkout_paths_must_have_equal_length(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "bb").mkdir()
    with pytest.raises(SystemExit, match="differ in length"):
        ab_pairs.main(["--parent", str(tmp_path / "a"), "--change", str(tmp_path / "bb")])
