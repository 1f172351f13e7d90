"""ExperimentStore unit tests: append/read, crash signatures, integrity."""

import json

import pytest

from repro.harness.runner import RunRecord
from repro.store.schema import RECORD_SCHEMA_VERSION
from repro.store.store import (
    MANIFEST_FILE,
    RECORDS_FILE,
    ExperimentStore,
    read_record_log,
    union_stores,
)


def _record(seed=1, protocol="P", **metrics):
    return RunRecord(
        scenario_name="s", protocol=protocol, seed=seed, summary=dict(metrics)
    )


class TestAppendAndRead:
    def test_round_trip(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.append("k1", _record(seed=1, delivery_ratio=0.5))
        store.append("k2", _record(seed=2, delivery_ratio=0.75))
        store.close()
        index = ExperimentStore(tmp_path / "store").load_index()
        assert list(index) == ["k1", "k2"]
        assert index["k1"] == _record(seed=1, delivery_ratio=0.5)

    def test_each_append_is_one_line(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.append("k1", _record(seed=1))
        store.append("k2", _record(seed=2))
        store.close()
        lines = (tmp_path / "store" / RECORDS_FILE).read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["key"].startswith("k") for line in lines)

    def test_duplicate_key_last_write_wins(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.append("k", _record(delivery_ratio=0.1))
        store.append("k", _record(delivery_ratio=0.9))
        store.close()
        index = store.load_index()
        assert len(index) == 1
        assert index["k"].summary["delivery_ratio"] == 0.9

    def test_empty_store(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        assert store.load_index() == {}
        assert len(store) == 0
        assert store.verify().ok

    def test_context_manager_closes(self, tmp_path):
        with ExperimentStore(tmp_path / "store") as store:
            store.append("k", _record())
        assert store._append_handle is None


class TestCrashSignatures:
    def test_truncated_tail_is_skipped(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.append("k1", _record(seed=1))
        store.append("k2", _record(seed=2))
        store.close()
        path = tmp_path / "store" / RECORDS_FILE
        text = path.read_text()
        path.write_text(text + text[-40:].rstrip("\n"))  # half-written line
        index = store.load_index()
        assert list(index) == ["k1", "k2"]
        report = store.verify()
        assert report.ok  # a truncated tail is the expected crash signature
        assert report.truncated_tail

    def test_malformed_interior_line_is_reported(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.append("k1", _record(seed=1))
        store.append("k2", _record(seed=2))
        store.close()
        path = tmp_path / "store" / RECORDS_FILE
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], "{not json", lines[1]]) + "\n")
        assert list(store.load_index()) == ["k1", "k2"]  # reads still work
        report = store.verify()
        assert not report.ok
        assert report.malformed_lines == [2]

    def test_unknown_schema_version_raises_on_read(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.append("k1", _record())
        store.close()
        path = tmp_path / "store" / RECORDS_FILE
        entry = json.loads(path.read_text())
        entry["record"]["schema_version"] = 99
        path.write_text(json.dumps(entry) + "\n")
        with pytest.raises(ValueError, match="schema_version 99"):
            store.load_index()
        report = store.verify()  # verify reports instead of raising
        assert not report.ok

    def test_unstamped_record_reads_as_v1(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.append("k1", _record())
        store.close()
        path = tmp_path / "store" / RECORDS_FILE
        entry = json.loads(path.read_text())
        del entry["record"]["schema_version"]
        path.write_text(json.dumps(entry) + "\n")
        assert list(store.load_index()) == ["k1"]
        assert store.verify().schema_versions == {1: 1}


class TestManifest:
    def test_round_trip_and_stamp(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.write_manifest({"code_version": "abc", "matrix": {"total_cells": 4}})
        manifest = store.read_manifest()
        assert manifest["schema_version"] == RECORD_SCHEMA_VERSION
        assert manifest["code_version"] == "abc"

    def test_missing_manifest_is_none(self, tmp_path):
        assert ExperimentStore(tmp_path / "store").read_manifest() is None

    def test_no_tmp_file_left_behind(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.write_manifest({})
        assert sorted(p.name for p in store.path.iterdir()) == [MANIFEST_FILE]

    def test_unknown_manifest_version_raises(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.write_manifest({})
        payload = json.loads(store.manifest_path.read_text())
        payload["schema_version"] = 99
        store.manifest_path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema_version 99"):
            store.read_manifest()


class TestContentDigest:
    def test_order_independent(self, tmp_path):
        a = ExperimentStore(tmp_path / "a")
        a.append("k1", _record(seed=1))
        a.append("k2", _record(seed=2))
        b = ExperimentStore(tmp_path / "b")
        b.append("k2", _record(seed=2))
        b.append("k1", _record(seed=1))
        assert a.content_digest() == b.content_digest()

    def test_wall_clock_ignored_by_default(self, tmp_path):
        a = ExperimentStore(tmp_path / "a")
        a.append("k", RunRecord("s", "P", 1, {}, wall_clock_s=1.0))
        b = ExperimentStore(tmp_path / "b")
        b.append("k", RunRecord("s", "P", 1, {}, wall_clock_s=9.0))
        assert a.content_digest() == b.content_digest()
        assert a.content_digest(include_wall_clock=True) != b.content_digest(
            include_wall_clock=True
        )

    def test_content_changes_digest(self, tmp_path):
        a = ExperimentStore(tmp_path / "a")
        a.append("k", _record(delivery_ratio=0.5))
        b = ExperimentStore(tmp_path / "b")
        b.append("k", _record(delivery_ratio=0.6))
        assert a.content_digest() != b.content_digest()


class TestModuleHelpers:
    def test_read_record_log_accepts_dir_and_file(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.append("k1", _record(seed=1))
        store.close()
        from_dir = read_record_log(tmp_path / "store")
        from_file = read_record_log(tmp_path / "store" / RECORDS_FILE)
        assert from_dir == from_file
        assert [key for key, _ in from_dir] == ["k1"]

    def test_read_record_log_rejects_other_files(self, tmp_path):
        other = tmp_path / "other.json"
        other.write_text("{}")
        with pytest.raises(ValueError, match="neither a store directory"):
            read_record_log(other)

    def test_union_stores_merges_missing_keys(self, tmp_path):
        a = ExperimentStore(tmp_path / "a")
        a.append("k1", _record(seed=1))
        b = ExperimentStore(tmp_path / "b")
        b.append("k2", _record(seed=2))
        b.append("k1", _record(seed=1, delivery_ratio=0.0))  # loser: k1 exists
        target = ExperimentStore(tmp_path / "u")
        target.append("k1", _record(seed=1))
        copied = union_stores(target, [a, b])
        assert copied == 1
        index = target.load_index()
        assert sorted(index) == ["k1", "k2"]
        assert "delivery_ratio" not in index["k1"].summary


class TestImportOrder:
    def test_store_imports_before_harness(self):
        """Regression: importing the store first must not hit the
        store -> runner -> harness -> sweep -> store import cycle."""
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src"
        script = (
            "from repro.store.store import ExperimentStore, union_stores\n"
            "from repro.store import cell_key\n"
            "print('ok')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"
