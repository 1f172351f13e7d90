"""sweep_replications(store=...): resume, cache hits, shards, equivalence."""

import sys

import pytest

from repro.harness.reporting import sweep_from_store
from repro.harness.scenario import Scenario, highway_scenario
from repro.harness.sweep import build_matrix, sweep_replications
from repro.mobility.generator import TrafficDensity
from repro.store.keys import cell_key, code_version
from repro.store.store import ExperimentStore, union_stores

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="process-pool tests assume a POSIX fork context"
)


def _tiny_scenario(name: str = "tiny") -> Scenario:
    return highway_scenario(
        TrafficDensity.SPARSE,
        name=name,
        duration_s=6.0,
        max_vehicles=15,
        workload_params={"flow_count": 2},
    )


def _strip(record):
    payload = record.to_dict()
    payload["wall_clock_s"] = 0.0
    return payload


class TestResume:
    def test_warm_rerun_executes_zero_cells(self, tmp_path):
        scenario = _tiny_scenario()
        first = sweep_replications(
            [scenario], ["Greedy"], [1, 2], store=tmp_path / "store"
        )
        assert (first.executed_cells, first.reused_cells) == (2, 0)
        second = sweep_replications(
            [scenario], ["Greedy"], [1, 2], store=tmp_path / "store"
        )
        assert (second.executed_cells, second.reused_cells) == (0, 2)
        assert [_strip(a) for a in first.records] == [_strip(b) for b in second.records]
        assert [c.to_dict() for c in first.replicated] == [
            c.to_dict() for c in second.replicated
        ]

    def test_partial_store_resumes_only_missing_cells(self, tmp_path):
        scenario = _tiny_scenario()
        cells = build_matrix([scenario], ["Greedy", "Flooding"], [1, 2])
        reference = sweep_replications([scenario], ["Greedy", "Flooding"], [1, 2])
        # Pre-seed the store with two of the four cells, as an interrupted
        # run would have left it.
        code = code_version()
        store = ExperimentStore(tmp_path / "store")
        for cell, record in list(zip(cells, reference.records))[:2]:
            store.append(cell_key(cell.scenario, cell.protocol, None, code), record)
        resumed = sweep_replications(
            [scenario], ["Greedy", "Flooding"], [1, 2], store=store
        )
        assert (resumed.executed_cells, resumed.reused_cells) == (2, 2)
        assert [_strip(a) for a in resumed.records] == [
            _strip(b) for b in reference.records
        ]
        assert [c.to_dict() for c in resumed.replicated] == [
            c.to_dict() for c in reference.replicated
        ]

    def test_no_resume_reexecutes_everything(self, tmp_path):
        scenario = _tiny_scenario()
        sweep_replications([scenario], ["Greedy"], [1], store=tmp_path / "store")
        forced = sweep_replications(
            [scenario], ["Greedy"], [1], store=tmp_path / "store", resume=False
        )
        assert (forced.executed_cells, forced.reused_cells) == (1, 0)
        store = ExperimentStore(tmp_path / "store")
        report = store.verify()
        assert report.record_count == 2  # appended twice, one duplicated key
        assert report.duplicate_keys == 1

    def test_storeless_sweep_reports_everything_executed(self):
        result = sweep_replications([_tiny_scenario()], ["Greedy"], [1, 2])
        assert (result.executed_cells, result.reused_cells) == (2, 0)


class TestStoreEquivalence:
    def test_serial_and_parallel_stores_are_byte_identical(self, tmp_path):
        scenario = _tiny_scenario()
        sweep_replications(
            [scenario], ["Greedy", "Flooding"], [1, 2], store=tmp_path / "serial"
        )
        sweep_replications(
            [scenario],
            ["Greedy", "Flooding"],
            [1, 2],
            store=tmp_path / "parallel",
            workers=2,
        )
        serial = ExperimentStore(tmp_path / "serial")
        parallel = ExperimentStore(tmp_path / "parallel")
        assert serial.content_digest() == parallel.content_digest()
        # Same records in the same (matrix) append order, too.
        assert [key for key, _ in serial.entries()] == [
            key for key, _ in parallel.entries()
        ]

    def test_union_of_shards_equals_full_store(self, tmp_path):
        scenario = _tiny_scenario()
        full = sweep_replications(
            [scenario], ["Greedy", "Flooding"], [1, 2], store=tmp_path / "full"
        )
        shard_results = [
            sweep_replications(
                [scenario],
                ["Greedy", "Flooding"],
                [1, 2],
                store=tmp_path / f"shard{i}",
                shard=f"{i}/3",
            )
            for i in (1, 2, 3)
        ]
        assert sum(result.executed_cells for result in shard_results) == 4
        union = ExperimentStore(tmp_path / "union")
        union_stores(
            union, [ExperimentStore(tmp_path / f"shard{i}") for i in (1, 2, 3)]
        )
        assert union.content_digest() == ExperimentStore(
            tmp_path / "full"
        ).content_digest()
        assert len(union) == len(full.records)

    def test_shard_without_store_filters_cells(self):
        scenario = _tiny_scenario()
        results = [
            sweep_replications([scenario], ["Greedy", "Flooding"], [1, 2], shard=(i, 2))
            for i in (1, 2)
        ]
        assert sum(len(result.records) for result in results) == 4

    def test_bad_shard_tuple_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            sweep_replications([_tiny_scenario()], ["Greedy"], [1], shard=(3, 2))


class TestSweepFromStore:
    def test_aggregates_match_the_sweep(self, tmp_path):
        scenario = _tiny_scenario()
        result = sweep_replications(
            [scenario], ["Greedy", "Flooding"], [1, 2], store=tmp_path / "store"
        )
        loaded = sweep_from_store(tmp_path / "store")
        assert [_strip(a) for a in loaded.records] == [
            _strip(b) for b in result.records
        ]
        assert [c.to_dict() for c in loaded.replicated] == [
            c.to_dict() for c in result.replicated
        ]

    def test_reads_partial_store_mid_run(self, tmp_path):
        scenario = _tiny_scenario()
        cells = build_matrix([scenario], ["Greedy"], [1, 2])
        reference = sweep_replications([scenario], ["Greedy"], [1, 2])
        code = code_version()
        store = ExperimentStore(tmp_path / "store")
        store.append(
            cell_key(cells[0].scenario, cells[0].protocol, None, code),
            reference.records[0],
        )
        partial = sweep_from_store(tmp_path / "store")
        assert len(partial.records) == 1
        assert partial.replicated[0].replications == 1
