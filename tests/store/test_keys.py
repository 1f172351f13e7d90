"""Content-addressed cell keys: canonicalisation, code digest, sharding."""

import dataclasses
from enum import Enum

import pytest

from repro.harness.scenario import highway_scenario
from repro.mobility.generator import TrafficDensity
from repro.store.keys import (
    canonical,
    canonical_json,
    cell_key,
    code_version,
    parse_shard,
    shard_of,
)


def _scenario(**overrides):
    return highway_scenario(
        TrafficDensity.SPARSE,
        name="keys",
        duration_s=6.0,
        max_vehicles=15,
        workload_params={"flow_count": 2},
        **overrides,
    )


class TestCanonical:
    def test_dict_keys_are_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_tuples_and_lists_unify(self):
        assert canonical((1, 2)) == canonical([1, 2])

    def test_enums_collapse_to_values(self):
        class Kind(Enum):
            A = "a"

        assert canonical(Kind.A) == "a"

    def test_dataclasses_are_tagged_by_class_name(self):
        @dataclasses.dataclass
        class P:
            x: int = 1

        @dataclasses.dataclass
        class Q:
            x: int = 1

        assert canonical(P())["__type__"] == "P"
        assert canonical_json(P()) != canonical_json(Q())

    def test_scenario_round_trips_deterministically(self):
        a, b = _scenario(), _scenario()
        assert canonical_json(a) == canonical_json(b)


class TestCellKey:
    def test_stable_across_calls(self):
        code = "deadbeefdeadbeef"
        assert cell_key(_scenario(), "Greedy", None, code) == cell_key(
            _scenario(), "Greedy", None, code
        )

    def test_every_input_changes_the_key(self):
        code = "deadbeefdeadbeef"
        base = cell_key(_scenario(), "Greedy", None, code)
        assert cell_key(_scenario(seed=99), "Greedy", None, code) != base
        assert cell_key(_scenario(), "Flooding", None, code) != base
        assert cell_key(_scenario(), "Greedy", None, "0000000000000000") != base
        assert cell_key(_scenario(workload="poisson"), "Greedy", None, code) != base

    def test_key_is_hex_sha256(self):
        key = cell_key(_scenario(), "Greedy", None, "deadbeefdeadbeef")
        assert len(key) == 64
        int(key, 16)  # raises if not hex


class TestCodeVersion:
    def test_digest_tracks_file_content(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        first = code_version(tmp_path)
        (tmp_path / "a.py").write_text("x = 2\n")
        assert code_version(tmp_path) != first

    def test_digest_tracks_file_set(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        first = code_version(tmp_path)
        (tmp_path / "b.py").write_text("")
        assert code_version(tmp_path) != first

    def test_default_digest_is_cached_and_stable(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16


class TestSharding:
    def test_partition_is_total_and_disjoint(self):
        keys = [cell_key(_scenario(seed=s), "Greedy", None, "cafe") for s in range(20)]
        shards = [shard_of(key, 3) for key in keys]
        assert set(shards) <= {0, 1, 2}
        # Every key lands in exactly one shard by construction; the split
        # should not be fully degenerate over 20 distinct keys.
        assert len(set(shards)) > 1

    def test_single_shard_takes_everything(self):
        assert shard_of("ff" * 32, 1) == 0

    def test_shard_count_validated(self):
        with pytest.raises(ValueError):
            shard_of("ff" * 32, 0)

    def test_parse_shard(self):
        assert parse_shard("1/2") == (1, 2)
        assert parse_shard("3/3") == (3, 3)

    @pytest.mark.parametrize("spec", ["", "2", "0/2", "3/2", "a/b", "1/2/3", "-1/2"])
    def test_parse_shard_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            parse_shard(spec)
