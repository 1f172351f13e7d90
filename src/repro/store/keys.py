"""Content-addressed cell keys for the experiment store.

A sweep cell is a pure function of its inputs: the scenario (which carries
the workload, radio and seed), the protocol and its
configuration, and the simulator code itself.  :func:`cell_key` digests all
of them into one stable hex key, so that

* a store lookup answers "has this exact experiment already run?" without
  any naming convention or coordination,
* re-running a sweep after a code change re-executes every cell whose
  inputs (including the code digest) changed -- and nothing else, and
* :func:`shard_of` partitions any cell matrix over ``N`` machines by key
  hash alone: every machine computes the same partition independently,
  with no coordinator.

The scenario fingerprint is a canonical JSON rendering of the dataclass
tree (:func:`canonical`): dictionaries are key-sorted, enums collapse to
their values, floats keep their exact ``repr`` round-trip -- so the key is
independent of dict insertion order and process history, and identical
across machines and Python processes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum
from pathlib import Path
from typing import Optional, Tuple, Union

#: Hex digits of the full sha256 used as the cell key.  64 bits of prefix
#: feed :func:`shard_of`; the full digest keeps collisions out of reach of
#: any realistic matrix size.
KEY_HEX_DIGITS = 64
_SHARD_PREFIX_DIGITS = 16

#: Process-wide cache of the default code digest (the tree cannot change
#: under a running sweep; re-hashing ~100 files per cell would be waste).
_CODE_VERSION_CACHE: Optional[str] = None


def canonical(value: object) -> object:
    """Reduce ``value`` to a JSON-serialisable canonical form.

    Dataclasses become tagged dicts (the class name disambiguates two
    config types that happen to share field names), enums collapse to
    their values, mappings are key-sorted, and tuples/lists unify.  Any
    unknown leaf falls back to ``repr`` -- stable for the types scenarios
    actually carry.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            field.name: canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        return {"__type__": type(value).__name__, **fields}
    if isinstance(value, Enum):
        return canonical(value.value)
    if isinstance(value, dict):
        return {
            str(key): canonical(item)
            for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def canonical_json(value: object) -> str:
    """The canonical form serialised to a deterministic JSON string."""
    return json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))


def code_version(root: Optional[Union[str, Path]] = None) -> str:
    """Digest of the simulator source tree (the ``repro`` package).

    Hashes every ``*.py`` file under ``root`` (default: the installed
    ``repro`` package directory) in sorted relative-path order -- path and
    content both -- so any code change, anywhere in the package, changes
    the digest and therefore every cell key.  The default digest is cached
    per process.
    """
    global _CODE_VERSION_CACHE
    if root is None and _CODE_VERSION_CACHE is not None:
        return _CODE_VERSION_CACHE
    if root is None:
        import repro

        base = Path(repro.__file__).resolve().parent
    else:
        base = Path(root).resolve()
    digest = hashlib.sha256()
    for path in sorted(base.rglob("*.py")):
        digest.update(path.relative_to(base).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    result = digest.hexdigest()[:16]
    if root is None:
        _CODE_VERSION_CACHE = result
    return result


def cell_key(
    scenario: object,
    protocol: str,
    protocol_config: object = None,
    code: Optional[str] = None,
) -> str:
    """Stable content key of one sweep cell.

    Digests (scenario incl. workload/radio/seed, protocol,
    protocol config, code version) into a sha256 hex string.  ``code``
    defaults to :func:`code_version` of the installed package.
    """
    payload = {
        "scenario": canonical(scenario),
        "protocol": protocol,
        "protocol_config": canonical(protocol_config),
        "code_version": code if code is not None else code_version(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def shard_of(key: str, shard_count: int) -> int:
    """0-based shard index of ``key`` under an ``N``-way partition.

    Pure function of the key's leading 64 bits, so any number of machines
    agree on the partition without talking to each other.
    """
    if shard_count < 1:
        raise ValueError(f"shard count must be >= 1, got {shard_count}")
    return int(key[:_SHARD_PREFIX_DIGITS], 16) % shard_count


def parse_shard(spec: str) -> Tuple[int, int]:
    """Parse a ``"K/N"`` shard spec into ``(index, count)`` (1-based K).

    ``"2/3"`` means: run the cells whose :func:`shard_of` is 1, out of a
    3-way partition.
    """
    parts = spec.split("/")
    if len(parts) != 2:
        raise ValueError(f"shard spec must look like K/N (e.g. 2/3), got {spec!r}")
    try:
        index, count = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(
            f"shard spec must be two integers K/N (e.g. 2/3), got {spec!r}"
        ) from None
    if count < 1 or not 1 <= index <= count:
        raise ValueError(
            f"shard spec {spec!r} out of range: need 1 <= K <= N with N >= 1"
        )
    return index, count
