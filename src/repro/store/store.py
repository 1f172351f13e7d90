"""The experiment store: streaming, resumable, content-addressed persistence.

An :class:`ExperimentStore` is a directory with two files:

``records.jsonl``
    The record log.  One JSON line per completed sweep cell --
    ``{"key": <cell key>, "record": <RunRecord.to_dict()>}`` -- appended
    (and fsync'd) the moment the cell finishes, so partial results are
    readable mid-run and a crash loses at most the line being written.
    Readers tolerate a truncated tail line (the crash signature) and skip
    it; the cell simply re-runs on resume.

``manifest.json``
    A small description of the store and the most recent sweep written
    through it (schema version, code digest, matrix shape, shard).
    Updated atomically: temp file, fsync, ``os.replace``, directory fsync.

Records are keyed by :func:`repro.store.keys.cell_key` -- a content hash
of (scenario, protocol, protocol config, code version) -- so the store is
a cache: a sweep consults it before executing, appends what it had to run,
and an identical re-run executes nothing.  Several sweeps (even different
matrices) can share one store; keys never collide across them.

Concurrency: one writer per store directory.  Multi-machine runs shard the
matrix by key (``shard K/N``) into one store each and union the record
logs afterwards -- no coordination needed, the partition is a pure
function of the keys.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.store.schema import RECORD_SCHEMA_VERSION, check_record_schema_version

if TYPE_CHECKING:
    from repro.harness.runner import RunRecord

#: File names inside a store directory.
RECORDS_FILE = "records.jsonl"
MANIFEST_FILE = "manifest.json"


@dataclass
class StoreReport:
    """Outcome of :meth:`ExperimentStore.verify`."""

    record_count: int = 0
    distinct_keys: int = 0
    duplicate_keys: int = 0
    malformed_lines: List[int] = field(default_factory=list)
    truncated_tail: bool = False
    schema_versions: Dict[int, int] = field(default_factory=dict)
    issues: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every complete line parsed and validated.

        A truncated tail is *not* a failure: it is the expected signature
        of a hard interruption, and resume re-runs the affected cell.
        """
        return not self.issues


class ExperimentStore:
    """Streaming, resumable, content-addressed sweep persistence.

    Args:
        path: The store directory (created if missing).
        fsync: Fsync the record log after every append (default).  Turning
            it off trades crash-durability of the last few records for
            append throughput; the log stays structurally valid either way.
    """

    def __init__(self, path: Union[str, Path], fsync: bool = True) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self._append_handle = None

    # ---------------------------------------------------------------- paths
    @property
    def records_path(self) -> Path:
        return self.path / RECORDS_FILE

    @property
    def manifest_path(self) -> Path:
        return self.path / MANIFEST_FILE

    # --------------------------------------------------------------- writes
    def append(self, key: str, record: RunRecord) -> None:
        """Append one completed cell to the record log and flush it to disk.

        The line is written with a single ``write`` call and (by default)
        fsync'd before returning, so a record either exists completely or
        leaves only a truncated tail that readers skip.
        """
        entry = {"key": key, "record": record.to_dict()}
        line = json.dumps(entry, sort_keys=True) + "\n"
        handle = self._append_handle
        if handle is None:
            handle = self._append_handle = self.records_path.open(
                "a", encoding="utf-8"
            )
        handle.write(line)
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    def close(self) -> None:
        """Close the append handle (idempotent; reads never need it)."""
        if self._append_handle is not None:
            self._append_handle.close()
            self._append_handle = None

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def write_manifest(self, payload: Dict[str, object]) -> None:
        """Atomically replace the manifest (temp file + fsync + rename).

        ``schema_version`` is stamped automatically.  The rename is atomic
        on POSIX, and the directory fsync makes it durable: a crash leaves
        either the old manifest or the new one, never a torn file.
        """
        stamped = dict(payload)
        stamped["schema_version"] = RECORD_SCHEMA_VERSION
        tmp = self.manifest_path.with_suffix(".json.tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(stamped, indent=2, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.manifest_path)
        dir_fd = os.open(self.path, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    def read_manifest(self) -> Optional[Dict[str, object]]:
        """The manifest payload, or ``None`` when never written."""
        if not self.manifest_path.exists():
            return None
        payload = json.loads(self.manifest_path.read_text())
        check_record_schema_version(payload, f"store manifest {self.manifest_path}")
        return payload

    # ---------------------------------------------------------------- reads
    def _raw_entries(self) -> Iterator[Tuple[int, bool, Optional[Dict[str, object]]]]:
        """Yield ``(lineno, is_tail, entry-or-None)`` per record-log line.

        ``entry`` is ``None`` for lines that fail to parse or lack the
        expected shape; ``is_tail`` marks the final line when it is also
        unterminated or unparsable -- the signature of an interrupted
        append, which readers silently skip.
        """
        if not self.records_path.exists():
            return
        with self.records_path.open("r", encoding="utf-8") as handle:
            lines = handle.readlines()
        for lineno, line in enumerate(lines, start=1):
            is_last = lineno == len(lines)
            terminated = line.endswith("\n")
            entry: Optional[Dict[str, object]] = None
            try:
                parsed = json.loads(line)
            except ValueError:
                parsed = None
            if (
                isinstance(parsed, dict)
                and isinstance(parsed.get("key"), str)
                and isinstance(parsed.get("record"), dict)
            ):
                entry = parsed
            yield lineno, is_last and (entry is None or not terminated), entry

    def entries(self) -> Iterator[Tuple[str, RunRecord]]:
        """Yield ``(key, record)`` for every valid line, in append order.

        A truncated tail is skipped; a malformed *interior* line is skipped
        too (its cell re-runs on resume) and surfaces through
        :meth:`verify`.  A record stamped with an unknown schema version
        raises -- that is a newer writer's data, not corruption.
        """
        # Imported here, not at module top: repro.harness.sweep imports this
        # module, so a top-level runner import would be circular whenever
        # repro.store is imported before repro.harness.
        from repro.harness.runner import RunRecord

        for lineno, _is_tail, entry in self._raw_entries():
            if entry is None:
                continue
            payload = entry["record"]
            assert isinstance(payload, dict)
            check_record_schema_version(
                payload, f"record log {self.records_path} line {lineno}"
            )
            yield str(entry["key"]), RunRecord.from_dict(payload)

    def load_index(self) -> Dict[str, RunRecord]:
        """All records keyed by cell key (append order, last write wins)."""
        index: Dict[str, RunRecord] = {}
        for key, record in self.entries():
            index[key] = record
        return index

    def keys(self) -> List[str]:
        """Distinct cell keys present, in first-append order."""
        return list(self.load_index())

    def __len__(self) -> int:
        return len(self.load_index())

    # ------------------------------------------------------------ integrity
    def verify(self) -> StoreReport:
        """Structural integrity check of the record log and manifest."""
        from repro.harness.runner import RunRecord

        report = StoreReport()
        seen: Dict[str, int] = {}
        for lineno, is_tail, entry in self._raw_entries():
            if entry is None:
                if is_tail:
                    report.truncated_tail = True
                else:
                    report.malformed_lines.append(lineno)
                    report.issues.append(
                        f"line {lineno}: malformed record-log entry"
                    )
                continue
            payload = entry["record"]
            assert isinstance(payload, dict)
            try:
                version = check_record_schema_version(
                    payload, f"line {lineno}"
                )
                RunRecord.from_dict(payload)
            except (KeyError, TypeError, ValueError) as exc:
                report.malformed_lines.append(lineno)
                report.issues.append(f"line {lineno}: {exc}")
                continue
            report.record_count += 1
            report.schema_versions[version] = (
                report.schema_versions.get(version, 0) + 1
            )
            key = str(entry["key"])
            seen[key] = seen.get(key, 0) + 1
        report.distinct_keys = len(seen)
        report.duplicate_keys = sum(1 for count in seen.values() if count > 1)
        try:
            self.read_manifest()
        except ValueError as exc:
            report.issues.append(f"manifest: {exc}")
        return report

    def content_digest(self, include_wall_clock: bool = False) -> str:
        """Order-independent digest of the store's logical content.

        Hashes the key-sorted canonical JSON of every record (last write
        per key wins), by default with ``wall_clock_s`` zeroed -- host
        timing is the one field two byte-identical runs legitimately
        disagree on.  Serial, parallel and union-of-shards runs of the
        same matrix therefore share one digest.
        """
        digest = hashlib.sha256()
        index = self.load_index()
        for key in sorted(index):
            payload = index[key].to_dict()
            if not include_wall_clock:
                payload["wall_clock_s"] = 0.0
            digest.update(key.encode("utf-8"))
            digest.update(b"\0")
            digest.update(json.dumps(payload, sort_keys=True).encode("utf-8"))
            digest.update(b"\0")
        return digest.hexdigest()


def read_record_log(path: Union[str, Path]) -> List[Tuple[str, RunRecord]]:
    """Read a record log (a store directory or a ``records.jsonl`` file).

    Returns ``(key, record)`` pairs in append order, skipping a truncated
    tail line.  The streaming companion of
    :func:`repro.harness.reporting.sweep_from_json` for mid-run inspection.
    """
    target = Path(path)
    if target.is_dir():
        return list(ExperimentStore(target).entries())
    store = ExperimentStore(target.parent)
    if target.name != RECORDS_FILE:
        raise ValueError(
            f"{target} is neither a store directory nor a {RECORDS_FILE} file"
        )
    return list(store.entries())


def union_stores(
    target: ExperimentStore, sources: Sequence[ExperimentStore]
) -> int:
    """Append every record missing from ``target`` out of ``sources``.

    The merge tool for shard mode: each machine runs its shard into its own
    store, and the union reassembles the full matrix.  Records are copied
    in key-sorted order (deterministic merge output); keys already present
    in ``target`` are kept as-is.  Returns the number of records copied.
    """
    have = set(target.load_index())
    merged: Dict[str, RunRecord] = {}
    for source in sources:
        for key, record in source.entries():
            if key not in have:
                merged[key] = record
    for key in sorted(merged):
        target.append(key, merged[key])
    return len(merged)
