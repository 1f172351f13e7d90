"""Streaming JSONL telemetry: schema version, line encoding, sinks.

Monitors observe the sim through the event tap and emit *telemetry
events* -- one JSON object per line, written as they happen so a
consumer can tail the file mid-run.  Like store records
(:mod:`repro.store.schema`), every line is stamped with an explicit
schema version so readers fail loudly on a format they do not know,
instead of silently misparsing.

Envelope (schema version 1) -- present on every line:

* ``v``       -- integer telemetry schema version,
* ``event``   -- event type string (``run_start``, ``latency``,
  ``bucket``, ``heatmap``, ``invariant``, ``violation``, ``run_end``,
  ...),
* ``t``       -- simulation time of the event in seconds (never wall
  clock: telemetry must be byte-deterministic),
* ``monitor`` -- name of the emitting monitor (``"harness"`` for the
  run_start/run_end framing events).

All remaining keys are event-specific.  Lines are rendered with sorted
keys and minimal separators, so the same run produces the same bytes on
every machine -- the property the serial-vs-parallel sweep test pins.

``TELEMETRY_SCHEMA_VERSION`` / ``TELEMETRY_FIELDS`` are checked on import
(rule ``SCHEMA-002``, :func:`repro.store.schema.check_catalogue`): the
catalogue runs from version 1 without a gap, holds the current version,
and every envelope keeps the ``v`` key.  Bump the version and extend the
catalogue together, never mutate an existing entry.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.store.schema import check_catalogue

#: Version stamped into every telemetry line this build emits.
TELEMETRY_SCHEMA_VERSION: int = 1

#: Catalogue of known telemetry schema versions -> required envelope keys.
#: Every line of version ``v`` carries at least ``TELEMETRY_FIELDS[v]``.
TELEMETRY_FIELDS: Dict[int, Tuple[str, ...]] = {
    1: ("v", "event", "t", "monitor"),
}
check_catalogue(
    "TELEMETRY_FIELDS", TELEMETRY_FIELDS, TELEMETRY_SCHEMA_VERSION, required=("v",)
)

KNOWN_TELEMETRY_SCHEMA_VERSIONS: Tuple[int, ...] = tuple(sorted(TELEMETRY_FIELDS))


def check_telemetry_schema_version(payload: Mapping[str, object], what: str = "telemetry line") -> int:
    """Validate the schema envelope of one decoded telemetry line.

    Returns the line's schema version.  Raises :class:`ValueError` with an
    actionable message when the version is missing, non-integer, or not in
    the catalogue, or when a required envelope key is absent.
    """
    version = payload.get("v")
    if version is None:
        raise ValueError(
            f"{what} carries no telemetry schema version ('v' key); "
            "refusing to guess the format"
        )
    if not isinstance(version, int) or isinstance(version, bool):
        raise ValueError(f"{what} has non-integer telemetry schema version {version!r}")
    if version not in TELEMETRY_FIELDS:
        known = ", ".join(str(v) for v in KNOWN_TELEMETRY_SCHEMA_VERSIONS)
        raise ValueError(
            f"{what} has unknown telemetry schema version {version} "
            f"(this build knows: {known}); upgrade the reader instead of "
            "skipping the line"
        )
    missing = [key for key in TELEMETRY_FIELDS[version] if key not in payload]
    if missing:
        raise ValueError(f"{what} (v{version}) is missing envelope keys: {missing}")
    return version


def telemetry_line(event: str, t: float, monitor: str, **fields: object) -> str:
    """Render one telemetry event as its canonical JSONL line (no newline).

    Keys are sorted and separators minimal, so identical events are
    identical bytes -- the basis of serial == parallel telemetry.
    """
    payload: Dict[str, object] = {
        "v": TELEMETRY_SCHEMA_VERSION,
        "event": event,
        "t": t,
        "monitor": monitor,
    }
    payload.update(fields)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------- sinks
class TelemetrySink:
    """Destination for telemetry lines.  Subclasses override :meth:`write`."""

    def write(self, line: str) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources.  Safe to call more than once."""


class JsonlFileSink(TelemetrySink):
    """Appends lines to a JSONL file, flushing per line for mid-run tailing.

    The file is truncated on the first write (each sink owns its file),
    opened lazily so constructing the sink never touches the filesystem.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._handle = None

    def write(self, line: str) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("w", encoding="utf-8")
        self._handle.write(line + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class BufferSink(TelemetrySink):
    """Collects lines in memory (sweep workers ship these to the parent)."""

    def __init__(self) -> None:
        self.lines: List[str] = []

    def write(self, line: str) -> None:
        self.lines.append(line)


class CallbackSink(TelemetrySink):
    """Forwards every line to a callable (live dashboards, tests)."""

    def __init__(self, callback: Callable[[str], None]):
        self.callback = callback

    def write(self, line: str) -> None:
        self.callback(line)


def resolve_sink(
    spec: Union[None, str, Path, Callable[[str], None], TelemetrySink],
) -> Tuple[Optional[TelemetrySink], bool]:
    """Coerce a user-facing telemetry spec into a sink.

    Accepts ``None`` (no telemetry), a path (JSONL file), a callable
    (per-line callback), or an existing sink.  Returns ``(sink, owned)``
    where ``owned`` tells the caller whether it created the sink and is
    therefore responsible for closing it.
    """
    if spec is None:
        return None, False
    if isinstance(spec, TelemetrySink):
        return spec, False
    if isinstance(spec, (str, Path)):
        return JsonlFileSink(spec), True
    if callable(spec):
        return CallbackSink(spec), True
    raise TypeError(f"cannot interpret telemetry spec {spec!r} as a sink")
