"""Shared-memory staging of built mobility for parallel sweeps.

A sweep matrix multiplies one scenario by protocols, workloads, radios
and seeds -- yet every cell sharing a (scenario core, seed) pair
rebuilds the *identical* mobility substrate from scratch in its worker
process: road graph, vehicle placement, desired speeds, all of it.  For
city-scale scenarios that build dwarfs the pickled cell description the
pool ships.

This module stages each distinct build exactly once in the parent and
publishes it through :mod:`multiprocessing.shared_memory`:

* :func:`mobility_build_key` -- the canonical "scenario core" key: every
  field that cannot influence :func:`~repro.harness.scenarios.build_mobility`
  (protocol, workload, radio, naming) is neutralised,
  so cells differing only along those axes share one staged build.  The seed
  stays in the key: different seeds are different substrates.
* :class:`MobilityArena` -- parent-side staging.  Per distinct key it derives
  the ``"mobility"`` stream exactly as ``Simulator`` would, runs the build,
  and writes one shared segment: a length header and the pickled
  ``(BuiltMobility, mobility_rng)`` pair (one dump, so the model's internal
  rng references survive).
* :func:`load_prebuilt` -- worker-side mapping.  Attaches the segment once
  per process (cached) and unpickles a *fresh* model per cell (cells must
  not share mutable state).

The sweep's cell worker (:func:`repro.harness.sweep.run_cell`) takes a
cell's :class:`ArenaTicket` and hands the loaded build to the runner.

Byte-equality: the staged rng is the same stream object the build advanced,
adopted into the worker's ``RandomStreams`` under ``"mobility"`` before
first use -- so every post-build draw continues exactly where a monolithic
build would.  Serial and parallel staged sweeps therefore reproduce the
unstaged sweep record for record.

Lifecycle: the parent unlinks every segment in ``finally``; workers that
attach must immediately detach the segment from their resource tracker
(Python 3.11 registers shared memory on *attach* as well as create, and
would otherwise unlink the parent's segment when the worker exits).  If the
parent itself dies before unlinking, its own resource tracker reaps the
leaked segments -- crashes do not strand ``/dev/shm`` entries.
"""

from __future__ import annotations

import pickle
import random
import struct
from dataclasses import dataclass, replace
from typing import Dict, NamedTuple, Tuple

from repro.harness.scenario import Scenario
from repro.harness.scenarios import BuiltMobility, build_mobility
from repro.sim.rng import RandomStreams

try:  # pragma: no cover - always present on CPython >= 3.8
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None

#: Segment layout: the pickle payload's length, then the payload.
_HEADER = struct.Struct("<Q")


def mobility_build_key(scenario: Scenario) -> str:
    """Canonical key of the mobility substrate a scenario builds.

    Neutralises every field :func:`~repro.harness.scenarios.build_mobility`
    cannot observe (verified: no scenario builder reads them), so sweep
    cells that differ only by protocol, workload (traffic included),
    radio, bus designation or report naming map to the
    same staged build.  Everything else -- kind, density, geometry configs,
    ``max_vehicles``, ``rsu_spacing_m``, ``mobility_step_s`` and crucially
    the ``seed`` -- stays in the key via the dataclass ``repr``.
    """
    core = replace(
        scenario,
        name="",
        workload="cbr",
        workload_params={},
        radio_stack=None,
        radio_params={},
        bus_count=0,
    )
    return repr(core)


@dataclass(frozen=True)
class ArenaTicket:
    """Picklable pointer to one staged build's shared segment."""

    shm_name: str


class PrebuiltMobility(NamedTuple):
    """One cell's private copy of a staged build (worker side).

    ``built`` and ``mobility_rng`` come out of a single pickle load, so the
    rng the mobility model captured internally and this top-level handle are
    the same object -- exactly the aliasing the monolithic build produces.
    """

    built: BuiltMobility
    mobility_rng: random.Random


class MobilityArena:
    """Parent-side staging area: one shared segment per distinct build."""

    def __init__(self) -> None:
        if shared_memory is None:  # pragma: no cover - CPython always has it
            raise RuntimeError(
                "shared-memory staging requires multiprocessing.shared_memory"
            )
        self._segments: Dict[str, Tuple["shared_memory.SharedMemory", ArenaTicket]] = {}

    def stage(self, scenario: Scenario) -> ArenaTicket:
        """Build (once) and publish the scenario's mobility substrate."""
        key = mobility_build_key(scenario)
        entry = self._segments.get(key)
        if entry is not None:
            return entry[1]
        # Identical derivation to Simulator(seed).rng.stream("mobility"):
        # streams are independent of creation order, so building here leaves
        # the worker's other streams ("radio", "traffic", ...) untouched.
        rng = RandomStreams(scenario.seed).stream("mobility")
        built = build_mobility(scenario, rng)
        payload = pickle.dumps((built, rng), protocol=pickle.HIGHEST_PROTOCOL)
        shm = shared_memory.SharedMemory(create=True, size=_HEADER.size + len(payload))
        try:
            _HEADER.pack_into(shm.buf, 0, len(payload))
            shm.buf[_HEADER.size : _HEADER.size + len(payload)] = payload
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        ticket = ArenaTicket(shm.name)
        _TRACKER_SHARED.add(shm.name)
        self._segments[key] = (shm, ticket)
        return ticket

    def close(self) -> None:
        """Unlink every staged segment (idempotent)."""
        for shm, _ in self._segments.values():
            try:
                shm.close()
            except BufferError:  # pragma: no cover - live exports keep it open
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already reaped
                pass
            _TRACKER_SHARED.discard(shm.name)
        self._segments.clear()

    def __enter__(self) -> "MobilityArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: Worker-process cache of attached segments: one attach per segment per
#: process, however many cells map it.
_ATTACHED: Dict[str, "shared_memory.SharedMemory"] = {}

#: Segments created by an arena whose tracker this process shares.  A
#: serial sweep attaches in the creating process itself, and fork-context
#: workers inherit both this set and the parent's resource-tracker
#: connection -- in both cases the attach-time registration is idempotent
#: (the tracker cache is a set) and must NOT be unregistered, or the
#: parent's own unlink bookkeeping breaks.  Spawn-context workers
#: re-import this module (empty set) and run their *own* tracker, where
#: the attach registration must be dropped or the worker's exit would
#: unlink the parent's live segment.
_TRACKER_SHARED: set = set()


def _attach(shm_name: str) -> "shared_memory.SharedMemory":
    shm = _ATTACHED.get(shm_name)
    if shm is None:
        shm = shared_memory.SharedMemory(name=shm_name)
        if shm_name not in _TRACKER_SHARED:
            try:
                # CPython 3.8+ registers shared memory with the resource
                # tracker on attach as well as create; in a process with its
                # own tracker that registration would unlink the parent's
                # segment when this worker exits.  The parent owns the
                # lifecycle, so detach.
                from multiprocessing import resource_tracker

                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker impl variance
                pass
        _ATTACHED[shm_name] = shm
    return shm


def detach_all() -> None:
    """Close this process's cached attachments (sweep teardown)."""
    for shm in _ATTACHED.values():
        try:
            shm.close()
        except BufferError:  # pragma: no cover - a view still references it
            pass
    _ATTACHED.clear()


def load_prebuilt(ticket: ArenaTicket) -> PrebuiltMobility:
    """Map a staged build: a fresh model and rng per call."""
    buf = _attach(ticket.shm_name).buf
    (payload_length,) = _HEADER.unpack_from(buf, 0)
    built, rng = pickle.loads(bytes(buf[_HEADER.size : _HEADER.size + payload_length]))
    return PrebuiltMobility(built, rng)
