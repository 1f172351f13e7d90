"""End-to-end and per-layer benchmark of the VANET routing simulator.

Run from the repository root::

    python3 perfbench/run.py --workload categories --seed 1 --seconds 25 --trace 0

``--workload`` is one of ``categories``, ``bsm-storm`` or ``stored-sweep``
(see ``perfbench/workloads.py``).  A run draws one input per case of the
workload from ``--seed`` at a time (a *group*) and runs it, for a third of
``--seconds``; then it runs every group twice more in the same order, so
the three executions of one input lie seconds apart.  Every repeat must
reproduce the first execution's simulated results exactly.

Times are taken in a way that survives a shared host:

* a unit's time is the fastest of its three executions (contention only
  ever adds time);
* each execution's time is scaled by ``REFERENCE_S / local probe``, where
  the local probe is the fastest run of the fixed reference loop in
  ``perfbench/calibrate.py`` within ``PROBE_WINDOW_S`` seconds of it, so a
  slow phase of the host scales out.  Times read as milliseconds on a host
  where the probe takes ``REFERENCE_S``.

``--trace 0`` reports the end-to-end metrics:

* ``unit_ms`` -- one round of units: per case the mean unit time over the
  run's inputs, summed over the workload's cases;
* ``us_per_event`` -- host microseconds per simulated event: summed unit
  times over summed event counts;
* ``setup_s`` -- median over fresh interpreters of the time from start to
  built networks for the workload's first inputs (imports, registry
  resolution, scenario and network build, source digest for stored sweeps).

``--trace 1`` runs the same loop with spans at the layer boundaries (see
``perfbench/layers.py``) and reports each layer's self time and call count
per unit execution, plus work counts and useful-work ratios.

The last line of output is one JSON object with the keys ``correct``,
``attempted`` (unit executions), ``failed`` (inputs whose execution raised,
failed a check or did not repeat) and ``metrics``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REPEATS = 3
SETUP_PROBES = 5
PROBE_WINDOW_S = 4.0
PROBE_TIMEOUT_S = 120


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    done = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--probe-setup",
            "--workload",
            workload,
            "--seed",
            str(seed),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Unit:
    """One input of one case, executed ``REPEATS`` times."""

    def __init__(self, case, seed: int) -> None:
        self.case = case
        self.seed = seed
        self.times = []
        #: When each execution started and how long the probe before it took.
        self.probes = []
        self.events = 0
        self.outcome = None
        self.failed = False


class Measurement:
    """The measured loop of one run: units, host probes and failures."""

    def __init__(self, workload, seed: int, scratch: Path, counter, tracer) -> None:
        self.workload = workload
        self.rng = random.Random(seed)
        self.scratch = scratch
        self.counter = counter
        self.tracer = tracer
        self.groups = []
        self.probes = []
        self.attempted = 0
        self.errors = []

    def run(self, seconds: float, probe) -> None:
        # First pass: draw and run new inputs for a share of the budget;
        # later passes re-run the same inputs in the same order, so the
        # repeats of one input are that share of the budget apart.
        deadline = time.perf_counter() + seconds / REPEATS
        while not self.groups or time.perf_counter() < deadline:
            group = [Unit(case, self.rng.randrange(1, 2**31)) for case in self.workload.cases]
            self.groups.append(group)
            self._run_pass(group, probe)
        for _ in range(REPEATS - 1):
            for group in self.groups:
                self._run_pass(group, probe)
        self.errors.extend(self.workload.final_checks(self.groups[0][0].seed, self.scratch))

    def _run_pass(self, group, probe) -> None:
        for unit in group:
            if unit.failed:
                continue
            self.attempted += 1
            try:
                self._execute(unit, probe)
            except Exception:
                unit.failed = True
                self.errors.append(traceback.format_exc())

    def _execute(self, unit: Unit, probe) -> None:
        # Start every execution from a collected heap, so the collector's
        # pauses inside it depend on the unit alone.
        gc.collect()
        sample = (time.perf_counter(), probe())
        self.probes.append(sample)
        unit.probes.append(sample)
        events_before = self.counter.events
        started = time.perf_counter()
        if self.tracer is not None:
            outcome = self.tracer.span(
                "harness", self.workload.run_unit, unit.case, unit.seed, self.scratch
            )
        else:
            outcome = self.workload.run_unit(unit.case, unit.seed, self.scratch)
        unit.times.append(time.perf_counter() - started)
        if unit.outcome is None:
            unit.outcome = outcome
            unit.events = self.counter.events - events_before
            if outcome.errors:
                raise AssertionError("; ".join(outcome.errors))
        elif outcome.fingerprint != unit.outcome.fingerprint:
            raise AssertionError(
                f"{unit.case.label}: repeating seed {unit.seed} gave different results"
            )

    def local_probe(self, at: float) -> float:
        """Fastest probe within ``PROBE_WINDOW_S`` of ``at``."""
        return min(
            seconds for when, seconds in self.probes if abs(when - at) <= PROBE_WINDOW_S
        )


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(best_by_case, best_total, events_total, setup_samples) -> dict:
    return {
        "unit_ms": _metric(
            1000.0 * sum(sum(times) / len(times) for times in best_by_case.values()), "ms"
        ),
        "us_per_event": _metric(1e6 * best_total / max(events_total, 1), "us"),
        "setup_s": _metric(statistics.median(setup_samples), "s"),
    }


def _per_layer(tracer, layers, good, executions, scale, events_total) -> dict:
    metrics = {}
    for layer in layers:
        metrics[f"{layer}_ms"] = _metric(
            scale * 1000.0 * tracer.self_s[layer] / executions, "ms"
        )
        metrics[f"{layer}_calls"] = _metric(tracer.calls[layer] / executions, "count")
    outcomes = [unit.outcome for unit in good]
    frames = sum(outcome.frames for outcome in outcomes)
    cells = sum(outcome.cells for outcome in outcomes)
    metrics["host_scale"] = _metric(scale, "ratio")
    metrics["events"] = _metric(events_total / len(good), "count")
    metrics["frames"] = _metric(frames / len(good), "count")
    metrics["collisions_per_frame"] = _metric(
        sum(outcome.collisions for outcome in outcomes) / max(frames, 1.0), "ratio"
    )
    metrics["delivery_ratio"] = _metric(
        sum(outcome.delivery_ratio_sum for outcome in outcomes) / max(cells, 1), "ratio"
    )
    metrics["cells"] = _metric(cells / len(good), "count")
    metrics["store_writes"] = _metric(
        sum(outcome.store_writes for outcome in outcomes) / len(good), "count"
    )
    metrics["reused_cells"] = _metric(
        sum(outcome.reused_cells for outcome in outcomes) / len(good), "count"
    )
    return metrics


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.probe_setup:
        workload.set_up(args.seed)
        print(time.perf_counter() - _STARTED)
        return 0

    from calibrate import REFERENCE_S, probe
    from layers import LAYERS, EventCounter, LayerTracer

    setup_samples = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        before = probe()
        elapsed = _probe_setup(workload.name, args.seed)
        setup_samples.append(elapsed * REFERENCE_S / min(before, probe()))

    scratch_root = ROOT / ".perfbench"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    counter = EventCounter().install()
    tracer = LayerTracer().install() if args.trace else None
    measurement = Measurement(workload, args.seed, scratch, counter, tracer)
    try:
        measurement.run(args.seconds, probe)
    finally:
        if tracer is not None:
            tracer.uninstall()
        counter.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    for message in measurement.errors:
        print(message, file=sys.stderr)
    units = [unit for group in measurement.groups for unit in group]
    good = [unit for unit in units if not unit.failed]
    best = {
        id(unit): min(
            elapsed * REFERENCE_S / measurement.local_probe(at)
            for elapsed, (at, _) in zip(unit.times, unit.probes)
        )
        for unit in good
    }
    best_by_case = {case.label: [] for case in workload.cases}
    for unit in good:
        best_by_case[unit.case.label].append(best[id(unit)])
    measured = all(best_by_case.values())
    events_total = sum(unit.events for unit in good)
    scale = REFERENCE_S / statistics.median(
        measurement.local_probe(at) for at, _ in measurement.probes
    )
    metrics = {}
    if measured and tracer is None:
        metrics = _end_to_end(best_by_case, sum(best.values()), events_total, setup_samples)
    elif measured:
        executions = sum(len(unit.times) for unit in units)
        metrics = _per_layer(tracer, LAYERS, good, executions, scale, events_total)

    raw_ms = 1000.0 * sum(min(unit.times) for unit in good) / max(len(measurement.groups), 1)
    cases = ", ".join(
        f"{label} {len(times)}x{1000.0 * sum(times) / max(len(times), 1):.1f}ms"
        for label, times in best_by_case.items()
    )
    print(
        f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
        f"{len(good)} inputs x {REPEATS} ({cases}); {events_total} events; "
        f"host scale {scale:.3f}, unscaled round {raw_ms:.1f} ms"
    )
    for name, metric in metrics.items():
        print(f"  {name:<22} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": measured and not measurement.errors,
                "attempted": measurement.attempted,
                "failed": len(units) - len(good),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
