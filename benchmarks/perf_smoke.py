"""CI perf-smoke: a scaled-down beacon storm plus a results-schema check.

Three guarantees, cheap enough for every CI run:

1. **The storm's channel outcomes do not drift.**  Runs the Part B beacon
   storm from :mod:`benchmarks.bench_medium_scaling` at N=800 (same
   congested density, ~1/8 the population) and asserts its pinned
   transmission and collision counts.  This is the delivery-path
   invariant the full benchmark pins at N=6400 and N=20000; the smoke cell
   catches regressions without the multi-minute reference runs.

2. **The committed results file keeps its schema.**  Docs and CI quote
   ``BENCH_medium_scaling.json`` by key; a benchmark refactor that
   renames or drops fields would silently break them.  The check diffs
   the committed payload against the schema this script expects.

3. **Frame delivery keeps its speed.**  The storm's best-of-N frames/s,
   read in host-probe units (``frames/s * probe / REFERENCE_S``, see
   :func:`~benchmarks.bench_medium_scaling.probe_scaled_rate`), must stay
   at least :data:`MIN_PROBE_RATE`.  The probe slows down with the host,
   so the product tracks the code rather than a slow phase of a shared
   machine.

Run from the repository root::

    PYTHONPATH=src:. python -m benchmarks.perf_smoke
"""

from __future__ import annotations

import json
import sys

from benchmarks.bench_medium_scaling import (
    RESULTS_JSON,
    STORM_SCALE_VEHICLES,
    STORM_VEHICLES,
    check_storm_counts,
    run_storm_cell,
)

SMOKE_VEHICLES = 800

#: Timing runs; the fastest one (in probe units) is the measurement.
PERF_BEST_OF = 3

#: Floor on the N=800 storm's best-of-N frames/s in host-probe units.  Five
#: clean runs on a shared 2-vCPU x86_64 host (Python 3.11) read 10362-13215;
#: two runs of a copy stalling 0.1 ms per frame completion read 6998 and 7117.
MIN_PROBE_RATE = 9000.0

#: Fields every storm row must carry (the JSON contract docs quote from).
STORM_ROW_FIELDS = {
    "vehicles",
    "radio",
    "beacon_hz",
    "wall_s",
    "frames",
    "frames_per_s",
    "probe_s",
    "probe_frames_per_s",
    "transmissions",
    "collisions",
}

#: Fields every Part A scaling row must carry.
SCALING_ROW_FIELDS = {
    "vehicles",
    "radio",
    "frames",
    "linear_s",
    "grid_s",
    "linear_frames_per_s",
    "grid_frames_per_s",
    "grid_speedup",
    "tx_linear",
    "tx_grid",
}


def smoke_storm(vehicles: int = SMOKE_VEHICLES, repeats: int = PERF_BEST_OF) -> dict:
    """The storm at smoke scale; returns the fastest row in probe units.

    Every run must carry the pinned counts.
    """
    best = None
    for _ in range(max(1, repeats)):
        row = run_storm_cell(vehicles)
        check_storm_counts(row)
        if best is None or row["probe_frames_per_s"] > best["probe_frames_per_s"]:
            best = row
    return best


def guard_rate(row: dict, floor: float = MIN_PROBE_RATE) -> str:
    """Assert the storm's frames/s in probe units is at least ``floor``.

    Returns a report line on success; raises AssertionError naming the
    raw rate, the probe, the scaled rate and the floor otherwise.
    """
    rate = row["probe_frames_per_s"]
    assert rate >= floor, (
        f"storm frame delivery slowed down: {row['frames_per_s']:.1f} frames/s "
        f"with a {row['probe_s'] * 1e3:.2f} ms probe is {rate:.1f} in probe "
        f"units, below the {floor:.1f} floor"
    )
    return (
        f"{row['frames_per_s']:.1f} frames/s, probe {row['probe_s'] * 1e3:.2f} ms: "
        f"{rate:.1f} in probe units (floor {floor:.1f})"
    )


def check_results_schema(path=RESULTS_JSON) -> dict:
    """Validate the committed BENCH_medium_scaling.json against the contract."""
    payload = json.loads(path.read_text())
    missing = {
        "benchmark",
        "generated_by",
        "scaling",
        "storm",
        "storm_scale",
    } - set(payload)
    assert not missing, f"results file missing top-level keys: {sorted(missing)}"
    assert payload["benchmark"] == "medium_scaling"

    assert payload["scaling"], "scaling section is empty"
    for row in payload["scaling"]:
        gap = SCALING_ROW_FIELDS - set(row)
        assert not gap, f"scaling row missing fields: {sorted(gap)}"

    storm = payload["storm"]
    gap = STORM_ROW_FIELDS - set(storm)
    assert not gap, f"storm row missing fields: {sorted(gap)}"
    assert storm["vehicles"] == STORM_VEHICLES, f"storm row is not N={STORM_VEHICLES}"
    # The recorded headline cell must itself carry the pinned counts.
    check_storm_counts(storm)

    scale_rows = payload["storm_scale"]
    assert scale_rows, "storm_scale section is empty"
    for row in scale_rows:
        gap = STORM_ROW_FIELDS - set(row)
        assert not gap, f"storm_scale row missing fields: {sorted(gap)}"
    assert any(
        row["vehicles"] == STORM_SCALE_VEHICLES for row in scale_rows
    ), f"no storm_scale row at N={STORM_SCALE_VEHICLES}"

    return payload


def main() -> int:
    row = smoke_storm()
    print(
        f"storm smoke N={SMOKE_VEHICLES} (best of {PERF_BEST_OF}): "
        f"{row['wall_s']:.2f}s, tx={row['transmissions']} "
        f"collisions={row['collisions']} (pinned)"
    )
    check_results_schema()
    print(f"{RESULTS_JSON.name} schema OK")
    print(f"perf guard {guard_rate(row)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
