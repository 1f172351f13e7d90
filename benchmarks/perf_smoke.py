"""CI perf-smoke: a scaled-down beacon storm plus a results-schema check.

Three guarantees, cheap enough for every CI run:

1. **Backend equality still holds on the storm path.**  Runs the Part B
   beacon storm from :mod:`benchmarks.bench_medium_scaling` at N=800
   (same congested density, ~1/8 the population) through the grid and
   vectorized backends and asserts byte-identical transmission and
   collision counts.  This is the delivery-path invariant the full
   benchmark pins at N=6400; the smoke cell catches regressions without
   the multi-minute reference run.

2. **The committed results file keeps its schema.**  Docs and CI quote
   ``BENCH_medium_scaling.json`` by key; a benchmark refactor that
   renames or drops fields would silently break them.  The check diffs
   the committed payload against the schema this script expects.

3. **The array path keeps its lead.**  At N=800 the vectorized backend
   completes every frame on the numpy array path, the grid backend on the
   scalar loop.  Both backends are timed in this process, alternately,
   and the best-of-N vectorized ``frames_per_s`` must stay at least
   :data:`MIN_VECTORIZED_SPEEDUP` times the best-of-N grid rate.  A ratio
   measured on one host needs no baseline recorded on another, so the
   guard holds at its default on any machine.

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.perf_smoke
"""

from __future__ import annotations

import json
import sys

from benchmarks.bench_medium_scaling import (
    RESULTS_JSON,
    STORM_SCALE_VEHICLES,
    run_storm_cell,
)

SMOKE_VEHICLES = 800

#: Timing runs per backend; the fastest one is the measurement.
PERF_BEST_OF = 3

#: Floor on best-of-N vectorized frames/s over best-of-N grid frames/s at
#: N=800.  Five runs on a 2-vCPU x86_64 host (Python 3.11) measured
#: 2.13-2.40; a 0.1 ms stall per array completion brought it to 1.37.
MIN_VECTORIZED_SPEEDUP = 1.6

#: Fields every storm row must carry (the JSON contract docs quote from).
STORM_ROW_FIELDS = {
    "vehicles",
    "backend",
    "radio",
    "beacon_hz",
    "wall_s",
    "frames",
    "frames_per_s",
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
    "vectorized_s",
    "linear_frames_per_s",
    "grid_frames_per_s",
    "vectorized_frames_per_s",
    "grid_speedup",
    "vectorized_speedup",
    "tx_linear",
    "tx_grid",
    "tx_vectorized",
}


def smoke_storm(vehicles: int = SMOKE_VEHICLES, repeats: int = PERF_BEST_OF) -> dict:
    """Grid vs. vectorized at smoke scale; returns each backend's fastest row.

    The backends alternate run by run, so a slow spell on a shared host
    hits both of them rather than one.
    """
    best: dict = {}
    for _ in range(max(1, repeats)):
        for backend in ("grid", "vectorized"):
            row = run_storm_cell(backend, vehicles)
            if backend not in best or row["wall_s"] < best[backend]["wall_s"]:
                best[backend] = row
    grid, vectorized = best["grid"], best["vectorized"]
    assert grid["transmissions"] == vectorized["transmissions"], (
        grid["transmissions"],
        vectorized["transmissions"],
    )
    assert grid["collisions"] == vectorized["collisions"], (
        grid["collisions"],
        vectorized["collisions"],
    )
    assert grid["frames"] > 0
    return best


def guard_speedup(rows: dict, floor: float = MIN_VECTORIZED_SPEEDUP) -> str:
    """Assert the vectorized/grid frames/s ratio is at least ``floor``.

    Returns a report line on success; raises AssertionError naming both
    rates, the ratio and the floor otherwise.
    """
    grid = rows["grid"]["frames_per_s"]
    vectorized = rows["vectorized"]["frames_per_s"]
    ratio = vectorized / grid
    assert ratio >= floor, (
        f"vectorized storm lost its lead: {vectorized:.1f} frames/s vs grid "
        f"{grid:.1f} is x{ratio:.2f}, below the x{floor:.2f} floor"
    )
    return (
        f"vectorized {vectorized:.1f} frames/s / grid {grid:.1f} = "
        f"x{ratio:.2f} (floor x{floor:.2f})"
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
    for backend in ("grid", "vectorized"):
        assert backend in storm, f"storm section missing {backend!r} row"
        gap = STORM_ROW_FIELDS - set(storm[backend])
        assert not gap, f"storm {backend} row missing fields: {sorted(gap)}"
    assert "speedup" in storm
    # The recorded headline cell must itself satisfy backend equality.
    assert (
        storm["grid"]["transmissions"] == storm["vectorized"]["transmissions"]
    ), "recorded storm rows disagree on transmissions"
    assert (
        storm["grid"]["collisions"] == storm["vectorized"]["collisions"]
    ), "recorded storm rows disagree on collisions"

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
    rows = smoke_storm()
    grid, vectorized = rows["grid"], rows["vectorized"]
    print(
        f"storm smoke N={SMOKE_VEHICLES} (best of {PERF_BEST_OF}): "
        f"grid {grid['wall_s']:.2f}s / vectorized {vectorized['wall_s']:.2f}s, "
        f"tx={grid['transmissions']} collisions={grid['collisions']} "
        f"(byte-identical)"
    )
    check_results_schema()
    print(f"{RESULTS_JSON.name} schema OK")
    print(f"perf guard {guard_speedup(rows)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
