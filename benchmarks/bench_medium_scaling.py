"""Scaling benchmark: linear-scan oracle vs. grid vs. vectorized wireless medium.

Part A (the scaling sweep) holds vehicle density constant by growing a
synthetic arterial+grid *city* with the population (the scenario-registry
``city`` kind, so the N sweep exercises the exact build path city presets
use), sweeps the population, and times an identical broadcast workload
through both spatial backends and through the test suite's linear-scan
oracle (a grid medium whose node index returns every node).  A scan over
all N registered nodes per delivered frame makes frame delivery cost O(N)
and a beacon interval O(N^2); the uniform-grid index bounds both by the
local neighbourhood, and
the struct-of-arrays vectorized backend evaluates that neighbourhood's
physics as numpy array expressions instead of per-candidate Python.

The sweep also carries a radio axis: the default ``ideal-disk-250m`` stack
(finite range, where the three columns are trace-for-trace identical and the
transmission counts must match exactly) and the ``nakagami`` fading stack
(unbounded mean path loss, where the grid applies the documented sub-cutoff
approximation and the runs are only statistically comparable -- the speedup
columns track that regime too).

Part B (the beacon storm) is the headline cell for the vectorized backend:
a congested dense urban core (3.6 km x 3.6 km, 100 m blocks) with N=6400
vehicles each broadcasting 300-byte BSMs at 10 Hz.  Frames are injected
straight into the medium (the MAC's carrier-sense deferrals would otherwise
reshape the offered load, and the medium is the system under test), so the
timed work is pure frame delivery: candidate gather, propagation,
interference and reception for ~64k frames.  The grid and vectorized
backends must agree on every transmission and collision count, and the
vectorized backend must deliver at least a 2.4x wall-clock speedup.

Both parts are written to ``BENCH_medium_scaling.json`` at the repository
root as machine-readable rows (vehicles / backend / radio / wall seconds /
frames per second / speedup) so docs and CI can quote the numbers without
scraping benchmark output.
"""

from __future__ import annotations

import json
import math
import random
import time
from pathlib import Path
from typing import NamedTuple

from repro.harness.runner import ExperimentRunner
from repro.harness.scenario import city_scenario
from repro.harness.sweep import execute_cells
from repro.mobility.generator import TrafficDensity
from repro.roadnet.city import CityConfig
from repro.sim.packet import BROADCAST, make_control_packet

from benchmarks.common import report, run_once, sweep_workers

#: Vehicles per square metre: 16 per km^2 -- a city-scale map much larger
#: than the radio range, which is exactly the regime the index targets (the
#: linear scan pays for every vehicle on the map per frame; the grid only
#: pays for the radio neighbourhood).
DENSITY_PER_M2 = 16e-6

POPULATIONS = [100, 400, 1600]
FRAMES_PER_NODE = 2
BLOCK_SIZE_M = 200.0

#: The columns Part A compares, as ``(spatial_backend, oracle)``: the
#: linear-scan oracle (the seed's O(N) baseline) and both spatial backends.
BACKENDS = [("grid", True), ("grid", False), ("vectorized", False)]

#: Radio axis: the finite-range default (exact backend equivalence) and the
#: Nakagami fading stack (grid sub-cutoff approximation regime).
RADIOS = ["ideal-disk-250m", "nakagami"]

#: Part B: the congested-core beacon storm.  36x36 blocks of 100 m hold
#: exactly STORM_VEHICLES at the CONGESTED street density, packing the
#: vehicles densely enough that every frame reaches a three-digit candidate
#: neighbourhood -- the regime the vectorized delivery path exists for.
STORM_VEHICLES = 6400
STORM_BLOCKS = 36
STORM_BLOCK_SIZE_M = 100.0
STORM_BEACON_HZ = 10.0
STORM_BEACONS_PER_NODE = 10
STORM_BEACON_BYTES = 300
STORM_RADIO = "ideal-disk-250m"

#: Part B scale row: the same congested core grown to 20k vehicles (the
#: population the scheduler/delivery-path overhaul targets).  Vectorized
#: only -- the grid reference at this size is CI-hostile, and the backends
#: already pin byte-equality at N=6400.
STORM_SCALE_VEHICLES = 20000

#: Machine-readable results land at the repository root (benchmarks/results/
#: is gitignored; this file is meant to be committed alongside doc updates).
RESULTS_JSON = Path(__file__).resolve().parent.parent / "BENCH_medium_scaling.json"


def _city_blocks(n: int) -> int:
    """City side length (in blocks) holding DENSITY_PER_M2 for ``n`` vehicles."""
    side_m = math.sqrt(n / DENSITY_PER_M2)
    return max(2, int(round(side_m / BLOCK_SIZE_M)))


def _build_network(n: int, backend: str, radio: str, oracle: bool, seed: int = 5):
    """Instantiate a constant-density city scenario through the runner.

    With ``oracle`` the medium scans exhaustively (the test suite's oracle).
    """
    blocks = _city_blocks(n)
    scenario = city_scenario(
        TrafficDensity.NORMAL,
        name=f"bench-city-{n}-{'linear' if oracle else backend}-{radio}",
        city=CityConfig(blocks_x=blocks, blocks_y=blocks, block_size_m=BLOCK_SIZE_M),
        max_vehicles=n,
        seed=seed,
        spatial_backend=backend,
        radio_stack=radio,
    )
    built = ExperimentRunner().build(scenario)
    if oracle:
        # Imported here so that importing this module (perf_smoke does, for
        # the storm cell) does not pull in the test package.
        from tests.helpers import use_linear_scan

        use_linear_scan(built.network.medium)
    return built.sim, built.network, built.stats


class ScalingCell(NamedTuple):
    """One (population, backend, oracle, radio) run of the scaling matrix (picklable)."""

    vehicles: int
    backend: str
    oracle: bool
    radio: str


#: The explicit run matrix this benchmark executes through the sweep layer.
CELLS = [
    ScalingCell(n, backend, oracle, radio)
    for n in POPULATIONS
    for backend, oracle in BACKENDS
    for radio in RADIOS
]

#: Worker processes.  Defaults to serial execution because the measured
#: quantity is wall-clock time: co-scheduled workers would contend for CPU
#: and distort the backend comparison.  Deliberately NOT the shared
#: REPRO_SWEEP_WORKERS variable: set REPRO_SCALING_WORKERS only for a quick
#: sweep where the timing columns do not matter.
WORKERS = sweep_workers(var="REPRO_SCALING_WORKERS")


def run_scaling_cell(cell: ScalingCell) -> dict:
    """Broadcast beacon-sized frames from every node and time frame delivery.

    The network is deliberately not started: no mobility stepping, HELLO
    beaconing or routing runs, so the timed event load is pure frame
    delivery through the medium under the cell's backend and radio stack.
    """
    sim, network, stats = _build_network(
        cell.vehicles, cell.backend, cell.radio, cell.oracle
    )
    rng = random.Random(99)
    sends = []
    for node in network.nodes.values():
        for _ in range(FRAMES_PER_NODE):
            packet = make_control_packet(
                "bench", "HELLO", node.node_id, BROADCAST, size_bytes=32
            )
            sends.append(
                (rng.uniform(0.0, 2.0), node.send, (packet, BROADCAST), 0)
            )
    sim.schedule_at_many(sends)
    started = time.perf_counter()
    sim.run(until=5.0)
    wall = time.perf_counter() - started
    return {
        "vehicles": cell.vehicles,
        "backend": cell.backend,
        "oracle": cell.oracle,
        "radio": cell.radio,
        "wall_s": wall,
        "transmissions": stats.control_transmissions,
    }


def _sweep():
    outcomes = execute_cells(CELLS, run_scaling_cell, workers=WORKERS)
    by_cell = {
        (o["vehicles"], o["backend"], o["oracle"], o["radio"]): o for o in outcomes
    }
    rows = []
    for n in POPULATIONS:
        for radio in RADIOS:
            linear = by_cell[(n, "grid", True, radio)]
            grid = by_cell[(n, "grid", False, radio)]
            vectorized = by_cell[(n, "vectorized", False, radio)]
            frames = n * FRAMES_PER_NODE
            rows.append(
                {
                    "vehicles": n,
                    "radio": radio,
                    "frames": frames,
                    "linear_s": round(linear["wall_s"], 4),
                    "grid_s": round(grid["wall_s"], 4),
                    "vectorized_s": round(vectorized["wall_s"], 4),
                    "linear_frames_per_s": round(frames / max(linear["wall_s"], 1e-9), 1),
                    "grid_frames_per_s": round(frames / max(grid["wall_s"], 1e-9), 1),
                    "vectorized_frames_per_s": round(
                        frames / max(vectorized["wall_s"], 1e-9), 1
                    ),
                    "grid_speedup": round(
                        linear["wall_s"] / max(grid["wall_s"], 1e-9), 2
                    ),
                    "vectorized_speedup": round(
                        linear["wall_s"] / max(vectorized["wall_s"], 1e-9), 2
                    ),
                    "tx_linear": linear["transmissions"],
                    "tx_grid": grid["transmissions"],
                    "tx_vectorized": vectorized["transmissions"],
                }
            )
    return rows


def storm_blocks_for(vehicles: int) -> int:
    """Blocks per side holding ``vehicles`` at the N=6400 storm's density.

    The congested core's vehicles-per-block ratio is kept constant as the
    population scales (area grows linearly with N), so every storm size
    exercises the same per-frame candidate neighbourhood.
    """
    return max(2, int(round(STORM_BLOCKS * math.sqrt(vehicles / STORM_VEHICLES))))


def _build_storm(backend: str, vehicles: int = STORM_VEHICLES):
    """The Part B network: congested dense core at exactly ``vehicles``."""
    blocks = storm_blocks_for(vehicles)
    scenario = city_scenario(
        TrafficDensity.CONGESTED,
        name=f"bench-storm-{vehicles}-{backend}",
        city=CityConfig(
            blocks_x=blocks,
            blocks_y=blocks,
            block_size_m=STORM_BLOCK_SIZE_M,
        ),
        max_vehicles=vehicles,
        seed=5,
        spatial_backend=backend,
        radio_stack=STORM_RADIO,
    )
    return ExperimentRunner().build(scenario)


def run_storm_cell(backend: str, vehicles: int = STORM_VEHICLES) -> dict:
    """Time the 10 Hz beacon storm through ``backend``.

    Every node broadcasts STORM_BEACONS_PER_NODE BSM-sized frames at
    STORM_BEACON_HZ, start offsets drawn uniformly inside one beacon
    period so the storm reaches steady state immediately.  Frames go
    straight into the medium (``begin_transmission``) rather than through
    the MAC: carrier-sense deferrals would spread the offered load and the
    cell is measuring frame delivery, not CSMA.
    """
    built = _build_storm(backend, vehicles)
    sim, network, stats = built.sim, built.network, built.stats
    node_count = len(network.nodes)
    assert node_count == vehicles, (
        f"storm geometry must hold exactly {vehicles} vehicles, "
        f"spawned {node_count}"
    )
    some_node = next(iter(network.nodes.values()))
    medium = some_node.mac.medium
    airtime = medium.mac_config.frame_airtime(STORM_BEACON_BYTES)
    period = 1.0 / STORM_BEACON_HZ
    rng = random.Random(99)
    sends = []
    for node in network.nodes.values():
        offset = rng.uniform(0.0, period)
        for k in range(STORM_BEACONS_PER_NODE):
            packet = make_control_packet(
                "bench", "BSM", node.node_id, BROADCAST, size_bytes=STORM_BEACON_BYTES
            )
            sends.append(
                (
                    offset + k * period,
                    medium.begin_transmission,
                    (node, packet, BROADCAST, airtime),
                    0,
                )
            )
    sim.schedule_at_many(sends)
    started = time.perf_counter()
    sim.run(until=STORM_BEACONS_PER_NODE * period + 2.0 * period)
    wall = time.perf_counter() - started
    frames = stats.control_transmissions
    return {
        "vehicles": node_count,
        "backend": backend,
        "radio": STORM_RADIO,
        "beacon_hz": STORM_BEACON_HZ,
        "wall_s": wall,
        "frames": frames,
        "frames_per_s": frames / wall if wall > 0 else 0.0,
        "transmissions": frames,
        "collisions": stats.mac_collisions,
    }


def _round_storm_row(row: dict) -> dict:
    row["wall_s"] = round(row["wall_s"], 4)
    row["frames_per_s"] = round(row["frames_per_s"], 1)
    return row


def _storm():
    """Grid first (the reference), then vectorized.

    Serial by construction -- the wall clocks are the measured quantity.
    """
    grid = _round_storm_row(run_storm_cell("grid"))
    vectorized = _round_storm_row(run_storm_cell("vectorized"))
    return {
        "grid": grid,
        "vectorized": vectorized,
        "speedup": round(grid["wall_s"] / max(vectorized["wall_s"], 1e-9), 2),
    }


def _storm_scale():
    """The N=20000 scale row: vectorized only (see STORM_SCALE_VEHICLES)."""
    return _round_storm_row(run_storm_cell("vectorized", STORM_SCALE_VEHICLES))


def _write_results_json(scaling_rows, storm, storm_scale) -> None:
    """Publish both parts as machine-readable rows at the repository root."""
    payload = {
        "benchmark": "medium_scaling",
        "generated_by": "benchmarks/bench_medium_scaling.py",
        "scaling": scaling_rows,
        "storm": storm,
        "storm_scale": [storm_scale],
    }
    RESULTS_JSON.write_text(json.dumps(payload, indent=2) + "\n")


def test_medium_scaling(benchmark):
    """Frame-delivery wall clock: oracle vs. both backends, plus the storm."""
    rows = run_once(benchmark, _sweep)
    report(
        "medium_scaling",
        rows,
        title="Wireless medium scaling -- linear vs. grid vs. vectorized (city kind)",
    )
    storm = _storm()
    storm_rows = [
        storm["grid"],
        storm["vectorized"],
        {"backend": "speedup", "wall_s": storm["speedup"]},
    ]
    report(
        "medium_scaling_storm",
        storm_rows,
        title=(
            "Beacon storm -- congested core, N=6400 at 10 Hz, grid vs. vectorized"
        ),
    )
    storm_scale = _storm_scale()
    report(
        "medium_scaling_storm_scale",
        [storm_scale],
        title="Beacon storm scale row -- N=20000, vectorized",
    )
    _write_results_json(rows, storm, storm_scale)
    for row in rows:
        if row["radio"] == "ideal-disk-250m":
            # Finite-range propagation: every column must push the same
            # frames through the channel (exact trace equivalence).  Under
            # fading the grid's sub-cutoff approximation may shift MAC
            # deferrals, so only the disk rows assert equality.
            assert row["tx_linear"] == row["tx_grid"] == row["tx_vectorized"]
    largest = [
        row for row in rows if row["vehicles"] == 1600 and row["radio"] == "ideal-disk-250m"
    ][0]
    # Acceptance bar for the grid index: >= 5x faster frame delivery at
    # N=1600 (a conservative floor; typical runs land far above it).
    assert largest["grid_speedup"] >= 5.0
    # Acceptance bars for the vectorized backend at storm scale: identical
    # channel outcomes to the grid reference, and a speedup over the grid
    # that must not decay.  The 2.4x floor sits between seven clean runs
    # (2.71-3.40x) and two runs stalling 0.1 ms per vectorized frame
    # completion (2.10x, 2.11x) on a shared 2-vCPU host; the old 5x bar
    # predates the grid path's later speed-ups.
    assert storm["grid"]["transmissions"] == storm["vectorized"]["transmissions"]
    assert storm["grid"]["collisions"] == storm["vectorized"]["collisions"]
    assert storm["speedup"] >= 2.4
    # The scale row just has to complete with the full offered load on the
    # board: 20k vehicles x 10 beacons, all delivered through the medium.
    assert storm_scale["vehicles"] == STORM_SCALE_VEHICLES
    assert storm_scale["frames"] == STORM_SCALE_VEHICLES * STORM_BEACONS_PER_NODE
