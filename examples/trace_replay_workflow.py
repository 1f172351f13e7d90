"""Trace workflow: record a floating-car-data trace and replay it as a scenario.

Real VANET studies drive their simulations from SUMO floating-car-data (FCD)
exports.  Offline we substitute traces recorded from our own mobility models
(see the README's scenario registry), but the workflow is identical: record
(or import) a trace, then run it like any other scenario -- since the
scenario registry, a trace is a first-class scenario kind (``kind="trace"``
/ ``trace:<path>``), so the whole harness (runner, sweeps, CLI) applies
unchanged.

This example records the exact highway mobility the runner would build for a
given scenario seed, replays the file through ``trace_scenario()``, and runs
the same protocol both ways: because the recording grid matches the mobility
step, the replayed vehicles move identically and the metrics agree.

Run with::

    python examples/trace_replay_workflow.py

The same file is also runnable straight from the CLI::

    python -m repro.cli run Greedy --scenario trace:/tmp/repro_highway_trace.csv
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.harness import ExperimentRunner, format_table, highway_scenario, trace_scenario
from repro.mobility.fcd_trace import record_fcd_trace, write_fcd_trace
from repro.mobility.generator import TrafficDensity, make_highway_scenario
from repro.sim.rng import RandomStreams

SEED = 19


def main() -> None:
    live = highway_scenario(
        TrafficDensity.NORMAL,
        seed=SEED,
        max_vehicles=50,
        duration_s=30.0,
        workload_params={"flow_count": 4},
    )

    print("1. Recording the FCD trace of that scenario's mobility...")
    # The scenario registry seeds mobility from the simulator's "mobility"
    # stream; deriving the same stream here reproduces the exact vehicle
    # population and trajectories the live run below will see.
    source_model = make_highway_scenario(
        live.density,
        config=live.highway,
        max_vehicles=live.max_vehicles,
        rng=RandomStreams(SEED).stream("mobility"),
    )
    samples = record_fcd_trace(
        source_model,
        duration=live.duration_s + live.drain_s,
        dt=live.mobility_step_s,
    )
    trace_path = Path(tempfile.gettempdir()) / "repro_highway_trace.csv"
    write_fcd_trace(trace_path, samples)
    print(f"   wrote {len(samples)} samples for {len(source_model.vehicles)} vehicles "
          f"to {trace_path}")

    print("2. Replaying the trace as a first-class scenario...")
    replay = trace_scenario(
        str(trace_path),
        name="replayed-highway",
        seed=SEED,
        duration_s=live.duration_s,
        workload_params=live.workload_params,
    )
    runner = ExperimentRunner()
    replay_result = runner.run(replay, "Greedy")

    print("3. Running the live IDM model (same seed) for comparison...")
    live_result = runner.run(live, "Greedy")

    rows = [
        {
            "mobility source": "recorded trace (replayed)",
            "delivery_ratio": replay_result.delivery_ratio,
            "mean_delay_s": replay_result.summary["mean_delay_s"],
            "mean_hops": replay_result.summary["mean_hops"],
        },
        {
            "mobility source": "live IDM model",
            "delivery_ratio": live_result.delivery_ratio,
            "mean_delay_s": live_result.summary["mean_delay_s"],
            "mean_hops": live_result.summary["mean_hops"],
        },
    ]
    print()
    print(format_table(rows, title="Greedy routing: replayed trace vs. live mobility"))
    print()
    print("The rows agree because the replay reproduces the recorded motion on the")
    print("same 0.5 s grid the live network steps on.  Any table in the same format")
    print("(time, vehicle id, x, y, speed, heading) works identically -- including")
    print("real SUMO FCD exports converted to CSV -- via trace_scenario(path) or")
    print("--scenario trace:<path> on the CLI.")


if __name__ == "__main__":
    main()
