"""End-to-end monitor integration: golden byte-identity, sweeps, workloads.

Three load-bearing guarantees are pinned here:

* a zero-monitor run still produces the exact metrics and event trace the
  pre-monitor code produced (``zero_monitor_golden.json`` was generated
  on the tree *before* the event-tap seam landed; its ``infrastructure``
  and ``event-burst-storm`` cells, whose receivers send from inside a
  reception, were added on the tree before claimed frames landed);
* attaching monitors changes *nothing* about the run itself -- the traces
  still match the pre-monitor golden bytes, the probes only add ``extra``
  keys;
* ``workers=N`` sweep telemetry is byte-identical to serial, because all
  lines are written by the parent through the in-order ``on_result`` hook.

Packet ``uid``s come from a process-global counter, so trace bytes depend
on every allocation since interpreter start.  The golden digests were
generated in a fresh process; the byte-identity tests therefore replay
the exact same run sequence in a fresh subprocess instead of inheriting
pytest's allocation history.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.runner import ExperimentRunner
from repro.harness.scenario import Scenario, highway_scenario
from repro.harness.sweep import sweep_replications
from repro.mobility.generator import TrafficDensity
from repro.monitors import check_telemetry_schema_version
from repro.workloads import WORKLOADS
from repro.workloads.registry import with_traffic

REPO_SRC = Path(__file__).parents[2] / "src"
GOLDEN_PATH = Path(__file__).parent.parent / "harness" / "data" / "zero_monitor_golden.json"

#: Replays the golden fixture's generation sequence -- same run order, same
#: fresh process -- optionally with monitors attached, and prints the same
#: digests/metrics the fixture holds.  Substitute MONITORS before running.
GOLDEN_REPLAY = """
import hashlib, json
from repro.harness.runner import ExperimentRunner
from repro.harness.scenario import Scenario
from repro.harness.scenarios import scenario_from_name
from repro.mobility.generator import TrafficDensity
from repro.protocols.location import LocationService
from repro.protocols.registry import make_protocol_factory
from repro.workloads import WORKLOADS

MONITORS = __MONITORS__

def run_traced(scenario, protocol):
    runner = ExperimentRunner(trace_enabled=True, trace_max_records=None)
    built = runner.build(scenario)
    location_service = LocationService(built.network, rng=built.sim.rng.stream("location"))
    factory = make_protocol_factory(protocol, config=None,
                                    location_service=location_service,
                                    road_graph=built.road_graph)
    built.network.attach_protocols(factory)
    workload = WORKLOADS.resolve(scenario.workload, **dict(scenario.workload_params))
    workload.build(scenario, built, built.sim.rng.stream("traffic"))
    built.network.start()
    built.sim.run(until=scenario.duration_s + scenario.drain_s)
    return built

def trace_digest(trace):
    h = hashlib.sha256()
    for r in trace:
        h.update(repr((r.time, r.category, r.node_id, sorted(r.detail.items()))).encode())
    return h.hexdigest()

out = {}
for workload in ("cbr", "safety-beacon"):
    scenario = Scenario(
        name=f"golden-{workload}",
        kind="highway",
        density=TrafficDensity.SPARSE,
        duration_s=12.0,
        drain_s=2.0,
        seed=7,
        max_vehicles=30,
        workload=workload,
        monitors=tuple(MONITORS),
    )
    built = run_traced(scenario, "Greedy")
    result = ExperimentRunner().run(scenario, "Greedy")
    out[workload] = {
        "trace_sha256": trace_digest(built.trace),
        "trace_records": len(built.trace),
        "summary": result.summary,
        "extra": result.extra,
    }
# Cells whose receivers send or schedule from inside a reception (RSU-Relay
# flushes its buffer on a HELLO, event-burst relays warnings); they run
# after the two cells above so those keep their uid sequence.
_SMALL = {"duration_s": 4.0, "drain_s": 1.0, "max_vehicles": 40}
for label, protocol, preset, overrides in (
    ("infrastructure", "RSU-Relay", "city-grid-2km-sparse", {
        "workload_params": {"flow_count": 8, "start_time_s": 1.0,
                            "interval_s": 0.5, "packet_count": 6}}),
    ("event-burst-storm", "Greedy", "highway-2km-normal",
     {"workload": "event-burst-storm"}),
):
    scenario = scenario_from_name(
        preset, seed=1, name=f"golden-{label}", monitors=tuple(MONITORS),
        **_SMALL, **overrides,
    )
    built = run_traced(scenario, protocol)
    assert built.trace.dropped == 0
    result = ExperimentRunner().run(scenario, protocol)
    out[label] = {
        "trace_sha256": trace_digest(built.trace),
        "trace_records": len(built.trace),
        "summary": result.summary,
        "extra": result.extra,
    }
print(json.dumps(out))
"""


def _replay_golden(monitors=()) -> dict:
    script = GOLDEN_REPLAY.replace("__MONITORS__", repr(tuple(monitors)))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_zero_monitor_run_matches_pre_monitor_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    replay = _replay_golden()
    assert set(replay) == set(golden)
    for workload in golden:
        assert replay[workload]["trace_records"] == golden[workload]["trace_records"]
        assert replay[workload]["trace_sha256"] == golden[workload]["trace_sha256"]
        assert replay[workload]["summary"] == golden[workload]["summary"]
        assert replay[workload]["extra"] == golden[workload]["extra"]


def test_monitored_run_keeps_golden_trace_bytes():
    """Probes are passive: even WITH monitors the pre-monitor bytes hold."""
    golden = json.loads(GOLDEN_PATH.read_text())
    replay = _replay_golden(monitors=("latency-dist", "timeseries", "invariant"))
    assert set(replay) == set(golden)
    for workload in golden:
        assert replay[workload]["trace_sha256"] == golden[workload]["trace_sha256"]
        assert replay[workload]["summary"] == golden[workload]["summary"]
        # Monitors only *add* extra keys; the pre-existing ones are untouched.
        extra = replay[workload]["extra"]
        assert {k: v for k, v in extra.items() if k in golden[workload]["extra"]} == (
            golden[workload]["extra"]
        )
        assert extra["invariant_violations"] == 0.0
        assert extra["latency_samples"] > 0
        assert extra["timeseries_buckets"] > 0


def _sweep_scenario() -> Scenario:
    return highway_scenario(
        TrafficDensity.SPARSE,
        name="monitor-sweep",
        duration_s=6.0,
        max_vehicles=15,
        workload_params={"flow_count": 2},
        seed=1,
    )


def test_parallel_sweep_telemetry_is_byte_identical_to_serial(tmp_path):
    serial_path = tmp_path / "serial.jsonl"
    parallel_path = tmp_path / "parallel.jsonl"
    kwargs = dict(seeds=[1, 2], monitors=["latency-dist", "invariant"])
    serial = sweep_replications(
        [_sweep_scenario()], ["Greedy", "Flooding"],
        workers=1, telemetry=serial_path, **kwargs,
    )
    parallel = sweep_replications(
        [_sweep_scenario()], ["Greedy", "Flooding"],
        workers=2, telemetry=parallel_path, **kwargs,
    )
    assert serial_path.read_bytes() == parallel_path.read_bytes()
    lines = serial_path.read_text().splitlines()
    assert len(lines) > 0
    for line in lines:
        check_telemetry_schema_version(json.loads(line))
    # Monitor summaries reached the records and the aggregates on both paths.
    for result in (serial, parallel):
        assert all(r.extra.get("invariant_violations") == 0.0 for r in result.records)
        assert any("latency_p95_s_mean" in row for row in result.rows(["latency_p95_s"]))


def test_sweep_without_monitors_rejects_telemetry(tmp_path):
    with pytest.raises(ValueError, match="telemetry sink given without monitors"):
        sweep_replications(
            [_sweep_scenario()],
            ["Greedy"],
            seeds=[1],
            telemetry=tmp_path / "never.jsonl",
        )


def test_monitor_params_must_name_swept_monitors():
    with pytest.raises(ValueError, match="not in the sweep's monitor set"):
        sweep_replications(
            [_sweep_scenario()],
            ["Greedy"],
            seeds=[1],
            monitors=["invariant"],
            monitor_params={"latency-dist": {"bin_ratio": 1.01}},
        )


@pytest.mark.parametrize("workload", WORKLOADS.names())
def test_invariant_probe_passes_on_every_builtin_workload(workload):
    scenario = highway_scenario(
        TrafficDensity.SPARSE,
        name=f"invariant-{workload}",
        duration_s=6.0,
        max_vehicles=12,
        seed=3,
        rsu_spacing_m=600.0,  # so the v2i workload has infrastructure
        workload=workload,
        monitors=("invariant",),
        monitor_params={"invariant": {"checkpoint_interval_s": 1.0}},
    )
    scenario = with_traffic(scenario, {"flows": 2})
    result = ExperimentRunner().run(scenario, "Greedy")
    assert result.extra["invariant_violations"] == 0.0
