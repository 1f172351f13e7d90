"""Acceptance: hard-kill a sweep mid-run, resume, get byte-identical results.

The interrupted process is a real subprocess killed with SIGKILL (no
cleanup handlers run), covering the whole crash path: fsync'd per-record
appends, truncated-tail tolerance, and content-addressed resume -- with
``workers=2``, so pool workers are in flight when the sweep dies.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness.reporting import sweep_from_store
from repro.harness.scenario import Scenario, highway_scenario
from repro.harness.sweep import sweep_replications
from repro.mobility.generator import TrafficDensity
from repro.store.store import RECORDS_FILE, ExperimentStore

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="relies on POSIX process groups and SIGKILL"
)

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

#: The sweep run by the victim subprocess and by the reference/resume runs:
#: 2 protocols x 3 seeds = 6 cells of the tiny scenario.
PROTOCOLS = ["Greedy", "Flooding"]
SEEDS = [1, 2, 3]

CHILD_SCRIPT = """
import sys
from repro.harness.scenario import highway_scenario
from repro.harness.sweep import sweep_replications
from repro.mobility.generator import TrafficDensity

scenario = highway_scenario(
    TrafficDensity.SPARSE, name="kill", duration_s=6.0,
    max_vehicles=15, workload_params={{"flow_count": 2}},
)
sweep_replications(
    [scenario], {protocols!r}, {seeds!r},
    workers=2, store={store!r},
)
"""


def _tiny_scenario() -> Scenario:
    return highway_scenario(
        TrafficDensity.SPARSE,
        name="kill",
        duration_s=6.0,
        max_vehicles=15,
        workload_params={"flow_count": 2},
    )


def _complete_lines(path: Path) -> int:
    if not path.exists():
        return 0
    data = path.read_bytes()
    return data.count(b"\n")


def test_kill_and_resume_is_byte_identical(tmp_path):
    store_dir = tmp_path / "store"
    records = store_dir / RECORDS_FILE
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO_SRC}{os.pathsep}{env.get('PYTHONPATH', '')}".rstrip(
        os.pathsep
    )
    script = CHILD_SCRIPT.format(
        protocols=PROTOCOLS, seeds=SEEDS, store=str(store_dir)
    )
    # New session: SIGKILL to the group takes the pool workers down with the
    # parent, exactly like a crashed box or an impatient operator.
    victim = subprocess.Popen(
        [sys.executable, "-c", script],
        env=env,
        start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if _complete_lines(records) >= 1 or victim.poll() is not None:
                break
            time.sleep(0.05)
        else:
            pytest.fail("victim sweep produced no records within the deadline")
    finally:
        if victim.poll() is None:
            os.killpg(victim.pid, signal.SIGKILL)
        victim.wait(timeout=30)

    landed = _complete_lines(records)
    assert landed >= 1
    assert ExperimentStore(store_dir).verify().ok  # truncated tail at worst

    scenario = _tiny_scenario()
    resumed = sweep_replications(
        [scenario],
        PROTOCOLS,
        SEEDS,
        workers=2,
        store=store_dir,
    )
    # Only the missing cells ran (duplicate keys would mean re-execution).
    assert resumed.reused_cells == landed
    assert resumed.executed_cells == len(PROTOCOLS) * len(SEEDS) - landed
    assert ExperimentStore(store_dir).verify().duplicate_keys == 0

    scratch = sweep_replications([scenario], PROTOCOLS, SEEDS, workers=2)
    # Byte-identical final aggregates, interrupted+resumed vs uninterrupted.
    assert json.dumps(
        [cell.to_dict() for cell in resumed.replicated], sort_keys=True
    ) == json.dumps([cell.to_dict() for cell in scratch.replicated], sort_keys=True)
    # And record-for-record equality modulo host timing.
    strip = lambda record: dict(record.to_dict(), wall_clock_s=0.0)  # noqa: E731
    assert [strip(a) for a in resumed.records] == [strip(b) for b in scratch.records]

    # The store now holds the full matrix: aggregating it directly agrees.
    stored = sweep_from_store(store_dir)
    assert json.dumps(
        [cell.to_dict() for cell in stored.replicated], sort_keys=True
    ) == json.dumps([cell.to_dict() for cell in scratch.replicated], sort_keys=True)
