"""The benchmark's workloads: what one measured unit of work is, and its checks.

Each workload is a list of *cases*; a run draws one input (a seed) per case
at a time.  A unit is a call users make through the public API, start to
finish:

* ``categories`` -- one full-stack simulation cell
  (``ExperimentRunner.run``: workload -> protocol -> MAC -> medium ->
  stats) per protocol category of the paper, each on a registered scenario
  preset that suits it, with short CBR flows.  The probability category
  runs REAR: Yan-TBP's cost swings by +-20% with the topology a seed
  draws, which would drown the category mix in input noise.
* ``bsm-storm`` -- one full-stack cell of a 10 Hz basic-safety-message
  storm (the ``safety-beacon-10hz`` workload) in the congested city-core
  preset: channel and MAC bound, routing bypassed.
* ``stored-sweep`` -- one ``sweep_replications`` call that streams a small
  matrix into a fresh experiment store (one fsync'd append per cell),
  followed by the warm re-run users make after an interruption, which
  must execute nothing and reuse every cell.

Every unit is checked: metric ranges and traffic offered, and for the sweep
the cold/warm record equality.  Once per run the sweep's store must also
pass its own verification, and a stored record must equal a direct run of
the same cell.  ``run.py`` checks that repeated executions of a unit
reproduce its fingerprint exactly.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from repro.harness.runner import ExperimentRunner
from repro.harness.scenarios import scenario_from_name
from repro.harness.sweep import sweep_replications

#: Short CBR flows for the simulation cells: 8 flows x 6 packets at 2 Hz.
_CBR = {"flow_count": 8, "start_time_s": 1.0, "interval_s": 0.5, "packet_count": 6}

#: Scenario overrides of the small cells (categories and sweep matrices).
_SMALL_CELL = (
    ("duration_s", 4.0),
    ("drain_s", 1.0),
    ("max_vehicles", 40),
    ("workload_params", _CBR),
)


@dataclass(frozen=True)
class Case:
    """Protocols on one scenario preset, with scenario overrides.

    A simulation cell runs the first protocol; a sweep runs them all.
    """

    label: str
    protocols: Tuple[str, ...]
    preset: str
    overrides: Tuple[Tuple[str, object], ...] = ()

    def scenario(self, seed: int):
        return scenario_from_name(
            self.preset, seed=seed, name=self.label, **dict(self.overrides)
        )


@dataclass
class Outcome:
    """What one unit produced: counts for the metrics, and check failures."""

    cells: int = 0
    frames: float = 0.0
    collisions: float = 0.0
    #: Sum over cells of the simulated delivery ratio.
    delivery_ratio_sum: float = 0.0
    store_writes: int = 0
    reused_cells: int = 0
    #: Exact fingerprint of the simulated results (for the repeat check).
    fingerprint: object = None
    errors: List[str] = field(default_factory=list)

    def add_cell(self, summary: Dict[str, float], where: str) -> None:
        """Count one cell's summary and check its ranges."""
        self.cells += 1
        self.frames += summary["data_transmissions"] + summary["control_transmissions"]
        self.collisions += summary["mac_collisions"]
        self.delivery_ratio_sum += summary["delivery_ratio"]
        ratio = summary["delivery_ratio"]
        if not 0.0 <= ratio <= 1.0:
            self.errors.append(f"{where}: delivery_ratio {ratio} outside [0, 1]")
        negative = sorted(key for key, value in summary.items() if value < 0)
        if negative:
            self.errors.append(f"{where}: negative metrics {negative}")
        if summary["data_sent"] <= 0:
            self.errors.append(f"{where}: no application traffic was offered")


#: One representative protocol per category of the paper's taxonomy.
CATEGORY_CASES: Tuple[Case, ...] = (
    Case("connectivity", ("AODV",), "highway-2km-normal", _SMALL_CELL),
    Case("mobility", ("PBR",), "highway-2km-normal", _SMALL_CELL),
    Case("infrastructure", ("RSU-Relay",), "city-grid-2km-sparse", _SMALL_CELL),
    Case("geographic", ("Greedy",), "manhattan-800m-normal", _SMALL_CELL),
    Case("probability", ("REAR",), "highway-2km-normal", _SMALL_CELL),
)

#: 150 vehicles in the 1 km congested core, 300-byte BSMs at 10 Hz for
#: 0.5 s: short cells, so a run averages over many inputs.
STORM_CASES: Tuple[Case, ...] = (
    Case(
        "bsm-storm",
        ("Greedy",),
        "city-core-1km-congested",
        (
            ("duration_s", 1.0),
            ("drain_s", 0.2),
            ("max_vehicles", 150),
            ("workload", "safety-beacon-10hz"),
            ("workload_params", {"start_time_s": 0.5, "size_bytes": 300}),
        ),
    ),
)

#: The sweep matrix: one small scenario x two protocols x two seeds.  Its
#: cells carry 30 vehicles, so store and harness work stay a visible share.
SWEEP_CASES: Tuple[Case, ...] = (
    Case(
        "stored-sweep",
        ("Greedy", "AODV"),
        "highway-2km-normal",
        _SMALL_CELL + (("max_vehicles", 30),),
    ),
)
SWEEP_SEEDS = 2


def run_cell(case: Case, seed: int) -> Outcome:
    """One full-stack simulation cell through ``ExperimentRunner.run``."""
    result = ExperimentRunner().run(case.scenario(seed), case.protocols[0])
    outcome = Outcome(fingerprint=sorted(result.summary.items()))
    outcome.add_cell(result.summary, f"{case.label} seed {seed}")
    return outcome


def _sweep(case: Case, seed: int, store_dir: Path):
    seeds = [seed + offset for offset in range(SWEEP_SEEDS)]
    return sweep_replications([case.scenario(seed)], case.protocols, seeds, store=store_dir)


def run_stored_sweep(case: Case, seed: int, scratch: Path) -> Outcome:
    """A cold stored sweep of the case's matrix, then the warm re-run."""
    store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=scratch))
    try:
        cold = _sweep(case, seed, store_dir)
        warm = _sweep(case, seed, store_dir)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    outcome = Outcome(
        store_writes=cold.executed_cells,
        reused_cells=warm.reused_cells,
        fingerprint=[sorted(record.summary.items()) for record in cold.records],
    )
    where = f"{case.label} seed {seed}"
    cells = len(case.protocols) * SWEEP_SEEDS
    if (cold.executed_cells, cold.reused_cells) != (cells, 0):
        outcome.errors.append(
            f"{where}: cold sweep executed {cold.executed_cells} and reused "
            f"{cold.reused_cells} of {cells} cells"
        )
    if (warm.executed_cells, warm.reused_cells) != (0, cells):
        outcome.errors.append(
            f"{where}: warm re-run executed {warm.executed_cells} and reused "
            f"{warm.reused_cells} of {cells} cells"
        )
    if warm.records != cold.records:
        outcome.errors.append(f"{where}: stored records differ from the cold sweep")
    for record in cold.records:
        outcome.add_cell(record.summary, f"{where} {record.protocol}")
    return outcome


def verify_store(case: Case, seed: int, scratch: Path) -> List[str]:
    """Store-level checks, made once per run outside the measured loop."""
    from repro.store import ExperimentStore

    store_dir = Path(tempfile.mkdtemp(prefix="verify-", dir=scratch))
    errors: List[str] = []
    try:
        swept = _sweep(case, seed, store_dir)
        store = ExperimentStore(store_dir)
        report = store.verify()
        if not report.ok or len(store) != len(swept.records):
            errors.append(f"{case.label}: store verification failed: {report}")
        first = swept.records[0]
        direct = ExperimentRunner().run(case.scenario(first.seed), first.protocol)
        if direct.summary != first.summary:
            errors.append(f"{case.label}: stored record differs from a direct run")
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    return errors


@dataclass(frozen=True)
class BenchWorkload:
    name: str
    cases: Tuple[Case, ...]
    stored: bool = False

    def run_unit(self, case: Case, seed: int, scratch: Path) -> Outcome:
        if self.stored:
            return run_stored_sweep(case, seed, scratch)
        return run_cell(case, seed)

    def final_checks(self, seed: int, scratch: Path) -> List[str]:
        if self.stored:
            return verify_store(self.cases[0], seed, scratch)
        return []

    def set_up(self, seed: int) -> None:
        """Build the live network of the first unit of every case (not run).

        A stored sweep also digests the source tree for its cell keys.
        """
        if self.stored:
            from repro.store import code_version

            code_version()
        runner = ExperimentRunner()
        for case in self.cases:
            runner.build(case.scenario(seed))


WORKLOADS: Dict[str, BenchWorkload] = {
    "categories": BenchWorkload("categories", CATEGORY_CASES),
    "bsm-storm": BenchWorkload("bsm-storm", STORM_CASES),
    "stored-sweep": BenchWorkload("stored-sweep", SWEEP_CASES, stored=True),
}
