"""Paired parent/change runs of the end-to-end benchmark, recorded as one row.

A speed claim compares two source trees: the parent commit and the change.
This script runs each checkout's own ``perfbench/run.py`` (the benchmark
``BENCHMARK.json`` declares) in alternating pairs and appends one row to
``BENCH_perfbench_pairs.json``:

* both checkouts sit at paths of equal length, so path strings cost the
  same on both sides;
* every pair draws a fresh seed, shared by its two runs, and the side that
  runs first alternates from pair to pair;
* per workload and end-to-end metric the row holds both sides' medians and
  quartiles, the median ratio, how many pairs the change won, whether the
  median gap exceeds the parent's interquartile range, and the raw values;
* one traced pair (``--trace 1``) of ``bsm-storm``, on its own fresh seed,
  adds both sides' per-layer self times and call counts;
* the row is keyed by both checkouts' ``HEAD`` commits and the git tree ids
  of their ``src/``, which name the measured code even before a change is
  committed.

Run from the repository root, with both checkouts clean git repositories::

    python3 benchmarks/ab_pairs.py --parent ../pa/repo --change ../ch/repo \\
        --pairs 10 --seconds 25

Smoke mode (one short pair of one checkout against itself, row written to
a scratch file)::

    python3 benchmarks/ab_pairs.py --parent . --change . --pairs 1 \\
        --seconds 1 --out /tmp/pairs.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
RESULTS_JSON = ROOT / "BENCH_perfbench_pairs.json"
#: Workload of the traced pair.
TRACED_WORKLOAD = "bsm-storm"
SCHEMA_VERSION = 1

#: Keys of one row, and of one metric summary inside it.
ROW_FIELDS = frozenset(
    {
        "parent",
        "change",
        "recorded",
        "host",
        "seconds",
        "pairs",
        "seeds",
        "note",
        "workloads",
        "traced",
    }
)
SIDE_FIELDS = frozenset({"commit", "src_tree"})
METRIC_FIELDS = frozenset(
    {
        "unit",
        "better",
        "parent",
        "change",
        "ratio",
        "wins",
        "pairs",
        "gap_exceeds_parent_iqr",
        "runs",
    }
)
SPREAD_FIELDS = frozenset({"median", "q1", "q3"})

#: ``run(checkout, workload, seed, seconds, trace) -> result``: one
#: benchmark run, its last output line parsed (see :func:`run_perfbench`).
Runner = Callable[[Path, str, int, float, int], dict]


def benchmark_spec(root: Path = ROOT) -> dict:
    """``BENCHMARK.json`` of ``root``: workloads and end-to-end metrics."""
    return json.loads((root / "BENCHMARK.json").read_text())


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run ``checkout``'s benchmark once and parse its last line.

    A run that crashes or prints no result counts as one failed, incorrect
    run with no metrics.
    """
    done = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if done.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(done.stderr[-2000:])
        return {"correct": False, "failed": 1, "metrics": {}}
    return result


def git_identity(checkout: Path) -> Dict[str, str]:
    """``HEAD`` commit and ``src/`` tree id of a clean git checkout."""

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(checkout), *args],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()

    if git("status", "--porcelain", "--", "src", "perfbench"):
        raise SystemExit(
            f"ab_pairs: {checkout} has uncommitted changes under src/ or "
            "perfbench/; the row could not name the measured code"
        )
    return {"commit": git("rev-parse", "HEAD"), "src_tree": git("rev-parse", "HEAD:src")}


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(parent: Sequence[float], change: Sequence[float], unit: str, better: str) -> dict:
    """One metric's pair summary; ``parent[i]`` and ``change[i]`` form pair ``i``."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher' (got {better!r})")
    sign = 1.0 if better == "lower" else -1.0
    before, after = spread(parent), spread(change)
    gap = sign * (before["median"] - after["median"])
    return {
        "unit": unit,
        "better": better,
        "parent": before,
        "change": after,
        "ratio": after["median"] / before["median"] if before["median"] else None,
        "wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "gap_exceeds_parent_iqr": gap > before["q3"] - before["q1"],
        "runs": {"parent": list(parent), "change": list(change)},
    }


def collect(
    parent: Path,
    change: Path,
    workloads: Sequence[str],
    metrics: Sequence[dict],
    seeds: Sequence[int],
    seconds: float,
    traced: Optional[str],
    traced_seed: int,
    run: Runner = run_perfbench,
) -> dict:
    """Run the pairs and the traced pair; the row minus its identity fields."""
    sides = {"parent": parent, "change": change}
    values = {w: {m["name"]: {"parent": [], "change": []} for m in metrics} for w in workloads}
    health = {w: {"failed": {"parent": 0, "change": 0}, "correct": True} for w in workloads}
    for index, seed in enumerate(seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                result = run(sides[side], workload, seed, seconds, 0)
                health[workload]["failed"][side] += int(result.get("failed", 1))
                health[workload]["correct"] &= result.get("correct") is True
                for metric in metrics:
                    entry = result.get("metrics", {}).get(metric["name"])
                    values[workload][metric["name"]][side].append(
                        entry["value"] if entry else float("nan")
                    )
                print(
                    f"ab_pairs: pair {index + 1}/{len(seeds)} {workload} {side} "
                    f"seed={seed}: "
                    + ", ".join(
                        f"{m['name']}={values[workload][m['name']][side][-1]:.4g}"
                        for m in metrics
                    ),
                    file=sys.stderr,
                )
    summary = {
        workload: {
            **health[workload],
            "metrics": {
                m["name"]: summarise(
                    values[workload][m["name"]]["parent"],
                    values[workload][m["name"]]["change"],
                    m["unit"],
                    m["better"],
                )
                for m in metrics
            },
        }
        for workload in workloads
    }
    traced_row = None
    if traced is not None:
        traced_row = {"workload": traced, "seed": traced_seed}
        for side in ("parent", "change"):
            result = run(sides[side], traced, traced_seed, seconds, 1)
            traced_row[side] = {
                name: entry["value"] for name, entry in result.get("metrics", {}).items()
            }
            traced_row[f"{side}_correct"] = result.get("correct") is True
    return {"seconds": seconds, "pairs": len(seeds), "seeds": list(seeds),
            "workloads": summary, "traced": traced_row}


def check_row(row: dict, workloads: Sequence[str], metric_names: Sequence[str]) -> None:
    """Raise ``ValueError`` unless ``row`` has the documented shape."""
    missing = ROW_FIELDS - set(row)
    if missing:
        raise ValueError(f"row lacks {sorted(missing)}")
    for side in ("parent", "change"):
        if set(row[side]) != SIDE_FIELDS:
            raise ValueError(f"{side} identity must be {sorted(SIDE_FIELDS)}")
    if row["pairs"] != len(row["seeds"]) or row["pairs"] < 1:
        raise ValueError("pairs must equal the number of seeds and be >= 1")
    for workload in workloads:
        entry = row["workloads"].get(workload)
        if entry is None:
            raise ValueError(f"row lacks workload {workload!r}")
        if set(entry["failed"]) != {"parent", "change"}:
            raise ValueError(f"{workload}: failed counts must name both sides")
        for name in metric_names:
            summary = entry["metrics"].get(name)
            if summary is None or set(summary) != METRIC_FIELDS:
                raise ValueError(f"{workload}/{name}: fields must be {sorted(METRIC_FIELDS)}")
            for side in ("parent", "change"):
                if set(summary[side]) != SPREAD_FIELDS:
                    raise ValueError(f"{workload}/{name}/{side}: needs median and quartiles")
                if len(summary["runs"][side]) != row["pairs"]:
                    raise ValueError(f"{workload}/{name}: one {side} run per pair")
            if not 0 <= summary["wins"] <= summary["pairs"] == row["pairs"]:
                raise ValueError(f"{workload}/{name}: wins out of range")
    traced = row["traced"]
    if traced is not None and not {"workload", "seed", "parent", "change"} <= set(traced):
        raise ValueError("traced pair needs workload, seed and both sides' metrics")


def append_row(path: Path, row: dict) -> None:
    """Append ``row`` to the results file, creating it when absent."""
    payload = {"schema": SCHEMA_VERSION, "rows": []}
    if path.exists():
        payload = json.loads(path.read_text())
    payload["rows"].append(row)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument(
        "--workloads", nargs="+", help="default: every workload in BENCHMARK.json"
    )
    parser.add_argument("--note", default="", help="free text stored with the row")
    parser.add_argument("--out", type=Path, default=RESULTS_JSON)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if len(str(parent)) != len(str(change)):
        raise SystemExit(
            f"ab_pairs: checkout paths differ in length ({parent} vs {change})"
        )
    if args.pairs < 1:
        raise SystemExit("ab_pairs: --pairs must be >= 1")
    spec = benchmark_spec()
    workloads: List[str] = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    fresh = random.SystemRandom()
    seeds = [fresh.randrange(1, 1_000_000) for _ in range(args.pairs)]
    identity = {"parent": git_identity(parent), "change": git_identity(change)}
    row = {
        **identity,
        "recorded": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "note": args.note,
        **collect(
            parent,
            change,
            workloads,
            metrics,
            seeds,
            args.seconds,
            TRACED_WORKLOAD,
            fresh.randrange(1, 1_000_000),
        ),
    }
    check_row(row, workloads, [m["name"] for m in metrics])
    append_row(args.out, row)
    for workload, entry in row["workloads"].items():
        for name, summary in entry["metrics"].items():
            print(
                f"{workload:<13} {name:<13} {summary['parent']['median']:.4g} -> "
                f"{summary['change']['median']:.4g} {summary['unit']} "
                f"(x{summary['ratio'] or float('nan'):.3f}, "
                f"{summary['wins']}/{summary['pairs']} pairs won, "
                f"gap > parent IQR: {summary['gap_exceeds_parent_iqr']})"
            )
    print(f"appended a row to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
