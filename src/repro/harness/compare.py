"""Category-level comparison (the measured counterpart of the paper's Table I)."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.core.metrics import PAPER_TABLE_I
from repro.core.taxonomy import PROTOCOLS, Category
from repro.harness.runner import RunRecord, RunResult

#: Comparison helpers accept both the rich in-process result and the slim
#: picklable record produced by the parallel sweep layer; they only touch the
#: fields the two types share (scenario_name, protocol, summary, extra).
AnyResult = Union[RunResult, RunRecord]

#: The representative protocol the Table I benchmark runs for each category.
DEFAULT_REPRESENTATIVES: Dict[Category, str] = {
    Category.CONNECTIVITY: "AODV",
    Category.MOBILITY: "PBR",
    Category.INFRASTRUCTURE: "RSU-Relay",
    Category.GEOGRAPHIC: "Greedy",
    Category.PROBABILITY: "Yan-TBP",
}


def category_representatives(
    overrides: Optional[Dict[Category, str]] = None,
) -> Dict[Category, str]:
    """The protocol run for each category (defaults plus optional overrides)."""
    chosen = dict(DEFAULT_REPRESENTATIVES)
    if overrides:
        chosen.update(overrides)
    return chosen


def category_comparison(results: Iterable[AnyResult]) -> List[Dict[str, object]]:
    """Aggregate run results into one row per (scenario, category).

    Multiple protocols of the same category in the same scenario are averaged.
    Each row also carries the paper's qualitative pros/cons so reports can
    print the claim next to the measurement.
    """
    grouped: Dict[tuple, List[AnyResult]] = {}
    for result in results:
        category = PROTOCOLS[result.protocol].category
        grouped.setdefault((result.scenario_name, category), []).append(result)
    rows: List[Dict[str, object]] = []
    for (scenario_name, category), bucket in sorted(
        grouped.items(), key=lambda item: (item[0][0], item[0][1].value)
    ):
        profile = PAPER_TABLE_I[category]
        def mean(metric: str) -> float:
            values = [r.summary.get(metric, 0.0) for r in bucket]
            return sum(values) / len(values)

        rows.append(
            {
                "scenario": scenario_name,
                "category": category.value,
                "protocols": ", ".join(sorted({r.protocol for r in bucket})),
                "delivery_ratio": mean("delivery_ratio"),
                "mean_delay_s": mean("mean_delay_s"),
                "overhead_ratio": mean("overhead_ratio"),
                "transmissions_per_delivery": mean("transmissions_per_delivery"),
                "mean_route_lifetime_s": mean("mean_route_lifetime_s"),
                "mac_collisions": mean("mac_collisions"),
                "path_stretch": sum(r.extra.get("path_stretch", 0.0) for r in bucket)
                / len(bucket),
                "paper_pros": ", ".join(profile.pros),
                "paper_cons": ", ".join(profile.cons),
            }
        )
    return rows


def best_in_metric(
    results: Sequence[AnyResult], metric: str, largest: bool = True
) -> Optional[AnyResult]:
    """The run with the best value of ``metric`` (None for an empty sequence)."""
    if not results:
        return None
    key = lambda r: r.summary.get(metric, 0.0)  # noqa: E731 - tiny comparator
    return max(results, key=key) if largest else min(results, key=key)
