"""E1 -- Fig. 1: the five-category taxonomy of VANET routing protocols.

The paper's Fig. 1 is a tree mapping protocols to the five routing-metric
categories.  This benchmark regenerates that mapping from the implementation
itself: every protocol class registers its category, and every category must
be populated.  The timing measures how long instantiating one protocol of
every kind on a small network takes (the "cost of the taxonomy").
"""

from __future__ import annotations

from repro.core.taxonomy import PROTOCOLS, Category, protocols_in
from repro.protocols.registry import make_protocol_factory
from repro.harness.runner import ExperimentRunner
from repro.mobility.generator import TrafficDensity

from benchmarks.common import report, run_once, small_highway


def _instantiate_every_protocol():
    runner = ExperimentRunner()
    scenario = small_highway(TrafficDensity.SPARSE, max_vehicles=12, duration_s=1.0, flows=0)
    built = runner.build(scenario)
    instances = []
    for name in PROTOCOLS.names():
        factory = make_protocol_factory(name, road_graph=built.road_graph)
        instances.append(factory(built.vehicle_nodes[0]))
    return instances


def test_fig1_taxonomy(benchmark):
    """Regenerate Fig. 1: every implemented protocol and its category."""
    instances = run_once(benchmark, _instantiate_every_protocol)
    assert len(instances) == len(PROTOCOLS.names())

    rows = sorted(PROTOCOLS.kind_rows(), key=lambda row: row["category"])
    report(
        "fig1_taxonomy",
        rows,
        columns=["category", "protocol", "reference", "description"],
        title="Fig. 1 -- taxonomy of implemented VANET routing protocols",
    )

    # The reproduction covers every category of Fig. 1 with >= 2 protocols.
    for category in Category:
        members = protocols_in(category)
        assert len(members) >= 2, f"category {category.value} under-populated"
    # And every registered protocol can actually be constructed.
    assert {type(p).protocol_name for p in instances} == set(PROTOCOLS.names())
