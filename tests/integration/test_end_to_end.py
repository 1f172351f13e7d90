"""End-to-end integration tests: full scenarios through the harness.

These tests exercise the same code paths as the benchmarks, on deliberately
small scenarios so the whole suite stays fast.  They check the qualitative
relationships of the paper's Table I rather than exact numbers.
"""

import pytest

from repro.core.taxonomy import PROTOCOLS, Category
from repro.harness.compare import DEFAULT_REPRESENTATIVES, category_comparison
from repro.harness.runner import ExperimentRunner
from repro.harness.scenario import FlowSpec, highway_scenario, manhattan_scenario
from repro.harness.sweep import sweep_protocols
from repro.mobility.generator import TrafficDensity


def _scenario(density=TrafficDensity.NORMAL, **overrides):
    base = highway_scenario(
        density,
        duration_s=15.0,
        max_vehicles=40,
        default_flow_count=3,
        seed=11,
        flow_template=FlowSpec(start_time_s=4.0, interval_s=1.0, packet_count=8),
    )
    return base.with_overrides(**overrides) if overrides else base


RUNNER = ExperimentRunner()


class TestEveryProtocolRuns:
    @pytest.mark.parametrize("protocol", PROTOCOLS.names())
    def test_protocol_completes_a_highway_run(self, protocol):
        scenario = _scenario(duration_s=12.0, max_vehicles=30, default_flow_count=2)
        if protocol == "Bus-Ferry":
            scenario = scenario.with_overrides(bus_count=2)
        if protocol == "RSU-Relay":
            scenario = scenario.with_overrides(rsu_spacing_m=500.0)
        result = RUNNER.run(scenario, protocol)
        assert result.summary["data_sent"] > 0
        assert 0.0 <= result.delivery_ratio <= 1.0
        # Something must have been transmitted: protocols cannot silently idle.
        assert result.summary["data_transmissions"] + result.summary["control_transmissions"] > 0


class TestTableOneShapes:
    def test_flooding_has_highest_data_dissemination_cost(self):
        scenario = _scenario()
        results = sweep_protocols(scenario, ["Flooding", "AODV", "Greedy", "Yan-TBP"], runner=RUNNER)
        by_name = {r.protocol: r for r in results}

        def data_cost(result):
            delivered = max(1.0, result.summary["data_delivered"])
            return result.summary["data_transmissions"] / delivered

        flooding_cost = data_cost(by_name["Flooding"])
        for other in ("AODV", "Greedy", "Yan-TBP"):
            assert flooding_cost > data_cost(by_name[other])

    def test_probing_discovery_cheaper_than_flooded_discovery(self):
        # "The probability based method selectively probes ... to avoid
        # brute-force flooding probing": one ticket-based discovery costs a
        # handful of unicast probes, whereas one AODV discovery floods a
        # large share of the network.  Comparing per-discovery cost keeps the
        # check independent of how often each protocol decides to retry.
        scenario = _scenario()
        results = sweep_protocols(scenario, ["AODV", "Yan-TBP"], runner=RUNNER)
        by_name = {r.protocol: r for r in results}

        def per_discovery_cost(result):
            started = max(1.0, result.summary["route_discoveries_started"])
            return result.summary["discovery_transmissions"] / started

        assert per_discovery_cost(by_name["Yan-TBP"]) < per_discovery_cost(by_name["AODV"])

    def test_geographic_beaconing_is_persistent_overhead(self):
        result = RUNNER.run(_scenario(default_flow_count=1), "Greedy")
        assert result.summary["beacon_transmissions"] > result.summary["data_transmissions"]

    def test_category_comparison_produces_rows_for_all_categories(self):
        scenario = _scenario(max_vehicles=30, duration_s=12.0, rsu_spacing_m=500.0)
        results = sweep_protocols(
            scenario, list(DEFAULT_REPRESENTATIVES.values()), runner=RUNNER
        )
        rows = category_comparison(results)
        assert {row["category"] for row in rows} == {c.value for c in Category}
        for row in rows:
            assert 0.0 <= row["delivery_ratio"] <= 1.0


class TestInfrastructureShape:
    def test_rsus_rescue_sparse_traffic(self):
        sparse = _scenario(density=TrafficDensity.SPARSE, duration_s=20.0, max_vehicles=25)
        without_rsu = RUNNER.run(sparse, "RSU-Relay")
        with_rsu = RUNNER.run(sparse.with_overrides(rsu_spacing_m=400.0), "RSU-Relay")
        assert with_rsu.delivery_ratio > without_rsu.delivery_ratio
        assert with_rsu.summary["backbone_transmissions"] > 0


class TestTaxonomyCoverage:
    def test_at_least_fifteen_protocols_implemented(self):
        assert len(PROTOCOLS.names()) >= 15


class TestUrbanScenario:
    def test_manhattan_with_rsus_at_intersections(self):
        scenario = manhattan_scenario(
            TrafficDensity.NORMAL,
            duration_s=15.0,
            max_vehicles=40,
            default_flow_count=3,
            rsu_spacing_m=400.0,
            seed=5,
        )
        result = RUNNER.run(scenario, "RSU-Relay")
        assert result.rsu_count > 0
        assert result.summary["data_sent"] > 0
