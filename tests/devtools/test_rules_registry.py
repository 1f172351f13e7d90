"""REG-001 fixtures: registration gaps and builder contracts."""

from repro.devtools import lint_sources


def _hits(report):
    return [(f.rule_id, f.path, f.line) for f in report.findings if f.rule_id == "REG-001"]


PROTOCOL_BASE_SRC = "class RoutingProtocol:\n    pass\n"


class TestProtocolRegistration:
    def test_unregistered_concrete_protocol_flagged(self):
        sources = {
            "protocols/base.py": PROTOCOL_BASE_SRC,
            "protocols/fancy.py": (
                "@register_protocol('Greedy', Category.GEOGRAPHIC, 'greedy')\n"
                "class GreedyProtocol(RoutingProtocol):\n    pass\n\n\n"
                "class FancyProtocol(RoutingProtocol):\n    pass\n"
            ),
        }
        report = lint_sources(sources, select=["REG-001"])
        assert _hits(report) == [("REG-001", "protocols/fancy.py", 6)]

    def test_intermediate_base_exempt(self):
        sources = {
            "protocols/base.py": PROTOCOL_BASE_SRC,
            "protocols/scored.py": (
                "class ScoredForwardingProtocol(RoutingProtocol):\n    pass\n\n\n"
                "@taxonomy.register_protocol('Greedy', Category.GEOGRAPHIC, 'greedy')\n"
                "class GreedyProtocol(ScoredForwardingProtocol):\n    pass\n"
            ),
        }
        report = lint_sources(sources, select=["REG-001"])
        assert report.clean

    def test_registered_non_protocol_flagged(self):
        sources = {
            "protocols/base.py": PROTOCOL_BASE_SRC,
            "protocols/odd.py": (
                "@register_protocol('Odd', Category.GEOGRAPHIC, 'odd')\n"
                "class OddThing:\n    pass\n"
            ),
        }
        report = lint_sources(sources, select=["REG-001"])
        assert _hits(report) == [("REG-001", "protocols/odd.py", 2)]

    def test_lone_file_with_unresolved_base_clean(self):
        # Linting a lone file must not demand the whole project's classes:
        # a registered protocol whose base lives elsewhere is not flagged.
        sources = {
            "protocols/rear.py": (
                "@register_protocol('REAR', Category.PROBABILITY, 'rear')\n"
                "class RearProtocol(ScoredForwardingProtocol):\n    pass\n"
            )
        }
        report = lint_sources(sources, select=["REG-001"])
        assert report.clean


class TestWorkloadRegistration:
    def test_unregistered_workload_subclass_flagged(self):
        src = (
            "class Workload:\n    pass\n\n\n"
            "class BurstWorkload(Workload):\n    pass\n"
        )
        report = lint_sources({"workloads/burst.py": src}, select=["REG-001"])
        assert _hits(report) == [("REG-001", "workloads/burst.py", 5)]

    def test_registered_workload_clean(self):
        src = (
            "class Workload:\n    pass\n\n\n"
            "@WORKLOADS.register('burst')\n"
            "class BurstWorkload(Workload):\n    pass\n"
        )
        report = lint_sources({"workloads/burst.py": src}, select=["REG-001"])
        assert report.clean

    def test_registered_non_workload_flagged(self):
        src = "@WORKLOADS.register('odd')\nclass OddThing:\n    pass\n"
        report = lint_sources({"workloads/odd.py": src}, select=["REG-001"])
        assert _hits(report) == [("REG-001", "workloads/odd.py", 2)]

    def test_transitive_subclass_detected(self):
        src = (
            "class Workload:\n    pass\n\n\n"
            "class PeriodicWorkload(Workload):\n    pass\n\n\n"
            "class BeaconWorkload(PeriodicWorkload):\n    pass\n"
        )
        report = lint_sources({"workloads/beacon.py": src}, select=["REG-001"])
        # Only the leaf is flagged; PeriodicWorkload is an intermediate base.
        assert _hits(report) == [("REG-001", "workloads/beacon.py", 9)]


class TestMonitorRegistration:
    def test_unregistered_monitor_subclass_flagged(self):
        src = (
            "class Monitor:\n    pass\n\n\n"
            "class FancyMonitor(Monitor):\n    pass\n"
        )
        report = lint_sources({"monitors/fancy.py": src}, select=["REG-001"])
        assert _hits(report) == [("REG-001", "monitors/fancy.py", 5)]

    def test_registered_monitor_clean(self):
        src = (
            "class Monitor:\n    pass\n\n\n"
            "@MONITORS.register('fancy')\n"
            "class FancyMonitor(Monitor):\n    pass\n"
        )
        report = lint_sources({"monitors/fancy.py": src}, select=["REG-001"])
        assert report.clean

    def test_registered_non_monitor_flagged(self):
        src = "@MONITORS.register('fancy')\nclass Fancy:\n    pass\n"
        report = lint_sources({"monitors/fancy.py": src}, select=["REG-001"])
        assert _hits(report) == [("REG-001", "monitors/fancy.py", 2)]

    def test_monitor_outside_monitors_dir_exempt(self):
        src = (
            "class Monitor:\n    pass\n\n\n"
            "class HelperMonitor(Monitor):\n    pass\n"
        )
        report = lint_sources({"harness/helper.py": src}, select=["REG-001"])
        assert report.clean

    def test_monitor_init_with_undefaulted_param_flagged(self):
        src = (
            "class Monitor:\n    pass\n\n\n"
            "@MONITORS.register('fancy')\n"
            "class FancyMonitor(Monitor):\n"
            "    def __init__(self, bucket_s):\n        pass\n"
        )
        report = lint_sources({"monitors/fancy.py": src}, select=["REG-001"])
        assert _hits(report) == [("REG-001", "monitors/fancy.py", 7)]

    def test_monitor_init_all_defaulted_clean(self):
        src = (
            "class Monitor:\n    pass\n\n\n"
            "@MONITORS.register('fancy')\n"
            "class FancyMonitor(Monitor):\n"
            "    def __init__(self, bucket_s=1.0, *, strict=False):\n        pass\n"
        )
        report = lint_sources({"monitors/fancy.py": src}, select=["REG-001"])
        assert report.clean


class TestBuilderContracts:
    def test_scenario_builder_wrong_arity_flagged(self):
        src = "@SCENARIOS.register('highway')\ndef build(scenario):\n    pass\n"
        report = lint_sources({"harness/scenarios.py": src}, select=["REG-001"])
        assert _hits(report) == [("REG-001", "harness/scenarios.py", 2)]

    def test_scenario_builder_contract_clean(self):
        src = "@SCENARIOS.register('highway')\ndef build(scenario, rng):\n    pass\n"
        report = lint_sources({"harness/scenarios.py": src}, select=["REG-001"])
        assert report.clean

    def test_radio_builder_missing_rng_first_flagged(self):
        src = "@RADIOS.register('disk')\ndef build(range_m, rng=None):\n    pass\n"
        report = lint_sources({"radio/registry.py": src}, select=["REG-001"])
        assert _hits(report) == [("REG-001", "radio/registry.py", 2)]

    def test_radio_builder_undefaulted_extra_flagged(self):
        src = "@RADIOS.register('disk')\ndef build(rng, range_m):\n    pass\n"
        report = lint_sources({"radio/registry.py": src}, select=["REG-001"])
        assert _hits(report) == [("REG-001", "radio/registry.py", 2)]

    def test_radio_builder_contract_clean(self):
        src = (
            "@RADIOS.register('disk')\n"
            "def build(rng, range_m=250.0, *, tx_power_dbm=20.0):\n    pass\n"
        )
        report = lint_sources({"radio/registry.py": src}, select=["REG-001"])
        assert report.clean
