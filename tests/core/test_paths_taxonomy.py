"""Tests for path-metric composition, the taxonomy registry and Table I data."""

import math

import pytest

from repro.core.metrics import PAPER_TABLE_I, LinkMetrics, table_one_rows
from repro.core.path_reliability import (
    minimum_delay_path_with_reliability,
    most_reliable_path,
    path_lifetime,
    path_reliability,
    widest_lifetime_path,
)
from repro.core.taxonomy import PROTOCOLS, Category, protocols_in, register_protocol
from repro.graphs import NoPathError


class TestPathComposition:
    def test_path_lifetime_is_minimum(self):
        assert path_lifetime([10.0, 3.0, 7.0]) == 3.0
        assert path_lifetime([]) == 0.0

    def test_path_reliability_is_product(self):
        assert path_reliability([0.9, 0.5]) == pytest.approx(0.45)
        assert path_reliability([]) == 1.0

    def test_path_reliability_rejects_invalid_probability(self):
        with pytest.raises(ValueError):
            path_reliability([1.5])


class TestWidestLifetimePath:
    LINKS = {
        ("s", "a"): 10.0,
        ("a", "d"): 2.0,
        ("s", "b"): 6.0,
        ("b", "d"): 7.0,
    }

    def test_selects_max_bottleneck_path(self):
        path, bottleneck = widest_lifetime_path(self.LINKS, "s", "d")
        assert path == ["s", "b", "d"]
        assert bottleneck == pytest.approx(6.0)

    def test_direct_link_wins_when_best(self):
        links = dict(self.LINKS)
        links[("s", "d")] = 9.0
        path, bottleneck = widest_lifetime_path(links, "s", "d")
        assert path == ["s", "d"]
        assert bottleneck == 9.0

    def test_unreachable_raises(self):
        with pytest.raises(NoPathError):
            widest_lifetime_path({("a", "b"): 1.0}, "a", "z")


class TestMostReliablePath:
    LINKS = {
        ("s", "a"): 0.9,
        ("a", "d"): 0.9,
        ("s", "d"): 0.7,
    }

    def test_two_good_hops_beat_one_poor_hop(self):
        path, reliability = most_reliable_path(self.LINKS, "s", "d")
        assert path == ["s", "a", "d"]
        assert reliability == pytest.approx(0.81)

    def test_zero_probability_links_are_unusable(self):
        links = {("s", "a"): 0.0, ("a", "d"): 1.0}
        with pytest.raises(NoPathError):
            most_reliable_path(links, "s", "d")

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            most_reliable_path({("a", "b"): 1.7}, "a", "b")


class TestQosPath:
    def test_first_path_meeting_reliability_is_returned(self):
        delays = {("s", "a"): 1.0, ("a", "d"): 1.0, ("s", "b"): 2.0, ("b", "d"): 2.0}
        reliabilities = {("s", "a"): 0.5, ("a", "d"): 0.5, ("s", "b"): 0.9, ("b", "d"): 0.9}
        result = minimum_delay_path_with_reliability(delays, reliabilities, "s", "d", 0.6)
        assert result is not None
        path, delay, reliability = result
        assert path == ["s", "b", "d"]
        assert delay == pytest.approx(4.0)
        assert reliability == pytest.approx(0.81)

    def test_none_when_no_path_meets_threshold(self):
        delays = {("s", "a"): 1.0, ("a", "d"): 1.0}
        reliabilities = {("s", "a"): 0.3, ("a", "d"): 0.3}
        assert minimum_delay_path_with_reliability(delays, reliabilities, "s", "d", 0.5) is None

    def test_none_for_disconnected_nodes(self):
        assert minimum_delay_path_with_reliability({}, {}, "s", "d", 0.5) is None

    def test_none_for_endpoints_in_different_components(self):
        delays = {("s", "a"): 1.0, ("d", "b"): 1.0}
        reliabilities = {("s", "a"): 0.9, ("d", "b"): 0.9}
        assert minimum_delay_path_with_reliability(delays, reliabilities, "s", "d", 0.5) is None


class TestTaxonomyRegistry:
    def test_registry_covers_all_five_categories(self):
        # Importing the protocols package registers every implementation.
        import repro.protocols  # noqa: F401

        covered = {PROTOCOLS[name].category for name in PROTOCOLS.names()}
        assert covered == set(Category)

    def test_each_category_has_multiple_protocols(self):
        import repro.protocols  # noqa: F401

        for category in Category:
            assert len(protocols_in(category)) >= 2

    def test_register_protocol_decorator_populates_registry(self):
        @register_protocol("Demo", Category.GEOGRAPHIC, "demo protocol", "[1]")
        class Demo:
            pass

        try:
            assert PROTOCOLS["Demo"] is Demo
            assert Demo.protocol_name == "Demo"
            assert Demo.category is Category.GEOGRAPHIC
            assert "Demo" in protocols_in(Category.GEOGRAPHIC)
            row = next(row for row in PROTOCOLS.kind_rows() if row["protocol"] == "Demo")
            assert row == {
                "protocol": "Demo",
                "category": "geographic",
                "reference": "[1]",
                "description": "demo protocol",
            }
        finally:
            PROTOCOLS.unregister("Demo")
        assert "Demo" not in PROTOCOLS

    def test_category_descriptions_exist(self):
        for category in Category:
            assert len(category.description) > 10


class TestTableOne:
    def test_all_categories_present(self):
        assert set(PAPER_TABLE_I) == set(Category)

    def test_rows_match_paper_claims(self):
        rows = {row["category"]: row for row in table_one_rows()}
        assert "broadcasting storm" in rows["connectivity"]["cons"]
        assert "expensive" in rows["infrastructure"]["cons"]
        assert rows["probability"]["pros"] == "efficient"
        assert "not optimal" in rows["geographic"]["cons"]
        assert "reliable" in rows["mobility"]["pros"]

    def test_every_profile_has_expected_shapes(self):
        for profile in PAPER_TABLE_I.values():
            assert profile.expected_shape, profile.category

    def test_link_metrics_defaults(self):
        metrics = LinkMetrics()
        assert metrics.lifetime_s == math.inf
        assert metrics.receipt_probability == 1.0
