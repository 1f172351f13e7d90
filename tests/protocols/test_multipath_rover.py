"""Tests for the DisjLi multipath protocol and ROVER zone-confined discovery."""

import pytest

from repro.protocols.connectivity import DisjLiConfig, DisjLiProtocol
from repro.protocols.geographic import RoverConfig, RoverProtocol
from tests.helpers import build_static_network, line_positions, run_data_flow

SPACING = 200.0


class TestDisjointPathSelection:
    def test_disjoint_paths_share_no_intermediates(self):
        candidates = [
            [0, 1, 2, 9],
            [0, 3, 4, 9],
            [0, 1, 5, 9],  # shares node 1 with the first path
            [0, 6, 9],
        ]
        chosen = DisjLiProtocol.select_disjoint_paths(candidates, max_paths=3)
        used = []
        for path in chosen:
            intermediates = set(path[1:-1])
            for other in used:
                assert not intermediates & other
            used.append(intermediates)
        assert [0, 6, 9] in chosen  # the shortest candidate is always kept

    def test_max_paths_respected(self):
        candidates = [[0, i, 9] for i in range(1, 8)]
        chosen = DisjLiProtocol.select_disjoint_paths(candidates, max_paths=2)
        assert len(chosen) == 2

    def test_overlapping_candidates_yield_single_path(self):
        candidates = [[0, 1, 2, 9], [0, 1, 3, 9], [0, 2, 1, 9]]
        chosen = DisjLiProtocol.select_disjoint_paths(candidates, max_paths=3)
        assert len(chosen) == 1


class TestDisjLiProtocol:
    def test_delivery_on_a_line(self):
        sim, network, stats, nodes = build_static_network(
            line_positions(5, SPACING), protocol="DisjLi"
        )
        network.start()
        run_data_flow(sim, stats, nodes[0], nodes[4], packets=5, start=2.0, until=25.0)
        assert stats.delivery_ratio >= 0.8

    def test_multiple_disjoint_paths_discovered_on_a_ladder(self):
        # Two parallel chains between source and destination:
        #   0 - 1 - 2 - 5   and   0 - 3 - 4 - 5
        positions = [
            (0, 0),
            (200, 80), (400, 80),     # upper chain
            (200, -80), (400, -80),   # lower chain
            (600, 0),
        ]
        sim, network, stats, nodes = build_static_network(positions, protocol="DisjLi")
        network.start()
        # Trigger discovery before any data is pending: a pending packet is
        # sent the instant the first RREP arrives, and that data frame can
        # collide with the second chain's RREP still working its way back.
        sim.schedule_at(2.0, nodes[0].protocol._discover, nodes[5].node_id)
        run_data_flow(sim, stats, nodes[0], nodes[5], packets=4, start=4.0, until=20.0)
        assert stats.delivery_ratio >= 0.75
        source_protocol: DisjLiProtocol = nodes[0].protocol
        path_set = source_protocol._path_sets.get(nodes[5].node_id)
        assert path_set is not None
        assert len(path_set["paths"]) >= 2

    def test_single_discovery_serves_many_packets(self):
        config = DisjLiConfig()
        sim, network, stats, nodes = build_static_network(
            line_positions(4, SPACING), protocol="DisjLi", protocol_config=config
        )
        network.start()
        run_data_flow(sim, stats, nodes[0], nodes[3], packets=10, start=2.0, until=30.0)
        assert stats.route_discoveries_started <= 2
        assert stats.delivery_ratio >= 0.9


class TestRover:
    def test_delivery_on_a_line(self):
        sim, network, stats, nodes = build_static_network(
            line_positions(5, SPACING), protocol="ROVER"
        )
        network.start()
        run_data_flow(sim, stats, nodes[0], nodes[4], packets=5, start=2.0, until=25.0)
        assert stats.delivery_ratio >= 0.8

    def test_zone_confines_the_discovery_flood(self):
        # Corridor nodes between source and destination plus off-corridor
        # nodes 200 m to the side: within radio range (so an unrestricted
        # AODV flood recruits them) but outside ROVER's 120 m corridor.
        positions = line_positions(5, SPACING) + [
            (200.0, 200.0),
            (400.0, 200.0),
            (600.0, 200.0),
        ]

        def rreq_count(protocol, config=None):
            sim, network, stats, nodes = build_static_network(
                positions, protocol=protocol, protocol_config=config
            )
            network.start()
            run_data_flow(sim, stats, nodes[0], nodes[4], packets=3, start=2.0, until=15.0)
            return stats.control_by_type.get("RREQ", 0), stats.delivery_ratio

        rover_rreqs, rover_pdr = rreq_count("ROVER", RoverConfig(zone_width_m=120.0))
        aodv_rreqs, aodv_pdr = rreq_count("AODV")
        assert rover_pdr >= 0.6
        assert rover_rreqs < aodv_rreqs

    def test_off_zone_node_does_not_forward_requests(self):
        sim, network, stats, nodes = build_static_network(
            [(0, 0), (200, 0), (400, 0), (200, 2000)],
            protocol="ROVER",
            protocol_config=RoverConfig(zone_width_m=200.0),
        )
        network.start()
        run_data_flow(sim, stats, nodes[0], nodes[2], packets=2, start=2.0, until=10.0)
        # The far-away node (index 3) is outside every corridor and outside
        # radio range anyway; the in-corridor relay keeps working.
        assert stats.delivery_ratio >= 0.5
