"""Vehicle-to-infrastructure request/response sessions."""

from __future__ import annotations

import random
import warnings
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.workloads.base import Workload
from repro.workloads.registry import WORKLOADS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.runner import BuiltScenario
    from repro.harness.scenario import Scenario
    from repro.sim.node import Node
    from repro.sim.packet import Packet


@WORKLOADS.register("v2i")
class V2IWorkload(Workload):
    """Vehicle <-> nearest-RSU request/response sessions over the routing protocol.

    Models infotainment / information-pull traffic (Sec. V of the paper):
    each session is one vehicle periodically sending a request to whichever
    RSU is currently nearest (resolved per request through the network's
    grid-backed RSU index, so handover between RSUs is implicit), and the
    RSU answering each delivered request with a larger response routed back
    to the vehicle.  Both directions ride the scenario's routing protocol,
    so the workload exercises multi-hop unicast toward -- and away from --
    fixed infrastructure.

    Each session contributes two flows: ``2k-1`` (requests, vehicle ->
    RSU) and ``2k`` (responses, RSU -> vehicle); responses are only offered
    when the request arrives, so the request flow's delivery ratio bounds
    the response flow's sample size.
    """

    traffic_keywords = {
        "flows": "session_count",
        "packets_per_flow": "requests_per_session",
        "packet_interval": "request_interval_s",
        "warmup": "start_time_s",
    }

    def __init__(
        self,
        session_count: int = 5,
        requests_per_session: int = 20,
        request_interval_s: float = 1.0,
        start_time_s: float = 5.0,
        request_size_bytes: int = 256,
        response_size_bytes: int = 1024,
    ) -> None:
        # Named errors here, not a silent empty run (negative counts) or a
        # deep scheduler error (negative interval) mid-run.
        for name, value in (
            ("session_count", session_count),
            ("requests_per_session", requests_per_session),
            ("request_interval_s", request_interval_s),
        ):
            if value < 0:
                raise ValueError(f"{name} must be >= 0 (got {value})")
        for name, size in (
            ("request_size_bytes", request_size_bytes),
            ("response_size_bytes", response_size_bytes),
        ):
            if not size > 0:
                raise ValueError(f"{name} must be positive (got {size})")
        self.session_count = session_count
        self.requests_per_session = requests_per_session
        self.request_interval_s = request_interval_s
        self.start_time_s = start_time_s
        self.request_size_bytes = request_size_bytes
        self.response_size_bytes = response_size_bytes

    def build(
        self, scenario: "Scenario", built: "BuiltScenario", rng: random.Random
    ) -> List[Dict[str, float]]:
        flows: List[Dict[str, float]] = []
        vehicles = built.vehicle_nodes
        if not vehicles:
            return flows
        if not built.network.rsus:
            warnings.warn(
                "the 'v2i' workload needs road-side units (set rsu_spacing_m or "
                "pick an RSU-equipped preset); no traffic scheduled",
                RuntimeWarning,
                stacklevel=2,
            )
            return flows
        if self.start_time_s > scenario.duration_s:
            warnings.warn(
                f"v2i start time ({self.start_time_s:.1f}s) is past the scenario duration "
                f"({scenario.duration_s:.1f}s); no sessions scheduled",
                RuntimeWarning,
                stacklevel=2,
            )
            return flows
        #: request flow_id -> (vehicle node id, response flow_id).
        session_table: Dict[int, Tuple[int, int]] = {}
        for rsu in built.network.rsus:
            rsu.app_delivery_handler = self._make_responder(built, rsu, session_table)
        for session in range(1, self.session_count + 1):
            vehicle = vehicles[rng.randrange(len(vehicles))]
            offset = rng.uniform(0.0, self.request_interval_s)
            request_flow = 2 * session - 1
            response_flow = 2 * session
            session_table[request_flow] = (vehicle.node_id, response_flow)
            flows.append(
                {
                    "flow_id": request_flow,
                    "source": vehicle.node_id,
                    "destination": -1,  # anycast: nearest RSU at each send
                }
            )
            for request_index in range(self.requests_per_session):
                send_time = (
                    self.start_time_s + offset + request_index * self.request_interval_s
                )
                if send_time > scenario.duration_s:
                    break
                built.sim.schedule_at(
                    send_time, self._send_request, built, vehicle, request_flow, request_index + 1
                )
        return flows

    def _send_request(
        self, built: "BuiltScenario", vehicle: "Node", flow_id: int, seq: int
    ) -> None:
        """Address one request to whichever RSU is nearest right now."""
        rsu = built.network.nearest_rsu(vehicle.position)
        if rsu is None:  # pragma: no cover - guarded by the build-time check
            return
        built.stats.register_flow(flow_id, vehicle.node_id, rsu.node_id)
        self.send_unicast(
            built, vehicle, rsu, self.request_size_bytes, flow_id, seq
        )

    def _make_responder(
        self,
        built: "BuiltScenario",
        rsu: "Node",
        session_table: Dict[int, Tuple[int, int]],
    ):
        def respond(packet: "Packet") -> None:
            session = session_table.get(packet.flow_id)
            if session is None:
                return
            vehicle_id, response_flow = session
            if not built.network.has_node(vehicle_id):
                return
            vehicle = built.network.node(vehicle_id)
            built.stats.register_flow(response_flow, rsu.node_id, vehicle_id)
            # The response reuses the request's sequence number, pairing each
            # delivered answer with the question that caused it.
            self.send_unicast(
                built, rsu, vehicle, self.response_size_bytes, response_flow, packet.seq
            )

        return respond

    def extra_metrics(self, built: "BuiltScenario") -> Dict[str, float]:
        requests = [f for fid, f in built.stats.flows.items() if fid % 2 == 1]
        responses = [f for fid, f in built.stats.flows.items() if fid % 2 == 0]
        answered = sum(flow.delivered for flow in responses)
        asked = sum(flow.sent for flow in requests)
        return {
            "v2i_requests_sent": float(asked),
            "v2i_round_trip_ratio": answered / asked if asked else 0.0,
        }


WORKLOADS.register_preset(
    "v2i-info-pull",
    V2IWorkload,
    "periodic nearest-RSU information pull with 2 KiB responses",
    kind="v2i",
    response_size_bytes=2048,
)
