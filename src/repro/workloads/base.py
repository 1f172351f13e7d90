"""The application-workload interface.

A :class:`Workload` turns a scenario into offered traffic: it registers
application flows with the statistics collector and schedules sends through
the protocol API (or, for single-hop broadcast traffic, directly through the
MAC).  Workloads are resolved by name through
:data:`~repro.workloads.registry.WORKLOADS` -- the runner never hardcodes a
traffic shape.

The contract mirrors the scenario builders: :meth:`Workload.build` receives
the declarative :class:`~repro.harness.scenario.Scenario`, the instantiated
:class:`~repro.harness.runner.BuiltScenario` (nodes, network, stats, sim) and
the simulator's seeded ``"traffic"`` random stream.  Every stochastic choice
a workload makes must draw from that stream so runs are byte-identical per
scenario seed, serial or parallel.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance for typing only
    from repro.harness.runner import BuiltScenario
    from repro.harness.scenario import Scenario
    from repro.sim.node import Node

from abc import ABC, abstractmethod


def consume_frame(node: "Node", rx_power_dbm: float) -> None:
    """A claimed frame's ``receive`` that drops the frame at every receiver.

    See :meth:`~repro.sim.medium.WirelessMedium.claim_frames`.
    """


class Workload(ABC):
    """Base class for application-traffic generators.

    One instance describes one traffic shape (its parameters are constructor
    keywords, surfaced through ``Scenario.workload_params``); :meth:`build`
    instantiates that shape against a built scenario.  A workload object is
    stateless across runs except for what :meth:`build` installs on the run's
    own objects, so one instance may be reused for several runs.
    """

    #: Registry key; stamped by ``@WORKLOADS.register``.
    workload_name: str = "base"

    @abstractmethod
    def build(
        self, scenario: "Scenario", built: "BuiltScenario", rng: random.Random
    ) -> List[Dict[str, float]]:
        """Register flows and schedule this run's application sends.

        Args:
            scenario: The declarative scenario (duration, flow shim, radio).
            built: The instantiated scenario; protocols are already attached
                but the network has not started yet.
            rng: The simulator's ``"traffic"`` stream -- the only source of
                randomness a workload may use.

        Returns:
            One descriptor dictionary per created flow (``flow_id``,
            ``source``, ``destination``); the runner keeps them for derived
            metrics and reporting.
        """

    def extra_metrics(self, built: "BuiltScenario") -> Dict[str, float]:
        """Workload-specific derived metrics, merged into ``RunResult.extra``.

        Called after the simulation has drained; the default contributes
        nothing.
        """
        return {}

    # ----------------------------------------------------------------- helpers
    def send_unicast(
        self,
        built: "BuiltScenario",
        source: "Node",
        destination: "Node",
        size_bytes: int,
        flow_id: int,
        seq: int,
    ) -> None:
        """Originate one unicast data packet through the routing protocol.

        Samples the ideal (straight-line) hop count at the send instant so
        the runner can derive the path stretch of delivered packets.
        """
        built.ideal_hop_samples[(source.node_id, flow_id, seq)] = self.ideal_hops(
            built, source, destination
        )
        if source.protocol is not None:
            source.protocol.send_data(
                destination.node_id, size_bytes=size_bytes, flow_id=flow_id, seq=seq
            )

    @staticmethod
    def ideal_hops(built: "BuiltScenario", source: "Node", destination: "Node") -> float:
        """Lower bound on hop count: straight-line distance over the radio range.

        The range is the *resolved* radio stack's nominal range
        (``built.radio_range_m``), so the estimate tracks whichever channel
        the run actually uses, not the legacy unit-disk shim.
        """
        range_m = built.radio_range_m
        distance = source.position.distance_to(destination.position)
        return max(1.0, math.ceil(distance / max(range_m, 1.0)))

    @staticmethod
    def pick_pair(rng: random.Random, count: int) -> tuple:
        """Draw a (source, destination) index pair with distinct endpoints."""
        source = rng.randrange(count)
        destination = rng.randrange(count)
        while destination == source:
            destination = rng.randrange(count)
        return source, destination

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"{type(self).__name__}()"
