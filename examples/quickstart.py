"""Quickstart: simulate one VANET routing protocol on a highway and print metrics.

Run with::

    python examples/quickstart.py [protocol]

where ``protocol`` is any of the implemented protocols (default: AODV).
The script builds a normal-density highway, attaches the protocol to every
vehicle, runs a handful of unicast flows and prints the headline metrics the
paper's Table I talks about: delivery ratio, delay, overhead and collisions.
"""

from __future__ import annotations

import sys

from repro.harness import ExperimentRunner, format_table
from repro.harness.scenario import highway_scenario
from repro.mobility.generator import TrafficDensity
from repro.protocols import PROTOCOLS


def main() -> None:
    protocol = sys.argv[1] if len(sys.argv) > 1 else "AODV"
    if protocol not in PROTOCOLS.kinds:
        raise SystemExit(
            f"unknown protocol {protocol!r}; choose one of: {', '.join(PROTOCOLS.names())}"
        )

    scenario = highway_scenario(
        TrafficDensity.NORMAL,
        name="quickstart-highway",
        duration_s=30.0,
        max_vehicles=80,
        seed=7,
        # The default cbr traffic, spelled out: 5 flows of 20 packets at 1 Hz from 5 s.
        workload_params={
            "flow_count": 5, "start_time_s": 5.0, "interval_s": 1.0, "packet_count": 20
        },
    )

    print(f"Running {protocol} on {scenario.name} "
          f"({scenario.density.value} traffic, {scenario.duration_s:.0f} s simulated)...")
    runner = ExperimentRunner()
    result = runner.run(scenario, protocol)

    summary = result.summary
    rows = [
        {"metric": "vehicles", "value": result.vehicle_count},
        {"metric": "data packets sent", "value": summary["data_sent"]},
        {"metric": "delivery ratio", "value": summary["delivery_ratio"]},
        {"metric": "mean end-to-end delay (s)", "value": summary["mean_delay_s"]},
        {"metric": "mean hops", "value": summary["mean_hops"]},
        {"metric": "control transmissions", "value": summary["control_transmissions"]},
        {"metric": "  of which beacons", "value": summary["beacon_transmissions"]},
        {"metric": "  of which discovery", "value": summary["discovery_transmissions"]},
        {"metric": "data transmissions", "value": summary["data_transmissions"]},
        {"metric": "MAC collisions", "value": summary["mac_collisions"]},
        {"metric": "route discoveries", "value": summary["route_discoveries_started"]},
        {"metric": "wall-clock time (s)", "value": round(result.wall_clock_s, 2)},
    ]
    print()
    print(format_table(rows, title=f"{protocol} on a normal-density highway"))


if __name__ == "__main__":
    main()
