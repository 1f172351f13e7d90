"""Highway content sharing: the paper's motivating scenario.

The introduction of the paper imagines passengers on an interstate collecting
the blocks of a movie from several other cars, possibly miles away -- at the
network layer, several long multi-hop unicast flows converging on one
receiver.  This example sets up exactly that workload on the IDM highway and
compares a plain connectivity-based protocol (AODV) against a mobility-based
one (PBR) and a probability-based one (Yan-TBP), the combination Sec. VIII
suggests ("one can combine several of these methods").

Run with::

    python examples/highway_content_sharing.py
"""

from __future__ import annotations

from repro.harness import ExperimentRunner, format_table
from repro.harness.scenario import highway_scenario
from repro.mobility.generator import TrafficDensity
from repro.workloads.cbr import CbrFlow

#: The protocols compared for the content-sharing workload.
PROTOCOLS = ["AODV", "PBR", "Yan-TBP"]


def build_scenario():
    """Five source vehicles stream blocks to one receiving vehicle."""
    receiver_index = 0
    flows = [
        CbrFlow(
            source_index=10 * (i + 1),
            destination_index=receiver_index,
            start_time_s=5.0 + i,
            interval_s=0.5,
            packet_count=40,
            size_bytes=1024,
        )
        for i in range(5)
    ]
    return highway_scenario(
        TrafficDensity.NORMAL,
        name="content-sharing",
        duration_s=40.0,
        max_vehicles=100,
        seed=13,
        workload_params={"flows": flows},
    )


def main() -> None:
    scenario = build_scenario()
    runner = ExperimentRunner()
    rows = []
    for protocol in PROTOCOLS:
        print(f"Streaming movie blocks over {protocol}...")
        result = runner.run(scenario, protocol)
        summary = result.summary
        delivered = max(1.0, summary["data_delivered"])
        rows.append(
            {
                "protocol": protocol,
                "blocks_sent": summary["data_sent"],
                "blocks_received": summary["data_delivered"],
                "delivery_ratio": summary["delivery_ratio"],
                "mean_delay_s": summary["mean_delay_s"],
                "mean_hops": summary["mean_hops"],
                "discovery_tx": summary["discovery_transmissions"],
                "tx_per_block": (summary["data_transmissions"] + summary["control_transmissions"])
                / delivered,
            }
        )
    print()
    print(
        format_table(
            rows,
            title="Collecting movie blocks over a 3 km highway (5 sources -> 1 receiver)",
        )
    )
    print()
    print("Reading the table: the mobility- and probability-based protocols hold their")
    print("routes together longer (higher delivery ratio) and the ticket-based prober")
    print("spends far fewer discovery transmissions than the flooded AODV discovery.")


if __name__ == "__main__":
    main()
