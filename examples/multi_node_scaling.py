"""Multi-node scaling: how fast can 8 DGX nodes train papers100M?

Reproduces the paper's §IV-D anchor: "we can train 80 epochs of a 3-layer
GraphSAGE model with a hidden size of 256 and a sample count of 30,30,30 on
the ogbn-papers100M dataset in 66 seconds with 8 DGX-A100 servers."

Trains a few rounds of the cluster plan (one full store replica per machine
node, the gradient all-reduce overlapped with backward; paper §III-D) at
1/2/4/8 machine nodes with the paper's hyper-parameters, scales each to the
full-scale epoch, and prints the 80-epoch figure next to the paper's.

Run:  python examples/multi_node_scaling.py
"""

import math

from repro.experiments import fig13_scaling
from repro.graph.datasets import dataset_spec
from repro.telemetry.report import format_table

DATASET = "ogbn-papers100M"
MODEL = "graphsage"


def main() -> None:
    spec = dataset_spec(DATASET)
    print(f"training {MODEL} on {DATASET} at 1/2/4/8 machine nodes…")
    (row,) = fig13_scaling.run(
        datasets=(DATASET,), models=(MODEL,), num_nodes=20_000,
        iterations=2,
    )
    print(format_table(
        ["Nodes", "GPUs", "rounds/epoch", "epoch time (s)", "speedup",
         "efficiency"],
        [
            [k, k * 8, math.ceil(spec.full_iterations_per_epoch / k), t,
             f"{s:.2f}x", f"{100 * s / k:.1f}%"]
            for k, t, s in zip(row.node_counts, row.epoch_times, row.speedups)
        ],
        title="Fig. 13-style scaling (replicated store, gradient-only traffic)",
    ))

    t80 = 80 * row.epoch_times[-1]
    print(
        f"\n80 epochs on 8 nodes: {t80:.0f} s simulated "
        "(paper measured 66 s on Selene)"
    )


if __name__ == "__main__":
    main()
