"""Fig. 12 — GPU utilization over time during training.

The paper's ``nvidia-smi`` traces on ogbn-papers100M: WholeGraph holds
≥95 % utilization; DGL and PyG fluctuate wildly and repeatedly drop to
zero while the GPUs wait for host-prepared data.

We read the same traces off the simulated timeline: busy spans are kernels,
non-busy spans are the waits the baseline pipeline forces on the GPU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines import CpuBaselineTrainer, HostGraphStore, profile_by_name
from repro.experiments.common import get_dataset
from repro.graph import MultiGpuGraphStore
from repro.hardware import SimNode
from repro.telemetry.report import format_table
from repro.telemetry.utilization import mean_utilization, utilization_trace
from repro.train import WholeGraphTrainer


@dataclass
class UtilizationTrace:
    framework: str
    times: np.ndarray
    utilization: np.ndarray
    mean: float
    minimum: float


def run(
    dataset: str = "ogbn-papers100M",
    model: str = "graphsage",
    num_nodes: int = 20_000,
    iterations: int = 6,
    seed: int = 0,
) -> list[UtilizationTrace]:
    ds = get_dataset(dataset, num_nodes, seed)
    traces = []
    for framework in ("PyG", "DGL", "WholeGraph"):
        node = SimNode()
        if framework == "WholeGraph":
            trainer = WholeGraphTrainer(
                MultiGpuGraphStore(node, ds, seed=seed), model, seed=seed
            )
        else:
            trainer = CpuBaselineTrainer(
                HostGraphStore(node, ds), profile_by_name(framework), model,
                seed=seed,
            )
        node.reset_clocks()
        trainer.train_epoch(max_iterations=iterations)
        device = node.gpu_memory[0].device
        t_end = node.gpu_clock[0].now
        window = max(t_end / 60, 1e-6)
        t, u = utilization_trace(node.timeline, device, window, t_end=t_end)
        traces.append(
            UtilizationTrace(
                framework=framework,
                times=t,
                utilization=u,
                mean=mean_utilization(node.timeline, device, t_end=t_end),
                minimum=float(u.min()) if u.size else 0.0,
            )
        )
    return traces


def report(traces: list[UtilizationTrace]) -> str:
    rows = []
    for tr in traces:
        spark = "".join(
            " .:-=+*#%@"[min(9, int(v // 10))] for v in tr.utilization[:60]
        )
        rows.append([tr.framework, f"{tr.mean:.1f}%", f"{tr.minimum:.1f}%",
                     spark])
    return format_table(
        ["Framework", "mean util", "min util", "trace (0-100%)"],
        rows,
        title="Fig. 12: GPU utilization during training (papers100M)",
    )


def check_shape(traces: list[UtilizationTrace]) -> None:
    by_fw = {t.framework: t for t in traces}
    # WholeGraph sustains >= 95%, in every window
    assert by_fw["WholeGraph"].mean >= 95.0, by_fw["WholeGraph"].mean
    assert by_fw["WholeGraph"].minimum >= 95.0, by_fw["WholeGraph"].minimum
    # baselines fluctuate low; DGL/PyG mean far below WholeGraph's
    for fw in ("DGL", "PyG"):
        assert by_fw[fw].mean < 60.0, (fw, by_fw[fw].mean)
        assert by_fw[fw].minimum < 30.0, (fw, by_fw[fw].minimum)
