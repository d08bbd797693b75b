"""Out-of-core streaming loader benchmark: prefetch hiding on tiny HBM.

The papers100M-scale demo the storage tier exists for: a feature table
*larger than aggregate simulated HBM* (the GPUs are shrunk to a sliver of
an A100 so the ratio matches the next scale step up from the paper's
testbed), spilled warm-host/cold-disk by degree, trained end-to-end

- synchronously (``streaming=False``): every gather pays the full
  zero-copy PCIe + disk-staging latency on the compute streams;
- with the streaming loader (``streaming=True``): fetches ride the
  dedicated host stream ``prefetch_depth`` batches ahead, and only the
  exposed tail lands on the GPUs.

The headline gate: the prefetching loader must hide **>= 50%** of
host-transfer time, and the streaming epoch must beat the synchronous one.
Results go to ``results/streaming.json`` (compare_runs.py manifest shape —
CI diffs it against the committed ``streaming_baseline.json``) and the
streaming run's ``RunReport`` to ``results/streaming_run.json``, which CI
feeds to ``python -m repro.telemetry.analysis --max-exposed-host-frac``.
"""

import json

from benchmarks.conftest import RESULTS_DIR, run_once
from repro.graph import MultiGpuGraphStore, load_dataset
from repro.hardware import SimNode
from repro.hardware.spec import NodeSpec, dgx_a100
from repro.telemetry import metrics
from repro.telemetry.report import format_table
from repro.train import WholeGraphTrainer

NUM_NODES = 30_000
#: HBM sliver per GPU — 8 GPUs x 1 MB leaves the ~15 MB feature table
#: (30k rows x 128 floats) with nowhere to live but the host/disk tiers
TINY_HBM = 1 << 20

_DATASET = None


def _dataset():
    global _DATASET
    if _DATASET is None:
        _DATASET = load_dataset("ogbn-papers100M", num_nodes=NUM_NODES)
    return _DATASET


def _tiny_hbm_node() -> SimNode:
    return SimNode(NodeSpec(num_gpus=dgx_a100().num_gpus,
                            gpu_memory_capacity=TINY_HBM))


def _train_once(*, streaming, prefetch_depth=2):
    """One epoch on the tiny-HBM node; returns (stats, ledger, report)."""
    prev = metrics.get_registry()
    metrics.set_registry(metrics.MetricsRegistry())
    try:
        node = _tiny_hbm_node()
        store = MultiGpuGraphStore(
            node, _dataset(), seed=0, tier="tiered",
            host_pinned_fraction=0.5,
        )
        trainer = WholeGraphTrainer(
            store, "graphsage", seed=3, batch_size=32, fanouts=[10, 10],
            hidden=512, num_layers=2, lr=0.003,
            streaming=streaming, prefetch_depth=prefetch_depth,
        )
        stats = trainer.train_epoch()
        reg = metrics.get_registry()
        ledger = {
            "total": reg.total("host_fetch_seconds_total"),
            "exposed": reg.total("host_fetch_exposed_seconds_total"),
            "hidden": reg.total("host_fetch_hidden_seconds_total"),
        }
        # snapshot the report while the run's registry is still active
        return stats, ledger, trainer, trainer.run_report()
    finally:
        metrics.set_registry(prev)


def _run_all():
    seq_stats, _, _, _ = _train_once(streaming=False)
    stm_stats, ledger, trainer, report = _train_once(streaming=True)
    sweep = [
        (d, _train_once(streaming=True, prefetch_depth=d)[0].epoch_time)
        for d in (1, 2, 4)
    ]
    return seq_stats, stm_stats, ledger, trainer, report, sweep


def test_streaming_loader(benchmark, emit):
    seq_stats, stm_stats, ledger, trainer, report, sweep = run_once(
        benchmark, _run_all
    )
    store = trainer.store
    feature_bytes = store.feature_tensor.total_bytes
    aggregate_hbm = trainer.node.num_gpus * TINY_HBM
    hidden_frac = ledger["hidden"] / ledger["total"]
    speedup = seq_stats.epoch_time / stm_stats.epoch_time

    rows = [
        ["synchronous tier", seq_stats.epoch_time * 1e3, "-"],
        ["streaming (depth 2)", stm_stats.epoch_time * 1e3,
         f"{speedup:.2f}x"],
    ]
    lines = [
        format_table(
            ["schedule", "epoch time (ms)", "speedup"],
            rows,
            title=(
                f"out-of-core epoch: {feature_bytes / 2**20:.1f} MB "
                f"features vs {aggregate_hbm / 2**20:.0f} MB aggregate HBM"
            ),
        ),
        format_table(
            ["phase", "seconds"],
            sorted(stm_stats.times.as_dict().items()),
            title="streaming epoch breakdown",
        ),
        (
            f"host transfers: {ledger['total'] * 1e3:.2f} ms total, "
            f"{ledger['hidden'] * 1e3:.2f} ms hidden "
            f"({100 * hidden_frac:.1f}%), "
            f"{ledger['exposed'] * 1e3:.2f} ms exposed"
        ),
        format_table(
            ["prefetch_depth", "epoch time (ms)"],
            [[d, t * 1e3] for d, t in sweep],
            title="prefetch-depth sweep",
        ),
    ]
    emit("streaming_loader", "\n\n".join(lines))

    manifest = {
        "name": "streaming_loader",
        "phase_totals": {
            "epoch_sequential": seq_stats.epoch_time,
            "epoch_streaming": stm_stats.epoch_time,
            "host_fetch_total": ledger["total"],
            "host_fetch_exposed": ledger["exposed"],
        },
        "notes": {
            "feature_mb": feature_bytes / 2**20,
            "aggregate_hbm_mb": aggregate_hbm / 2**20,
            "hidden_fraction": hidden_frac,
            "speedup": speedup,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "streaming.json").write_text(
        json.dumps(manifest, indent=2) + "\n"
    )
    report.save(RESULTS_DIR / "streaming_run.json")

    # the tentpole's contract
    assert feature_bytes > aggregate_hbm, "demo must exceed aggregate HBM"
    assert hidden_frac >= 0.5, "prefetch must hide >= 50% of transfers"
    assert stm_stats.epoch_time < seq_stats.epoch_time
    # the ledger decomposes exactly: total == exposed + hidden
    assert abs(
        ledger["total"] - (ledger["exposed"] + ledger["hidden"])
    ) <= 1e-9 * max(ledger["total"], 1.0)
    # deeper prefetch never slows the epoch down
    times = [t for _, t in sweep]
    assert times[-1] <= times[0] * 1.001
