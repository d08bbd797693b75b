"""The DGL-like / PyG-like training pipeline (paper Fig. 1).

Per iteration and per GPU worker:

1. **sample** — the host CPU walks the graph and builds the computation
   sub-graph, then ships it over PCIe ("sub-graphs are generated and
   transferred to GPU", §IV-C3);
2. **gather** — the host gathers the mini-batch features out of DRAM and
   ships them over the (shared) PCIe uplink;
3. **train** — the GPU runs forward/backward with the framework's layer
   implementations and all-reduces gradients.

The GPU sits idle through steps 1–2 (recorded as non-busy ``wait`` spans),
which is exactly the utilization collapse of Fig. 12.  The functional math
is shared with WholeGraph — an uncharged
:class:`~repro.ops.neighbor_sampler.NeighborSampler` walks the host CSR — so
accuracy parity (Table III, Fig. 7) is a real, measured outcome.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.hardware import costmodel
from repro.baselines.host_store import HostGraphStore
from repro.baselines.profiles import BaselineProfile
from repro.nn import functional as F
from repro.nn.models import block_shapes, build_model
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.ops.neighbor_sampler import NeighborSampler
from repro.train.grad_sync import charge_allreduce
from repro.train.metrics import PhaseTimes
from repro.train.trainer import EpochStats
from repro.utils.rng import RngPool


class CpuBaselineTrainer:
    """Mini-batch trainer with host-side sampling and gathering."""

    def __init__(
        self,
        store: HostGraphStore,
        profile: BaselineProfile,
        model_name: str,
        seed: int = 0,
        batch_size: int = config.BATCH_SIZE,
        fanouts=None,
        hidden: int = config.HIDDEN_SIZE,
        num_layers: int = config.NUM_LAYERS,
        lr: float = 3e-3,
        dropout: float = 0.5,
    ):
        self.store = store
        self.node = store.node
        self.profile = profile
        self.seed = int(seed)
        self.batch_size = int(batch_size)
        # an explicit fanout list defines the depth
        fanouts = [config.FANOUT] * num_layers if fanouts is None else list(fanouts)
        num_layers = len(fanouts)
        self.fanouts = fanouts
        self.sampler = NeighborSampler(store, fanouts, charge=False)
        self.rngs = RngPool(seed, self.node.num_gpus)
        self.epoch_rng = self.rngs.named("epochs")
        self.model = build_model(
            model_name, store.feature_dim, store.num_classes,
            self.rngs.named("init"), hidden=hidden, num_layers=num_layers,
            dropout=dropout,
        )
        self.optimizer = Adam(self.model.parameters(), lr=lr)
        self._epoch = 0
        self.history: list[EpochStats] = []

    # -- one iteration -------------------------------------------------------------------

    def _iteration(self, seeds: np.ndarray) -> tuple[float, PhaseTimes]:
        """Train ``seeds`` on rank 0; returns the loss and phase seconds."""
        node = self.node
        gpu = node.gpu_clock[0]
        host = node.host_clock
        rng = self.rngs.rank(0)

        # -- phase 1: CPU sampling + sub-graph PCIe transfer ------------------
        subgraph = self.sampler.sample(seeds, 0, rng)
        edges_drawn = sum(b.num_edges for b in subgraph.blocks)
        t_sample_cpu = (
            self.profile.iter_overhead
            + edges_drawn / self.profile.sample_edges_per_s
        )
        graph_bytes = sum(
            b.indices.nbytes + b.indptr.nbytes for b in subgraph.blocks
        )
        t_sample = t_sample_cpu + costmodel.pcie_host_to_gpu_time(
            graph_bytes, shared=True
        )

        # -- phase 2: CPU feature gather + PCIe transfer -----------------------
        feats = self.store.gather_features_host(subgraph.input_nodes)
        t_gather = (
            feats.nbytes / self.profile.gather_bytes_per_s
            + costmodel.pcie_host_to_gpu_time(feats.nbytes, shared=True)
        )

        # the GPU idles while the host prepares data (Fig. 12's troughs)
        host.advance(t_sample, phase="host_sample")
        host.advance(t_gather, phase="host_gather")
        gpu.wait_until(gpu.now + t_sample, phase="sample")
        gpu.wait_until(gpu.now + t_gather, phase="gather")

        # -- phase 3: GPU training ----------------------------------------------
        x = Tensor(feats)
        logits = self.model(subgraph, x, rng)
        loss = F.cross_entropy(logits, self.store.labels[seeds])
        self.model.zero_grad()
        loss.backward()
        self.optimizer.step()
        t_train = self.model.step_costs(block_shapes(subgraph)).train_seconds(
            self.profile.layer_cost_factor
        )
        gpu.advance(t_train, phase="train")
        times = PhaseTimes(sample=t_sample, gather=t_gather, train=t_train)
        return float(loss.data), times

    # -- epoch loop -------------------------------------------------------------------------

    def train_epoch(self, max_iterations: int | None = None) -> EpochStats:
        """One pass over the training nodes (symmetric-rank simulation)."""
        self.model.train()
        node = self.node
        order = self.epoch_rng.permutation(self.store.train_nodes)
        nb = max(1, order.shape[0] // self.batch_size)
        batches = [
            order[i * self.batch_size : (i + 1) * self.batch_size]
            for i in range(nb)
        ]
        if max_iterations is not None:
            batches = batches[:max_iterations]

        t_start = node.sync()
        losses = []
        totals = PhaseTimes()
        for batch in batches:
            loss, times = self._iteration(batch)
            # symmetric ranks: charge the same pipeline to GPUs 1..N-1
            for r in range(1, node.num_gpus):
                clk = node.gpu_clock[r]
                clk.wait_until(clk.now + times.sample, phase="sample")
                clk.wait_until(clk.now + times.gather, phase="gather")
                clk.advance(times.train, phase="train")
            charge_allreduce(node, self.model.grad_nbytes(), phase="train")
            node.sync()
            totals += times
            losses.append(loss)
        t_end = node.sync()

        stats = EpochStats(
            epoch=self._epoch,
            mean_loss=float(np.mean(losses)) if losses else float("nan"),
            iterations=len(batches),
            times=totals,
            epoch_time=t_end - t_start,
        )
        self._epoch += 1
        self.history.append(stats)
        return stats

    # -- run artifacts --------------------------------------------------------------------------

    def run_report(self, name: str | None = None,
                   accuracy: float | None = None,
                   extra: dict | None = None):
        """Structured JSON manifest of this baseline run (see
        :mod:`repro.telemetry.run_report`)."""
        from repro.telemetry.run_report import report_from_node

        return report_from_node(
            name if name is not None else self.profile.name.lower(),
            self.node,
            kind="train",
            config={
                "framework": self.profile.name,
                "batch_size": self.batch_size,
                "fanouts": self.fanouts,
                "num_gpus": self.node.num_gpus,
            },
            seed=self.seed,
            accuracy=accuracy,
            history=[s.as_row() for s in self.history],
            extra=extra,
        )

    # -- evaluation -----------------------------------------------------------------------------

    def evaluate(self, nodes: np.ndarray | None = None,
                 batch_size: int | None = None) -> float:
        """Sampled-inference accuracy (no cost charging)."""
        if nodes is None:
            nodes = self.store.val_nodes
        nodes = np.asarray(nodes, dtype=np.int64)
        batch_size = batch_size or self.batch_size
        self.model.eval()
        rng = self.rngs.named("eval")
        correct = 0
        for i in range(0, nodes.shape[0], batch_size):
            seeds = nodes[i : i + batch_size]
            sg = self.sampler.sample(seeds, 0, rng)
            x = Tensor(self.store.gather_features_host(sg.input_nodes))
            logits = self.model(sg, x, None)
            correct += int(
                (logits.data.argmax(axis=-1) == self.store.labels[seeds]).sum()
            )
        self.model.train()
        return correct / max(nodes.shape[0], 1)
