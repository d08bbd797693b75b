"""Recsys serving: user requests scored against an item-tower index.

The recommendation counterpart of :class:`~repro.serve.engine.InferenceEngine`:
a request names a *user* node; serving it means sampling the user's
neighborhood, gathering the user's trained :class:`~repro.dsm.sparse_embedding.
WholeEmbedding` rows (not the static feature matrix), encoding the user with
the frozen GNN, and scoring the encoding against a precomputed *item index* —
the offline-encoded catalogue every production recsys keeps hot — to answer
with the top-k items.

The engine reuses the whole serving stack (micro-batcher, replica routing,
serve trace lane, :class:`~repro.serve.report.ServeReport`) and charges its
stages under the same ``serve_sample`` / ``serve_gather`` / ``serve_infer``
phases, so latency blame and the golden serve manifests read recsys runs the
same way they read classification runs.  ``serve()`` answers with the top-1
item per request; :meth:`RecsysEngine.recommend` is the direct functional
top-k surface the quality tests use.
"""

from __future__ import annotations

import numpy as np

from repro.dsm.sparse_embedding import WholeEmbedding
from repro.graph.storage import MultiGpuGraphStore
from repro.hardware import costmodel
from repro.nn.models import block_shapes
from repro.serve.batcher import MicroBatcher
from repro.serve.engine import InferenceEngine
from repro.serve.model import FrozenModel
from repro.telemetry import metrics
from repro.utils.rng import spawn_rng


class RecsysEngine(InferenceEngine):
    """Serve top-k item recommendations over a trained embedding table."""

    def __init__(
        self,
        store: MultiGpuGraphStore,
        model: FrozenModel,
        embedding: WholeEmbedding,
        item_nodes: np.ndarray,
        fanouts=None,
        batcher: MicroBatcher | None = None,
        replicas=None,
        routing: str = "round_robin",
        top_k: int = 10,
        score_scale: float | None = None,
        name: str = "recsys-serve",
    ):
        """``model`` is the frozen link-prediction encoder; ``embedding``
        the trained table it was trained against; ``item_nodes`` the
        candidate catalogue (e.g. ``BipartiteDataset.item_nodes``).  The
        item index is encoded once at construction on replica 0 — a bulk
        sample+gather+forward charged under the serve phases, the offline
        index build.  ``score_scale`` must match training (the trainer's
        ``1/sqrt(hidden)``); default derives it from the encoding width.
        """
        if model is None:
            raise ValueError("recsys serving needs a frozen encoder")
        super().__init__(
            store, model=model, fanouts=fanouts, batcher=batcher,
            replicas=replicas, routing=routing, name=name,
        )
        self.embedding = embedding
        self.item_nodes = np.asarray(item_nodes, dtype=np.int64)
        if self.item_nodes.size == 0:
            raise ValueError("need at least one candidate item")
        self.top_k = int(top_k)
        if not 1 <= self.top_k <= self.item_nodes.size:
            raise ValueError(
                f"top_k must be in [1, {self.item_nodes.size}]"
            )
        #: top-k item lists of the most recent serve() call's last batch
        self._last_topk: np.ndarray | None = None
        self.item_index = self._build_item_index(0)
        self.score_scale = (
            float(score_scale) if score_scale is not None
            else 1.0 / float(np.sqrt(self.item_index.shape[1]))
        )

    # -- the offline item tower ------------------------------------------------

    def _build_item_index(self, seed: int) -> np.ndarray:
        """Encode the whole catalogue once (the offline index build).

        One bulk pass on replica 0: neighborhood sample, embedding-row
        gather and frozen forward, charged under the standard serve phases
        so the index build shows up in the report's phase ledger.
        """
        rank = self.replicas[0]
        rng = spawn_rng(seed, "recsys-index")
        sub = self.sampler.sample(
            self.item_nodes, rank, rng, phase="serve_sample"
        )
        rows = self.embedding.gather(
            sub.input_nodes, rank, phase="serve_gather"
        )
        index = self.model(sub, rows)
        clock = self.node.gpu_clock[rank]
        clock.advance(
            self.model.step_costs(block_shapes(sub)).forward_seconds(1.0),
            phase="serve_infer", category="serve",
            args={"seeds": int(self.item_nodes.size),
                  "input_nodes": int(sub.input_nodes.shape[0]),
                  "stage": "index_build"},
        )
        self.node.sync()
        return np.ascontiguousarray(index, dtype=np.float32)

    # -- the online user tower -------------------------------------------------

    def _execute(
        self, seeds: np.ndarray, rank: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Encode one user batch and score it against the item index.

        Returns the top-1 item node ID per request (the ``predictions``
        surface of the base serve loop); the full top-k lists of the batch
        are stashed on ``self._last_topk``.
        """
        node = self.node
        clock = node.gpu_clock[rank]
        uniq, inverse = np.unique(seeds, return_inverse=True)
        t0 = clock.now
        sub = self.sampler.sample(uniq, rank, rng, phase="serve_sample")
        t1 = clock.now
        rows = self.embedding.gather(
            sub.input_nodes, rank, phase="serve_gather"
        )
        t2 = clock.now
        encodings = self.model(sub, rows)
        scores = (encodings @ self.item_index.T) * self.score_scale
        topk = self._topk_items(scores)
        clock.advance(
            self.model.step_costs(block_shapes(sub)).forward_seconds(1.0)
            + costmodel.dense_compute_time(
                2.0 * encodings.shape[0]
                * self.item_index.shape[0] * self.item_index.shape[1]
            ),
            phase="serve_infer", category="serve",
            args={"seeds": int(uniq.shape[0]),
                  "input_nodes": int(sub.input_nodes.shape[0]),
                  "candidates": int(self.item_index.shape[0])},
        )
        self._last_exec = {
            "sample": t1 - t0, "gather": t2 - t1, "infer": clock.now - t2,
            "rows": int(uniq.shape[0]),
            "input_nodes": int(sub.input_nodes.shape[0]),
        }
        self._last_topk = topk[inverse]
        metrics.get_registry().counter(
            "recsys_scored_candidates_total"
        ).inc(int(uniq.shape[0]) * int(self.item_index.shape[0]))
        return topk[inverse, 0]

    def _topk_items(self, scores: np.ndarray) -> np.ndarray:
        """Top-k item node IDs per row of ``scores``, best first."""
        k = self.top_k
        part = np.argpartition(-scores, k - 1, axis=1)[:, :k]
        order = np.argsort(
            -np.take_along_axis(scores, part, axis=1), axis=1, kind="stable"
        )
        return self.item_nodes[np.take_along_axis(part, order, axis=1)]

    def recommend(
        self, user_nodes: np.ndarray, rank: int | None = None, seed: int = 0,
    ) -> np.ndarray:
        """Functional top-k recommendations (no clocks, no batcher).

        The direct quality surface: samples and encodes ``user_nodes`` with
        uncharged ops and returns a ``(len(user_nodes), top_k)`` array of
        item node IDs, best first.  Deterministic in ``seed``.
        """
        from repro.ops.neighbor_sampler import NeighborSampler

        user_nodes = np.asarray(user_nodes, dtype=np.int64)
        rank = self.replicas[0] if rank is None else int(rank)
        rng = spawn_rng(seed, "recsys-recommend")
        sampler = NeighborSampler(self.store, self.fanouts, charge=False)
        uniq, inverse = np.unique(user_nodes, return_inverse=True)
        sub = sampler.sample(uniq, rank, rng)
        rows = self.embedding.gather_no_cost(sub.input_nodes)
        encodings = self.model(sub, rows)
        scores = (encodings @ self.item_index.T) * self.score_scale
        return self._topk_items(scores)[inverse]

    def _config_dict(self) -> dict:
        cfg = super()._config_dict()
        cfg["mode"] = "recsys"
        cfg["top_k"] = self.top_k
        cfg["num_candidates"] = int(self.item_nodes.size)
        cfg["embedding_dim"] = self.embedding.dim
        cfg["score_scale"] = self.score_scale
        return cfg
