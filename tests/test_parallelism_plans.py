"""Parallelism plans: equivalence, pipeline schedule, CAGNET full-graph.

Pins the tentpole contracts of the plan abstraction:

- a data-parallel run through an explicit plan instance (or the plan
  name) is byte-identical to the default ``plan=None`` path on scrubbed
  RunReports (hypothesis sweep over seeds and schedules);
- pipeline-parallel loss is bit-identical to data-parallel at equal
  seeds for every micro-batch count (micro-batching is pure timing);
- exposed pipeline bubbles are measured, exported through
  ``EpochStats.extras``, and reach the analysis layer's blame tables;
- a rank failure mid-pipeline recovers through the plan interface
  (chaos case);
- the CAGNET full-graph epoch is deterministic, learns, and its
  replication knob trades broadcast volume for reduce time;
- a cluster plan over one machine node trains bitwise like the default
  plan, for node classification and link prediction;
- the cluster's replica stores share machine node 0's host arrays, and an
  8-machine-node round's host peak stays within 1.5x a 1-node round's.
"""

from __future__ import annotations

import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, RankFailure
from repro.graph import MultiGpuGraphStore, load_dataset
from repro.hardware import SimNode
from repro.hardware.spec import dgx_a100
from repro.telemetry import metrics
from repro.telemetry.analysis import analyze_node
from repro.telemetry.run_report import scrub_report
from repro.train import WholeGraphTrainer
from repro.train.plans import (
    CagnetFullGraphPlan,
    ClusterDataParallelPlan,
    DataParallelPlan,
    HybridParallelPlan,
    PipelineParallelPlan,
    resolve_plan,
)

TRAIN_KW = dict(batch_size=32, fanouts=[5, 5], hidden=32)


def _trainer(dataset, plan=None, num_gpus=4, seed=3, **kw):
    node = SimNode(dgx_a100(num_gpus))
    store = MultiGpuGraphStore(node, dataset, seed=seed)
    merged = {**TRAIN_KW, **kw}
    return WholeGraphTrainer(store, "graphsage", seed=seed, plan=plan,
                             **merged)


def _isolated(fn):
    prev = metrics.set_registry(metrics.MetricsRegistry())
    try:
        return fn()
    finally:
        metrics.set_registry(prev)


def _scrubbed_run(dataset, plan, seed, overlap):
    def run():
        tr = _trainer(dataset, plan=plan, seed=seed, overlap=overlap)
        tr.train_epoch(max_iterations=3)
        tr.train_epoch(max_iterations=3)
        report = tr.run_report("equivalence")
        return json.dumps(
            scrub_report(report.to_dict()), sort_keys=True, indent=2
        )

    return _isolated(run)


# ---------------------------------------------------------------------------
# data-parallel equivalence: the plan extraction is byte-identical
# ---------------------------------------------------------------------------


class TestDataParallelEquivalence:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 50), overlap=st.booleans())
    def test_explicit_plan_matches_default(
        self, medium_dataset, seed, overlap
    ):
        """plan=DataParallelPlan() == plan=None, byte for byte."""
        default = _scrubbed_run(medium_dataset, None, seed, overlap)
        explicit = _scrubbed_run(
            medium_dataset, DataParallelPlan(), seed, overlap
        )
        assert default == explicit

    def test_plan_name_matches_default(self, medium_dataset):
        default = _scrubbed_run(medium_dataset, None, 3, False)
        named = _scrubbed_run(medium_dataset, "data_parallel", 3, False)
        assert default == named

    def test_default_plan_adds_no_report_keys(self, registry, medium_dataset):
        tr = _trainer(medium_dataset)
        tr.train_epoch(max_iterations=2)
        cfg = tr.run_report("dp").config
        assert "plan" not in cfg
        assert tr.plan.name == "data_parallel"

    def test_resolve_plan_rejects_unknown_and_rebind(self):
        with pytest.raises(ValueError, match="unknown parallelism plan"):
            resolve_plan("tensor_parallel")
        class Owner:  # a live trainer stand-in (plans hold it weakly)
            pass

        owner = Owner()
        bound = DataParallelPlan()
        bound.trainer = owner  # simulates a plan a trainer already took
        with pytest.raises(ValueError, match="single trainer"):
            resolve_plan(bound)
        # the back-reference does not keep its trainer alive
        del owner
        assert bound.trainer is None


# ---------------------------------------------------------------------------
# pipeline parallelism
# ---------------------------------------------------------------------------


class TestPipelinePlan:
    @pytest.mark.parametrize("micro", [1, 4])
    def test_loss_bit_identical_to_data_parallel(
        self, medium_dataset, micro
    ):
        """Micro-batching is a pure timing schedule: same losses as DP."""
        dp = _isolated(
            lambda: _trainer(medium_dataset).train_epoch(max_iterations=4)
        )

        def pipe():
            tr = _trainer(
                medium_dataset,
                plan=PipelineParallelPlan(micro_batches=micro),
            )
            return tr.train_epoch(max_iterations=4)

        pp = _isolated(pipe)
        assert pp.mean_loss == dp.mean_loss  # bitwise, not approx

    def test_bubbles_measured_and_exported(self, registry, medium_dataset):
        tr = _trainer(medium_dataset, plan=PipelineParallelPlan())
        stats = tr.train_epoch(max_iterations=4)
        assert stats.extras["pipeline_bubble"] > 0.0
        assert stats.extras["activation_transfer"] > 0.0
        assert 0.0 < stats.extras["bubble_fraction_model"] < 1.0
        assert registry.total("pipeline_bubble_seconds_total") == (
            pytest.approx(stats.extras["pipeline_bubble"])
        )
        row = stats.as_row()
        assert "pipeline_bubble" in row
        cfg = tr.run_report("pipe").config
        assert cfg["plan"] == "pipeline"
        assert cfg["num_stages"] == 2  # min(4 gpus, 2 layers)
        assert cfg["micro_batches"] > 0

    def test_activation_transfers_on_comm_lane(
        self, registry, medium_dataset
    ):
        tr = _trainer(medium_dataset, plan=PipelineParallelPlan())
        tr.train_epoch(max_iterations=2)
        timeline = tr.node.timeline
        comm_act = sum(
            timeline.phase_total("activation_transfer", f"gpu{r}/nccl")
            for r in range(tr.node.num_gpus)
        )
        assert comm_act > 0.0
        assert comm_act == pytest.approx(
            timeline.phase_total("activation_transfer")
        )

    def test_bubbles_reach_blame_tables(self, registry, medium_dataset):
        tr = _trainer(medium_dataset, plan=PipelineParallelPlan())
        tr.node.reset_clocks()
        tr.train_epoch(max_iterations=4)
        report = analyze_node(tr.node, metrics=registry, name="pipe")
        assert report.critical_path["blame_phase"].get(
            "pipeline_bubble", 0.0
        ) > 0.0

    def test_more_micro_batches_cut_relative_bubble(
        self, registry, medium_dataset
    ):
        """The modelled bubble fraction (S-1)/(M+S-1) falls with M."""
        fracs = []
        for micro in (1, 8):
            def run(m=micro):
                tr = _trainer(
                    medium_dataset,
                    plan=PipelineParallelPlan(micro_batches=m),
                    fanouts=[5, 5, 5, 5],
                )
                return tr.train_epoch(max_iterations=3)

            stats = _isolated(run)
            fracs.append(stats.extras["bubble_fraction_model"])
        assert fracs[1] < fracs[0]

    def test_validates_schedule_knobs(self, medium_dataset):
        with pytest.raises(ValueError, match="owns its schedule"):
            _trainer(
                medium_dataset, plan=PipelineParallelPlan(), overlap=True
            )
        with pytest.raises(ValueError, match="num_stages"):
            _trainer(
                medium_dataset, plan=PipelineParallelPlan(num_stages=3)
            )  # only 2 layers
        with pytest.raises(ValueError, match="micro_batches"):
            _trainer(
                medium_dataset, plan=PipelineParallelPlan(micro_batches=0)
            )

    def test_hybrid_groups(self, registry, medium_dataset):
        tr = _trainer(
            medium_dataset,
            plan=HybridParallelPlan(num_stages=2, num_groups=2),
        )
        stats = tr.train_epoch(max_iterations=3)
        assert np.isfinite(stats.mean_loss)
        assert stats.allreduce > 0.0  # cross-group stage-parameter sync
        cfg = tr.run_report("hybrid").config
        assert cfg["plan"] == "hybrid"
        assert cfg["num_groups"] == 2
        with pytest.raises(ValueError, match="GPUs"):
            _trainer(
                medium_dataset,
                plan=HybridParallelPlan(num_stages=2, num_groups=4),
            )


# ---------------------------------------------------------------------------
# chaos: rank failure mid-pipeline, recovery through the plan interface
# ---------------------------------------------------------------------------


class TestPipelineChaos:
    def test_rank_failure_mid_pipeline_restarts(self, medium_dataset):
        def window():
            tr = _trainer(medium_dataset, plan=PipelineParallelPlan())
            t0 = max(c.now for c in tr.node.gpu_clock)
            stats = tr.train_epoch(max_iterations=4)
            return t0, stats

        t0, clean = _isolated(window)

        def chaos():
            plan = FaultPlan(events=[
                RankFailure(rank=2, time=t0 + 0.4 * clean.epoch_time)
            ])
            tr = _trainer(
                medium_dataset, plan=PipelineParallelPlan(),
                fault_plan=plan, recovery_policy="restart",
            )
            stats = tr.train_epoch(max_iterations=4)
            return tr, stats

        tr, stats = _isolated(chaos)
        assert len(tr.recoveries) == 1
        rec = tr.recoveries[0]
        assert rec["policy"] == "restart"
        assert rec["recovery_seconds"] > 0.0
        # the epoch replayed from its first batch and still finished
        # (fresh RNG draws after the reload, so only shape is comparable)
        assert stats.iterations == 4
        assert np.isfinite(stats.mean_loss)
        assert stats.epoch_time > clean.epoch_time

    def test_pipeline_rejects_shrink(self, medium_dataset):
        plan = FaultPlan(events=[RankFailure(rank=1, time=1e9)])
        with pytest.raises(ValueError, match="restart"):
            _trainer(
                medium_dataset, plan=PipelineParallelPlan(),
                fault_plan=plan, recovery_policy="shrink",
            )


# ---------------------------------------------------------------------------
# CAGNET full-graph
# ---------------------------------------------------------------------------


class TestCagnetPlan:
    def test_deterministic_across_replication(self, medium_dataset):
        """c is a pure timing knob: identical losses for c=1 and c=2."""
        losses = []
        for c in (1, 2):
            def run(c=c):
                tr = _trainer(
                    medium_dataset, plan=CagnetFullGraphPlan(replication=c)
                )
                return [tr.train_epoch().mean_loss for _ in range(3)]

            losses.append(_isolated(run))
        assert losses[0] == losses[1]

    def test_full_graph_epoch_learns(self, registry, medium_dataset):
        tr = _trainer(medium_dataset, plan=CagnetFullGraphPlan())
        stats = [tr.train_epoch() for _ in range(5)]
        assert stats[0].iterations == 1  # one full-graph pass per epoch
        assert stats[-1].mean_loss < stats[0].mean_loss
        assert registry.total("iterations_total") == 5.0
        cfg = tr.run_report("cagnet").config
        assert cfg["plan"] == "cagnet"
        assert cfg["replication"] == 1

    def test_replication_trades_broadcast_for_reduce(self, medium_dataset):
        extras = []
        for c in (1, 2):
            def run(c=c):
                tr = _trainer(
                    medium_dataset, plan=CagnetFullGraphPlan(replication=c)
                )
                return tr.train_epoch().extras

            extras.append(_isolated(run))
        assert extras[1]["broadcast"] < extras[0]["broadcast"]
        assert extras[0]["reduce"] == 0.0  # c=1 is the 1D algorithm
        assert extras[1]["reduce"] > 0.0

    def test_collectives_feed_blame_tables(self, registry, medium_dataset):
        tr = _trainer(medium_dataset, plan=CagnetFullGraphPlan())
        tr.node.reset_clocks()
        tr.train_epoch()
        report = analyze_node(tr.node, metrics=registry, name="cagnet")
        # the exposed broadcast stall (compute waiting on the collective)
        # is what lands on the critical path
        assert report.critical_path["blame_phase"].get(
            "broadcast_wait", 0.0
        ) > 0.0

    def test_validates_knobs(self, medium_dataset):
        with pytest.raises(ValueError, match="divide"):
            _trainer(medium_dataset, plan=CagnetFullGraphPlan(replication=3))
        with pytest.raises(ValueError, match="full-graph"):
            _trainer(
                medium_dataset, plan=CagnetFullGraphPlan(), overlap=True
            )


# ---------------------------------------------------------------------------
# cluster plan: one machine node is the default plan
# ---------------------------------------------------------------------------


class TestClusterPlan:
    @pytest.mark.parametrize("overlap", [False, True])
    def test_one_machine_node_is_the_default_plan(
        self, medium_dataset, overlap
    ):
        def run(plan):
            tr = _trainer(medium_dataset, plan=plan, overlap=overlap)
            losses = [
                tr.train_epoch(max_iterations=3).mean_loss for _ in range(2)
            ]
            weights = [p.data.copy() for p in tr.model.parameters()]
            return losses, weights, tr.evaluate()

        losses, weights, acc = run(None)
        c_losses, c_weights, c_acc = run(ClusterDataParallelPlan(1))
        assert c_losses == losses
        assert all(np.array_equal(a, b) for a, b in zip(weights, c_weights))
        assert c_acc == acc

    def test_one_machine_node_link_prediction(self, bipartite_dataset):
        def run(plan):
            tr = _trainer(
                bipartite_dataset, plan=plan, task="linkpred", num_pairs=32
            )
            losses = [
                tr.train_epoch(max_iterations=3).mean_loss for _ in range(2)
            ]
            return losses, tr.evaluate_linkpred(num_pairs=300)

        assert run(ClusterDataParallelPlan(1)) == run(None)

    def test_validates_knobs(self, medium_dataset):
        with pytest.raises(ValueError, match="machine node"):
            ClusterDataParallelPlan(0)
        with pytest.raises(ValueError, match="cluster plan"):
            _trainer(
                medium_dataset, plan=ClusterDataParallelPlan(2),
                compute_ranks="all",
            )

    def test_replica_stores_share_node0_host_arrays(self, medium_dataset):
        """Every machine node reads node 0's CSR, features, labels and
        splits, but keeps its own DSM allocations, IPC handles and pointer
        tables."""
        tr = _trainer(medium_dataset, plan=ClusterDataParallelPlan(3))
        s0, *rest = [r.store for r in tr.plan.replicas]
        assert len(rest) == 2
        names = ("indptr_tensor", "indices_tensor", "feature_tensor")
        for s in rest:
            assert s.node is not s0.node
            for a, b in [
                (s.csr.indptr, s0.csr.indptr),
                (s.csr.indices, s0.csr.indices),
                (s.features, s0.features),
                (s.labels, s0.labels),
                (s.train_nodes, s0.train_nodes),
                (s.partition.to_stored, s0.partition.to_stored),
            ]:
                assert np.shares_memory(a, b)
            for name in names:
                mine = getattr(s, name).memory
                theirs = getattr(s0, name).memory
                assert np.shares_memory(mine.storage, theirs.storage)
                assert {h.token for h in mine._handles}.isdisjoint(
                    h.token for h in theirs._handles
                )
                for ta, tb in zip(mine.pointer_tables, theirs.pointer_tables):
                    assert ta is not tb
            assert s.node.memory_usage_by_tag() == (
                s0.node.memory_usage_by_tag()
            )

    def test_round_host_peak_independent_of_machine_nodes(self):
        """An 8-machine-node round holds one autograd graph at a time on
        one host copy of the store: its tracemalloc peak is at most 1.5x a
        1-node round's."""
        ds = load_dataset("ogbn-products", num_nodes=6000, seed=0)

        def round_peak(k):
            store = MultiGpuGraphStore(SimNode(), ds, seed=0)
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tr = WholeGraphTrainer(
                    store, "graphsage", seed=0, batch_size=64,
                    plan=ClusterDataParallelPlan(k),
                )
                tr.train_epoch(max_iterations=1)  # warm-up round
                tracemalloc.reset_peak()
                tr.train_epoch(max_iterations=1)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert round_peak(8) <= 1.5 * round_peak(1)
