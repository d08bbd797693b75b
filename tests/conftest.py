"""Shared fixtures for the WholeGraph-reproduction test suite."""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.graph import MultiGpuGraphStore, load_dataset
from repro.hardware import SimNode
from repro.telemetry.metrics import MetricsRegistry, set_registry

# a lean hypothesis profile: the default example count makes the heavier
# graph-op properties slow on this single-core box; print_blob gives the
# @reproduce_failure decorator on any falsifying example
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
settings.load_profile("repro")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """On failure, print the seed of any seeded RNG the test consumed."""
    outcome = yield
    report = outcome.get_result()
    seed = getattr(item, "_rng_seed", None)
    if seed is not None and report.when == "call" and report.failed:
        report.sections.append(
            ("seeded rng", f"np.random.default_rng(seed={seed})")
        )


@pytest.fixture
def rng(request) -> np.random.Generator:
    request.node._rng_seed = 1234
    return np.random.default_rng(1234)


@pytest.fixture
def seeded_rng(request) -> np.random.Generator:
    """A per-test deterministic RNG; its seed is reported on failure."""
    seed = zlib.crc32(request.node.nodeid.encode())
    request.node._rng_seed = seed
    return np.random.default_rng(seed)


@pytest.fixture
def record_rng_seed(request):
    """Factory that stamps a (e.g. hypothesis-drawn) seed on the test item.

    The sparse-optimizer identity properties draw their seeds from
    hypothesis rather than ``seeded_rng``; recording each drawn seed here
    makes a failure print the falsifying seed through the same
    ``pytest_runtest_makereport`` hook.  Returns the seeded generator.
    """

    def record(seed: int) -> np.random.Generator:
        request.node._rng_seed = int(seed)
        return np.random.default_rng(int(seed))

    return record


@pytest.fixture
def node() -> SimNode:
    """A fresh 8-GPU DGX-A100 model."""
    return SimNode()


@pytest.fixture
def registry() -> MetricsRegistry:
    """A fresh process metrics registry, restored after the test."""
    fresh = MetricsRegistry()
    prev = set_registry(fresh)
    yield fresh
    set_registry(prev)


@pytest.fixture(scope="session")
def small_dataset():
    """A small labelled products-like dataset (session-cached)."""
    return load_dataset(
        "ogbn-products", num_nodes=2000, seed=7, feature_dim=16,
        num_classes=5,
    )


@pytest.fixture(scope="session")
def medium_dataset():
    """A 3000-node labelled dataset — several batches of 32 per epoch
    (session-cached; shared by the pipeline, fault and determinism
    suites)."""
    return load_dataset(
        "ogbn-products", num_nodes=3000, seed=7, feature_dim=16,
        num_classes=5,
    )


@pytest.fixture(scope="session")
def bipartite_dataset():
    """A small user-item rating graph (session-cached; recsys suites)."""
    from repro.graph import load_bipartite_dataset

    return load_bipartite_dataset(num_users=400, num_items=150, seed=0)


@pytest.fixture
def small_store(small_dataset) -> MultiGpuGraphStore:
    return MultiGpuGraphStore(SimNode(), small_dataset, seed=0)


@pytest.fixture
def cluster_trainer():
    """Factory: a trainer over ``num_machine_nodes`` machine nodes.

    Machine node 0's store is built with the trainer's seed; the plan
    re-shards it onto the other machine nodes.
    """
    from repro.train import WholeGraphTrainer
    from repro.train.plans import ClusterDataParallelPlan

    def build(dataset, num_machine_nodes, model_name, seed=0, **kw):
        store = MultiGpuGraphStore(SimNode(), dataset, seed=seed)
        return WholeGraphTrainer(
            store, model_name, seed=seed,
            plan=ClusterDataParallelPlan(num_machine_nodes), **kw,
        )

    return build


@pytest.fixture
def transient_plan():
    """Factory for a deterministic all-transient-kinds fault plan."""
    from repro.faults import (
        FaultPlan,
        GatherReplyLoss,
        LinkDegradation,
        StragglerGpu,
    )

    def build(
        *,
        slowdown: float = 3.0,
        link_factor: float = 2.0,
        loss_probability: float = 0.5,
        start: float = 0.0,
        end: float = float("inf"),
        seed: int = 11,
        node_id: int = 0,
    ) -> FaultPlan:
        return FaultPlan(
            events=[
                StragglerGpu(
                    rank=1, slowdown=slowdown,
                    start=start, end=end, node_id=node_id,
                ),
                LinkDegradation(
                    factor=link_factor, start=start, end=end,
                    node_id=node_id,
                ),
                GatherReplyLoss(
                    probability=loss_probability, start=start, end=end,
                ),
            ],
            seed=seed,
        )

    return build
