"""Tests of the benchmark harness itself (seconds, no benchmark run).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re

import pytest

from benchmarks.e2e import compare, metrics, run
from benchmarks.e2e.tracer import Tracer, self_times
from benchmarks.e2e.workloads import WORKLOADS, Workload
from repro.graph import load_dataset
from repro.hardware.clock import SimClock
from repro.nn.tensor import Tensor
from repro.sim.core import Stream

SPEC_PATH = run.ROOT / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads(SPEC_PATH.read_text())


def test_benchmark_json_schema(spec):
    assert SPEC_PATH.stat().st_size <= 64 * 1024
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= len(spec["command"]) <= 32
    for arg in spec["command"]:
        assert len(arg) <= 200 and not arg.startswith("/") and ".." not in arg
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.match(path) and ".." not in path.split("/")
        assert (run.ROOT / path).is_dir()
    assert spec["command"][1].startswith(spec["paths"][0] + "/")
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60

    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)

    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200
        assert w["why"] == WORKLOADS[w["name"]].why
    assert tuple(w["name"] for w in spec["workloads"]) == (
        metrics.WORKLOAD_NAMES
    ) == tuple(WORKLOADS)

    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}

    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"])
        known = metrics.BY_NAME[m["name"]]
        assert (m["unit"], m["better"]) == (known.unit, known.better)


def test_every_layer_metric_names_what_it_moves(spec):
    for key, table in (("end_to_end", metrics.END_TO_END),
                       ("per_layer", metrics.LAYERS)):
        assert [m["name"] for m in spec[key]] == [
            m.name for m in table if m.listed
        ]
    end_to_end = {m.name for m in metrics.END_TO_END}
    for m in metrics.LAYERS:
        assert m.moves in end_to_end, m.name
        assert m.on and set(m.on) <= set(WORKLOADS), m.name


def test_self_times_subtract_nested_children():
    spans = [
        ("train.epoch", 0, 100, -1),
        ("train.loader", 10, 40, 0),
        ("ops.sample", 15, 25, 1),
        ("nn.backward", 50, 90, 0),
        ("nn.layer0.bwd", 60, 70, 3),
        ("nn.layer0.bwd", 70, 80, 3),
    ]
    assert self_times(spans) == {
        "train.epoch": 30, "train.loader": 20, "ops.sample": 10,
        "nn.backward": 20, "nn.layer0.bwd": 20,
    }
    # a span outside the window still has its children's time removed
    assert self_times(spans, start=3) == {"nn.backward": 20,
                                          "nn.layer0.bwd": 20}
    assert sum(self_times(spans).values()) == 100


def test_median_chunk_throughput_ignores_a_short_burst():
    steady = [2.0] * 6
    assert metrics.median_chunk_throughput(100, steady) == 50.0
    burst = steady + [9.0] * 5
    assert metrics.median_chunk_throughput(100, burst) == 50.0
    with pytest.raises(ValueError):
        metrics.median_chunk_throughput(100, [])


@pytest.mark.parametrize("change, expected", [
    (lambda p: [v * 1.05 for v in p], "better"),
    (lambda p: list(p), "same"),
    (lambda p: [v * 0.97 for v in p], "same"),
    (lambda p: [v * 0.80 for v in p], "worse"),
])
def test_compare_rule(change, expected):
    parent = [100.0 + 0.1 * i for i in range(10)]
    assert compare.classify(parent, change(parent), "higher", 0.1) == expected
    flipped = [-v for v in change(parent)]
    assert compare.classify([-v for v in parent], flipped, "lower",
                            0.1) == expected


def test_compare_rule_needs_ten_pairs_and_a_resolved_spread():
    parent = [100.0 + i for i in range(5)]
    assert compare.classify(parent, [v * 1.2 for v in parent], "higher",
                            0.1) == "same"
    noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    assert compare.classify(noisy, [v * 0.95 for v in noisy], "higher",
                            0.1) == "unresolved"
    assert compare.classify(noisy, [200.0] * 10, "higher", 0.1) == "better"


def test_compare_flags_loss_traces_and_failures():
    def result(seed, losses, failed=0):
        return {"workload": "w", "seed": seed, "losses": losses,
                "failed": failed, "metrics": {"x": 1.0}}

    parent = [result(s, [1.0, 0.5]) for s in range(10)]
    change = [result(s, [1.0, 0.5, 0.25]) for s in range(10)]
    spec = [{"name": "x", "better": "lower", "bound": 0.1}]
    rows, problems = compare.compare(parent, change, spec)
    assert [r[2] for r in rows] == ["same"] and problems == []
    change[3] = result(3, [1.0, 0.4], failed=2)
    _, problems = compare.compare(parent, change, spec)
    assert problems == ["w seed 3: loss traces differ",
                        "w: change failed 2 steps, parent 0"]


def test_dead_child_is_a_failed_run(tmp_path):
    res = run.measure("no-such-workload", 0, 1.0, False, tmp_path)
    assert not res["correct"]
    assert (res["attempted"], res["failed"]) == (1, 1)
    assert res["metrics"]["failed_frac"] == 1.0
    assert json.loads((tmp_path / "seed0.json").read_text())["failed"] == 1


TINY = Workload(
    name="tiny", why="test",
    dataset=lambda seed: load_dataset(
        "ogbn-products", num_nodes=3000, seed=seed, feature_dim=16,
        num_classes=5,
    ),
    trainer_kwargs=dict(model_name="graphsage", batch_size=64,
                        fanouts=[5, 5], hidden=16),
    max_iterations=2,
)


def _train(tracer=None):
    trainer, _ = TINY.build(3)
    train_epoch = trainer.train_epoch
    if tracer is not None:
        tracer.install(trainer)
        tracer.start_timed()
        train_epoch = tracer.wrap(train_epoch, "train.epoch")
    stats = [train_epoch(max_iterations=2) for _ in range(2)]
    if tracer is not None:
        tracer.stop_timed()
        tracer.uninstall()
    return [(s.mean_loss, s.epoch_time) for s in stats]


def test_tracer_changes_no_result_and_restores_everything():
    originals = (vars(Tensor)["_make"], Tensor.backward, Stream.launch,
                 SimClock.advance)
    plain = _train()
    tracer = Tracer()
    assert _train(tracer) == plain
    assert (vars(Tensor)["_make"], Tensor.backward, Stream.launch,
            SimClock.advance) == originals
    assert tracer.timed_steps == 4
    layers = tracer.layer_metrics()
    for name in ("ops.sample_layer_ms", "dsm.gather_ms", "nn.layer0.fwd_ms",
                 "nn.layer0.bwd_ms", "nn.optimizer_ms", "train.loader_ms"):
        assert layers[name] > 0, name
    assert layers["nn.layer2.fwd_ms"] == 0.0
    assert 0 < layers["ops.unique_ratio"] <= 1
