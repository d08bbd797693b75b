"""Outside-in host tracer: spans around the public calls into each layer.

Nothing under ``src/`` knows about it.  :meth:`Tracer.install` replaces
functions and methods with timing wrappers — on the trainer's own objects
where they exist, on the module or class the callers look them up in where
they are created per epoch — and :meth:`Tracer.uninstall` puts every
original back.  The wrappers only call through, so a traced run computes
bit-identical losses and simulated times.

How time is attributed:

- a span records name, start, end, parent span and step; spans stay in
  memory and are written as a Chrome trace at the end;
- a span's *self time* is its duration minus the time its child spans cover;
- step boundaries are the returns of ``GradSyncModel.charge``, which every
  schedule calls once per step;
- every tape pullback created while a conv's ``forward`` runs (caught by
  wrapping ``Tensor._make``) is timed as that conv's backward.
"""

from __future__ import annotations

import json
import statistics
import tracemalloc
from collections import Counter
from time import perf_counter_ns

#: spans reported as ``<name>_ms``, their self time per step
SELF_TIME_SPANS = (
    "ops.sample", "ops.sample_layer", "ops.append_unique", "ops.link_batch",
    "dsm.embedding_gather", "dsm.embedding_push", "nn.forward", "nn.backward",
    "nn.loss", "nn.optimizer", "nn.sparse_optimizer", "train.grad_sync",
    *(f"nn.layer{i}.{d}" for i in range(3) for d in ("fwd", "bwd")),
)
#: self-time spans whose sum is the step's batch preparation
LOADER_SPANS = (
    "train.loader", "ops.sample", "ops.sample_layer", "ops.append_unique",
    "ops.link_batch", "dsm.gather", "dsm.embedding_gather",
)


def self_times(spans, start: int = 0) -> dict[str, int]:
    """Total self time per span name over ``spans[start:]``.

    ``spans`` are ``(name, start, end, parent, ...)`` records in recording
    order, ``parent`` the index of the enclosing span or -1.  Children of a
    span never overlap each other (one thread), so the time they cover is
    the sum of their durations.
    """
    covered = [0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            covered[rec[3]] += rec[2] - rec[1]
    out: Counter = Counter()
    for i in range(start, len(spans)):
        name, s, e = spans[i][:3]
        out[name] += (e - s) - covered[i]
    return dict(out)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent, step]`` records
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: steps completed (``GradSyncModel.charge`` returns so far)
        self.step = 0
        self.step_ends: list[int] = []
        #: tracemalloc peak above the step's starting level, per step
        self.step_peaks: list[int] = []
        self._step_base = 0
        self.counts: Counter = Counter()
        #: backward span name of the innermost conv whose forward is running
        self._bwd_name: str | None = None
        self._patches: list[tuple[object, str, object, bool]] = []
        self._timed_from = 0
        self._timed_step = 0
        self._timed_counts: Counter = Counter()
        self._timed_t0 = 0

    # -- recording -----------------------------------------------------------

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` timed as span ``name``; ``on_result(out, args)`` counts."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.step]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(out, args)
            return out

        return traced

    def _count_calls(self, fn, key: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap_conv(self, fn, index: int):
        traced = self.wrap(fn, f"nn.layer{index}.fwd")
        bwd = f"nn.layer{index}.bwd"

        def conv_forward(*args, **kwargs):
            outer, self._bwd_name = self._bwd_name, bwd
            try:
                return traced(*args, **kwargs)
            finally:
                self._bwd_name = outer

        return conv_forward

    def _end_step(self, _out, _args) -> None:
        self.step_ends.append(perf_counter_ns())
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            self.step_peaks.append(peak - self._step_base)
            tracemalloc.reset_peak()
            self._step_base = current
        self.step += 1

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, replacement)

    def _trace(self, owner, attr: str, name: str, on_result=None) -> None:
        self._patch(owner, attr,
                    self.wrap(getattr(owner, attr), name, on_result))

    def install(self, trainer) -> None:
        """Wrap every layer boundary the benchmark's workloads cross."""
        from repro.hardware.clock import SimClock
        from repro.nn import functional
        from repro.nn.tensor import Tensor
        from repro.ops import neighbor_sampler
        from repro.sim.core import Stream
        from repro.train import pipeline
        from repro.train import trainer as trainer_module
        from repro.train.streaming import StreamingLoader

        counts = self.counts

        def count_sampled(out, _args):
            counts["ops.sampled_edges"] += out[0].shape[0]

        def count_unique(out, args):
            counts["ops.frontier_rows"] += out.num_unique
            counts["ops.unique_inputs"] += args[0].shape[0] + args[1].shape[0]

        def count_rows(array):
            counts["dsm.gather_rows"] += array.shape[0]
            counts["dsm.gather_bytes"] += array.nbytes

        # module functions, patched where their callers look them up
        self._trace(neighbor_sampler, "sample_layer", "ops.sample_layer",
                    count_sampled)
        self._trace(neighbor_sampler, "append_unique", "ops.append_unique",
                    count_unique)
        self._trace(trainer_module, "sample_link_batch", "ops.link_batch")
        self._trace(pipeline, "sample_and_gather", "train.loader")
        for fn in ("cross_entropy", "binary_cross_entropy_with_logits",
                   "pairwise_dot"):
            self._trace(functional, fn, "nn.loss")

        # the trainer's own objects
        self._trace(trainer.sampler, "sample", "ops.sample")
        store = trainer.store
        self._trace(store, "gather_features", "dsm.gather",
                    lambda out, _a: count_rows(out))
        if store.tier == "tiered":
            self._trace(store.feature_tensor, "gather_no_cost", "dsm.gather")
            self._trace(store.feature_tensor, "fetch_time", "dsm.gather")
        if trainer.embedding is not None:
            self._trace(trainer.embedding, "forward", "dsm.embedding_gather",
                        lambda out, _a: count_rows(out.data))
            self._trace(trainer.embedding, "push_row_grads",
                        "dsm.embedding_push")
            self._trace(trainer.sparse_optimizer, "step",
                        "nn.sparse_optimizer")
        model = trainer.model
        self._trace(model, "forward", "nn.forward")
        for i, conv in enumerate(model.convs):
            self._patch(conv, "forward", self._wrap_conv(conv.forward, i))
        self._trace(trainer.optimizer, "step", "nn.optimizer")
        self._patch(trainer.grad_sync, "charge",
                    self.wrap(trainer.grad_sync.charge, "train.grad_sync",
                              self._end_step))

        # classes whose instances are made per epoch or per op
        self._trace(StreamingLoader, "prefetch", "train.loader")
        self._trace(StreamingLoader, "take", "dsm.gather",
                    lambda out, _a: count_rows(out[1]))
        self._trace(Tensor, "backward", "nn.backward")
        make = vars(Tensor)["_make"].__func__

        def traced_make(data, parents, backward):
            if self._bwd_name is not None:
                backward = self.wrap(backward, self._bwd_name)
            return make(data, parents, backward)

        self._patch(Tensor, "_make", staticmethod(traced_make))
        self._patch(Stream, "launch",
                    self._count_calls(Stream.launch, "sim.launches"))
        self._patch(SimClock, "advance",
                    self._count_calls(SimClock.advance, "sim.advances"))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- the timed region ----------------------------------------------------

    def start_timed(self) -> None:
        """Start the timed region: per-step metrics count from here on."""
        self._timed_from = len(self.spans)
        self._timed_step = self.step
        self._timed_counts = Counter(self.counts)
        self._timed_t0 = perf_counter_ns()
        self.step_peaks.clear()
        tracemalloc.start()
        self._step_base = tracemalloc.get_traced_memory()[0]

    def stop_timed(self) -> None:
        """End the timed region (stops tracemalloc)."""
        tracemalloc.stop()

    @property
    def timed_steps(self) -> int:
        """Steps completed since :meth:`start_timed`."""
        return self.step - self._timed_step

    def _step_windows(self) -> list[tuple[int, int]]:
        """``(start, end)`` of each timed step, boundary to boundary."""
        ends = [e for e in self.step_ends if e > self._timed_t0]
        return list(zip([self._timed_t0] + ends[:-1], ends))

    def layer_metrics(self) -> dict[str, float]:
        """Host per-layer metrics, per timed step, from the recorded spans."""
        steps = self.timed_steps
        if steps <= 0:
            raise ValueError("no step completed in the timed region")
        own = self_times(self.spans, self._timed_from)
        counts = self.counts - self._timed_counts

        def ms(*names):
            return sum(own.get(n, 0) for n in names) / steps / 1e6

        out = {f"{name}_ms": ms(name) for name in SELF_TIME_SPANS}
        out.update({
            "ops.sampled_edges": counts["ops.sampled_edges"] / steps,
            "ops.frontier_rows": counts["ops.frontier_rows"] / steps,
            "ops.unique_ratio": (
                counts["ops.frontier_rows"] / counts["ops.unique_inputs"]
                if counts["ops.unique_inputs"] else 0.0
            ),
            "dsm.gather_ms": ms("dsm.gather", "dsm.embedding_gather"),
            "dsm.gather_rows": counts["dsm.gather_rows"] / steps,
            "dsm.gather_mb": counts["dsm.gather_bytes"] / steps / 2**20,
            "nn.step_peak_mb": (
                statistics.median(self.step_peaks) / 2**20
                if self.step_peaks else 0.0
            ),
            "train.loader_ms": ms(*LOADER_SPANS),
            "train.glue_ms": ms("train.epoch"),
            "train.step_ms_p50": statistics.median(
                (e - s) / 1e6 for s, e in self._step_windows()
            ),
            "sim.launches": counts["sim.launches"] / steps,
            "sim.advances": counts["sim.advances"] / steps,
        })
        return out

    def write_chrome_trace(self, path) -> None:
        """Write the spans as Chrome trace events (chrome://tracing,
        ui.perfetto.dev): layer spans on one lane, step windows on another."""
        t0 = self.spans[0][1] if self.spans else 0
        events = [
            {"ph": "M", "name": "thread_name", "pid": 0, "tid": tid,
             "args": {"name": label}}
            for tid, label in ((0, "layers"), (1, "steps"))
        ]
        for name, s, e, _parent, step in self.spans:
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "pid": 0, "tid": 0, "ts": (s - t0) / 1e3,
                "dur": (e - s) / 1e3, "args": {"step": step},
            })
        for k, (s, e) in enumerate(self._step_windows()):
            events.append({
                "name": "train.step", "cat": "train", "ph": "X",
                "pid": 0, "tid": 1, "ts": (s - t0) / 1e3,
                "dur": (e - s) / 1e3, "args": {"step": k},
            })
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
