"""Spans and counts for the traced benchmark run.

Spans are recorded from outside the library.  Each traced public function is
replaced, in every loaded ``hapticauth`` module whose namespace holds it, by
a wrapper that records (name, start, end, parent).  So ``trainer.train``
reaches the traced ``backward`` through ``hapticauth.trainer.backward`` and
``model.forward`` reaches the traced ops through ``model.ad``.  Autodiff ops
also wrap the backward closure they attach to their output, which times each
op's backward work.  Spans and counts stay in memory until the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from bisect import bisect_right
from contextlib import contextmanager
from pathlib import Path

import numpy as np

AUTODIFF_OPS = ("matmul", "add", "mul_scalar", "softmax", "layer_norm",
                "relu", "transpose", "reshape", "mean")


class Tracer:
    """In-memory span and count recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: list[tuple[str, float, float]] = []  # (name, time, amount)
        self._open: list[int] = []

    def count(self, name: str, amount: float) -> None:
        self.counts.append((name, time.perf_counter(), amount))

    def wrap(self, name: str, fn, after=None):
        """fn with a span around every call; after(args, result) runs once the
        span is closed, so the work it does is not charged to the span."""
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                open_.pop()
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def install(self):
        """Patch every traced layer function at each of its lookup sites."""
        replacements = []
        for module, attr, span_name, after in _targets(self):
            original = getattr(module, attr, None)
            if original is None:  # a later version may drop an op; its metrics read 0
                continue
            wrapper = self.wrap(span_name, original, after)
            replacements += [(site, attr, wrapper) for site in _lookup_sites(attr, original)]
        with patched(replacements):
            yield self

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def write(self, path: Path, windows: list[tuple[float, float]]) -> None:
        """One JSON object per line: the measured operations, spans, counts."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (start, end) in enumerate(windows):
                fh.write(json.dumps({"op": i, "start": start, "end": end}) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
            for name, t, amount in self.counts:
                fh.write(json.dumps({"count": name, "time": t, "amount": amount}) + "\n")


@contextmanager
def patched(replacements):
    """Set (module, attribute, value) triples; restore the originals on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, value in replacements:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def _lookup_sites(attr: str, fn) -> list:
    return [mod for key, mod in sorted(sys.modules.items())
            if (key == "hapticauth" or key.startswith("hapticauth."))
            and getattr(mod, attr, None) is fn]


def _matmul_flop(a, b) -> int:
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    return 2 * int(np.prod(batch, dtype=np.int64)) * a.shape[-2] * a.shape[-1] * b.shape[-1]


def _op_nodes(out, below=None) -> int:
    """Op nodes in the graph that ends at out, whichever op made them, each
    counted once; the walk does not enter below, whose graph was counted
    when it was returned."""
    seen, stack, n = set() if below is None else {id(below)}, [out], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        n += t._backward is not None
        stack.extend(t._parents)
    return n


def _targets(tracer: Tracer):
    from hapticauth import autodiff, dataset, evaluation, features, model, signal, trainer

    def op_hook(op):
        bwd_name = f"autodiff.{op}.bwd"

        def after(args, out):
            if out._backward is None:
                return
            if op == "matmul":
                flop = _matmul_flop(args[0], args[1])
                tracer.count("autodiff.matmul.flop", flop)
                # backward runs two matmuls of the forward's size
                out._backward = tracer.wrap(
                    bwd_name, out._backward,
                    lambda _a, _o: tracer.count("autodiff.matmul.flop", 2 * flop))
            else:
                out._backward = tracer.wrap(bwd_name, out._backward)
        return after

    def forward_hook(args, out):
        tracer.count("autodiff.nodes", _op_nodes(out))

    def loss_hook(args, out):
        tracer.count("autodiff.nodes", _op_nodes(out, below=args[0]))

    def csv_hook(args, out):
        tracer.count("dataset.csv_bytes", len(args[0]))

    return [
        (dataset, "synth_dataset", "dataset.synth_dataset", None),
        (dataset, "save_dataset", "dataset.save_dataset", None),
        (dataset, "load_dataset", "dataset.load_dataset", None),
        (dataset, "parse_trace_csv", "dataset.parse_trace_csv", csv_hook),
        (signal, "ema_filter", "signal.ema_filter", None),
        (signal, "resample", "signal.resample", None),
        (signal, "zscore_fit", "signal.zscore", None),
        (signal, "zscore_apply", "signal.zscore", None),
        (features, "extract_features", "features.extract_features", None),
        (features, "pipeline", "features.pipeline", None),
        *[(autodiff, op, f"autodiff.{op}.fwd", op_hook(op)) for op in AUTODIFF_OPS],
        (autodiff, "backward", "autodiff.backward", None),
        (model, "forward", "model.forward", forward_hook),
        (model, "mhsa", "model.mhsa", None),
        (model, "cross_entropy", "model.cross_entropy", loss_hook),
        (model, "build_model", "model.build_model", None),
        (model, "load_checkpoint", "model.load_checkpoint", None),
        (trainer, "adam_step", "trainer.adam_step", None),
        (trainer, "train", "trainer.train", None),
        (evaluation, "predict_batch", "evaluation.predict_batch", None),
    ]


# --- per-layer metrics --------------------------------------------------------

# (metric, unit, span or count name, how).  "op": summed per measured operation
# (ingest pass, training step or request), averaged over operations; "self":
# the same with self time; "call": mean per call anywhere in the traced phase;
# "count": summed per operation, averaged over operations.
LAYER_METRICS = [
    ("dataset.synth_dataset.s", "s", "dataset.synth_dataset", "call"),
    ("dataset.save_dataset.s", "s", "dataset.save_dataset", "call"),
    ("dataset.load_dataset.s", "s", "dataset.load_dataset", "call"),
    ("dataset.csv_bytes", "count", "dataset.csv_bytes", "count"),
    ("dataset.parse_trace_csv.ms", "ms", "dataset.parse_trace_csv", "call"),
    ("signal.ema_filter.s", "s", "signal.ema_filter", "op"),
    ("signal.resample.s", "s", "signal.resample", "op"),
    ("signal.zscore.s", "s", "signal.zscore", "op"),
    ("features.extract_features.s", "s", "features.extract_features", "op"),
    ("features.pipeline.s", "s", "features.pipeline", "op"),
    *[(f"autodiff.{op}.{d}_ms", "ms", f"autodiff.{op}.{d}", "op")
      for op in AUTODIFF_OPS for d in ("fwd", "bwd")],
    ("autodiff.backward.ms", "ms", "autodiff.backward", "self"),
    ("autodiff.nodes", "count", "autodiff.nodes", "count"),
    ("model.forward.ms", "ms", "model.forward", "op"),
    ("model.mhsa.ms", "ms", "model.mhsa", "op"),
    ("model.cross_entropy.ms", "ms", "model.cross_entropy", "op"),
    ("model.build_model.ms", "ms", "model.build_model", "call"),
    ("model.load_checkpoint.ms", "ms", "model.load_checkpoint", "call"),
    ("trainer.adam_step.ms", "ms", "trainer.adam_step", "op"),
    ("evaluation.predict_batch.ms", "ms", "evaluation.predict_batch", "op"),
]


def _in_windows(windows: list[tuple[float, float]]):
    """Predicate: does time t fall inside one of the sorted (start, end) windows?"""
    starts = [w[0] for w in windows]

    def inside(t: float) -> bool:
        i = bisect_right(starts, t) - 1
        return i >= 0 and t < windows[i][1]
    return inside


def layer_metrics(tracer: Tracer, windows: list[tuple[float, float]]) -> dict[str, tuple[float, str]]:
    """Per-layer values from the traced phase; windows are the measured
    operations' (start, end) intervals, sorted by start."""
    inside = _in_windows(windows)
    n_ops = max(len(windows), 1)
    inclusive: dict[str, float] = {}
    self_sum: dict[str, float] = {}
    calls: dict[str, list[float]] = {}
    for (name, start, end, _), self_t in zip(tracer.spans, tracer.self_times()):
        acc = calls.setdefault(name, [0.0, 0])
        acc[0] += end - start
        acc[1] += 1
        if inside(start):
            inclusive[name] = inclusive.get(name, 0.0) + end - start
            self_sum[name] = self_sum.get(name, 0.0) + self_t
    counted: dict[str, float] = {}
    for name, t, amount in tracer.counts:
        if inside(t):
            counted[name] = counted.get(name, 0.0) + amount

    scale = {"s": 1.0, "ms": 1e3, "count": 1.0}
    out = {}
    for metric, unit, source, how in LAYER_METRICS:
        if how == "call":
            total, n = calls.get(source, (0.0, 0))
            value = total / n if n else 0.0
        else:
            per_op = {"op": inclusive, "self": self_sum, "count": counted}[how]
            value = per_op.get(source, 0.0) / n_ops
        out[metric] = (value * scale[unit], unit)

    flop = counted.get("autodiff.matmul.flop", 0.0)
    matmul_s = inclusive.get("autodiff.matmul.fwd", 0.0) + inclusive.get("autodiff.matmul.bwd", 0.0)
    out["autodiff.matmul.gflop"] = (flop / n_ops / 1e9, "GFLOP")
    out["autodiff.matmul.gflops"] = (flop / matmul_s / 1e9 if matmul_s > 0 else 0.0, "GFLOP/s")
    return out


def self_time_table(tracer: Tracer, windows: list[tuple[float, float]]) -> list[tuple[str, float, float]]:
    """(span name, self ms per operation, calls per operation), largest first."""
    inside = _in_windows(windows)
    n_ops = max(len(windows), 1)
    rows: dict[str, list[float]] = {}
    for (name, start, _, _), self_t in zip(tracer.spans, tracer.self_times()):
        if inside(start):
            row = rows.setdefault(name, [0.0, 0])
            row[0] += self_t
            row[1] += 1
    table = [(name, 1e3 * s / n_ops, n / n_ops) for name, (s, n) in rows.items()]
    return sorted(table, key=lambda r: -r[1])
