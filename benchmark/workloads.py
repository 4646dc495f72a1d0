"""The benchmark workloads and the runner that turns their measured
operations into metrics.

Every workload is closed loop with one client: the next operation starts
when the previous one has returned.  A workload is set up, runs one untimed
warm-up operation, then runs operations until their summed time reaches the
run length.  It sets itself up again each time another SETUP_REPS-th of
the run has passed; set-up time is the median of the SETUP_REPS set-ups.
Each operation's outputs are checked outside the timed region.
"""

from __future__ import annotations

import math
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from hapticauth import dataset, evaluation, features, model, signal, trainer
from hapticauth.errors import HapticAuthError

import checks
from tracing import Tracer, layer_metrics, patched, self_time_table

SETUP_REPS = 7
ALPHA = 0.001  # the paper's EMA coefficient

# the full paper protocol: 7 user-id models (15-way, L 512, 1500 train
# sequences) and 15 task models (7-way, L 64, 700 train sequences), 100 epochs
PROTOCOL_SEQUENCES = {"user-id": 7 * 1500 * 100, "task": 15 * 700 * 100}


@dataclass
class Op:
    """One measured operation: an ingest pass, a training step or a request."""

    start: float
    end: float
    items: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class IngestShape:
    users: int
    tasks: tuple[str, ...]
    trials: int                 # per (user, task) in one pass
    seq_lens: tuple[int, ...]
    ema_samples: int            # traces per pass checked against the float32 recurrence
    duration_range: tuple[float, float] = (1.0, 2.0)


@dataclass(frozen=True)
class TrainShape:
    kind: str                   # "task" (classes are tasks) or "user-id" (classes are users)
    users: int
    tasks: tuple[str, ...]
    train_trials: int           # per (user, task) in the train split
    probe_trials: int           # per (user, task) held out for the probe batch
    calls_per_split: int        # one train() call uses 1/calls_per_split of the split
    epochs: int                 # per train() call
    batch: int
    probe_batch: int
    model: model.ModelConfig
    duration_range: tuple[float, float] = (1.0, 2.0)


@dataclass(frozen=True)
class AuthShape:
    users: int
    task: str
    fit_trials: int             # per user, to fit the z-score statistics
    request_trials: int         # per user, held out and replayed as requests
    check_every: int
    model: model.ModelConfig
    duration_range: tuple[float, float] = (1.0, 2.0)


TASKS = dataset.DEFAULT_TASKS
PAPER_TASK_MODEL = model.ModelConfig(d_model=256, num_heads=16, ffn_dim=256, seq_len=64, num_classes=7)
PAPER_USERID_MODEL = model.ModelConfig(d_model=256, num_heads=16, ffn_dim=256, seq_len=512, num_classes=15)
TINY_MODEL = model.ModelConfig(d_model=16, num_heads=2, ffn_dim=16, seq_len=16, num_classes=3)
TINY_DURATION = (0.1, 0.2)

SHAPES = {
    "full": {
        "ingest": IngestShape(users=15, tasks=TASKS, trials=1, seq_lens=(64, 512), ema_samples=3),
        "train-task": TrainShape(kind="task", users=2, tasks=TASKS, train_trials=16, probe_trials=1,
                                 calls_per_split=1, epochs=2, batch=16, probe_batch=4,
                                 model=PAPER_TASK_MODEL),
        # batch 3, not the paper's 16: batch 16 peaks at 6.2 GB RSS, too much
        # for an 8 GB machine, and 3 splits a call's 15 sequences evenly; the
        # per-sequence cost is the same
        "train-userid": TrainShape(kind="user-id", users=15, tasks=("a",), train_trials=4,
                                   probe_trials=1, calls_per_split=4, epochs=1, batch=3,
                                   probe_batch=2, model=PAPER_USERID_MODEL),
        "authenticate": AuthShape(users=15, task="a", fit_trials=4, request_trials=4,
                                  check_every=25, model=PAPER_USERID_MODEL),
    },
    "tiny": {
        "ingest": IngestShape(users=3, tasks=TASKS[:2], trials=1, seq_lens=(16, 32), ema_samples=2,
                              duration_range=TINY_DURATION),
        "train-task": TrainShape(kind="task", users=2, tasks=TASKS[:3], train_trials=4, probe_trials=1,
                                 calls_per_split=1, epochs=1, batch=4, probe_batch=2,
                                 model=TINY_MODEL, duration_range=TINY_DURATION),
        "train-userid": TrainShape(kind="user-id", users=3, tasks=("a",), train_trials=2,
                                   probe_trials=1, calls_per_split=2, epochs=1, batch=2,
                                   probe_batch=2, model=TINY_MODEL, duration_range=TINY_DURATION),
        "authenticate": AuthShape(users=3, task="a", fit_trials=2, request_trials=2, check_every=2,
                                  model=TINY_MODEL, duration_range=TINY_DURATION),
    },
}


def _report_failure(what: str) -> None:
    print(f"benchmark: {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


@dataclass
class Workload:
    """Shared state of a workload run; subclasses define set-up and operations.

    fault ("corrupt-trace" or "nan-param") injects one defect so that tests
    can show the checks count it; benchmark runs never set it.
    """

    shape: object
    seed: int
    workdir: Path
    fault: str | None = None
    attempted: int = 0
    failed: int = 0
    calls: int = field(default=0, init=False)

    unit = "items"
    per_item_latency = False

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, budget_s: float, after_step=None) -> list[Op]:
        """Measured operations until their summed time reaches budget_s; failed
        operations yield no timing, so wall time caps a run that keeps failing.
        after_step(measured seconds so far) runs after each step, untimed."""
        ops: list[Op] = []
        start = time.perf_counter()
        while True:
            ops += self.step()
            measured = sum(op.seconds for op in ops)
            if after_step is not None:
                after_step(measured)
            if measured >= budget_s or time.perf_counter() - start >= 4 * budget_s + 1:
                return ops

    def step(self) -> list[Op]:
        raise NotImplementedError

    def alloc_probe(self) -> None:
        """Run one forward pass for the tracemalloc probe (no-op without a model)."""


class Ingest(Workload):
    """synth -> CSV save -> CSV load -> EMA filter -> features at each length
    -> z-score, over a corpus of users x tasks x trials per pass."""

    unit = "traces"
    per_item_latency = True

    def setup(self) -> None:
        # ingest has no inputs beyond its seed: set-up is one small pass that
        # creates the work directory and warms every stage
        s = self.shape
        self._pass(dataset.SynthConfig(num_users=s.users, tasks=s.tasks[:1], trials_per_task=1,
                                       seed=self.seed, duration_range=s.duration_range))

    def step(self) -> list[Op]:
        s = self.shape
        self.calls += 1
        op = self._pass(dataset.SynthConfig(num_users=s.users, tasks=s.tasks, trials_per_task=s.trials,
                                            seed=self.seed * 10_000 + self.calls,
                                            duration_range=s.duration_range))
        return [op] if op else []

    def _pass(self, cfg: dataset.SynthConfig) -> Op | None:
        n = cfg.num_users * len(cfg.tasks) * cfg.trials_per_task
        out_dir = self.workdir / f"pass-{self.calls}"
        self.attempted += n
        try:
            t0 = time.perf_counter()
            synth = dataset.synth_dataset(cfg)
            manifest = dataset.save_dataset(synth, out_dir)
            if self.fault == "corrupt-trace":
                self.fault = None
                _corrupt_last_row(out_dir / manifest.entries[0].path)
            loaded = dataset.load_dataset(manifest, out_dir).traces
            filtered = [signal.filter_trace(tr, ALPHA) for tr in loaded]
            for length in self.shape.seq_lens:
                seqs = [features.pipeline(tr, length).values for tr in loaded]
                stats = signal.zscore_fit(seqs)
                for v in seqs:
                    signal.zscore_apply(v, stats)
            t1 = time.perf_counter()
        except HapticAuthError:
            _report_failure("ingest pass")
            self.failed += n
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

        bad = {i for i, (a, b) in enumerate(zip(synth.traces, loaded)) if not checks.roundtrip_ok(a, b)}
        picks = np.linspace(0, len(loaded) - 1, min(self.shape.ema_samples, len(loaded))).astype(int)
        bad |= {int(i) for i in picks
                if not checks.same_bits(filtered[i].forces, checks.ema_reference(loaded[i].forces, ALPHA))}
        self.failed += len(bad)
        return Op(t0, t1, n)


def _corrupt_last_row(path: Path) -> None:
    """Keep the file parseable but change the last row's forces."""
    lines = path.read_text(encoding="utf-8").splitlines()
    ts = lines[-1].split(",")[0]
    lines[-1] = f"{ts},9.5,9.5,9.5"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class Train(Workload):
    """trainer.train on a featurized, z-scored split; the operation is one
    optimizer step, delimited by the return of trainer.adam_step."""

    unit = "steps"

    def setup(self) -> None:
        s = self.shape
        corpus = dataset.synth_dataset(dataset.SynthConfig(
            num_users=s.users, tasks=s.tasks, trials_per_task=s.train_trials + s.probe_trials,
            seed=self.seed, duration_range=s.duration_range))
        if s.kind == "task":  # a task model belongs to one user
            corpus = corpus.subset(user_id=corpus.users[0])
            labels = {t: i for i, t in enumerate(corpus.tasks)}
            label_of = lambda tr: labels[tr.task_id]
        else:
            labels = {u: i for i, u in enumerate(corpus.users)}
            label_of = lambda tr: labels[tr.user_id]
        train_tr, probe_tr = trainer.split_dataset(corpus, s.train_trials, s.probe_trials, self.seed)
        length = s.model.seq_len
        train_fs = [features.pipeline(tr, length, label=label_of(tr)) for tr in train_tr]
        stats = signal.zscore_fit([fs.values for fs in train_fs])
        self.train_set = [features.FeatureSequence(signal.zscore_apply(fs.values, stats), fs.label, fs.source)
                          for fs in train_fs]
        probe_fs = [features.pipeline(tr, length, stats, label=label_of(tr)) for tr in probe_tr[:s.probe_batch]]
        self.probe_x = np.stack([fs.values for fs in probe_fs])
        self.probe_y = np.array([fs.label for fs in probe_fs])
        self.model_cfg = replace(s.model, num_classes=len(labels))

    def step(self) -> list[Op]:
        s = self.shape
        # each call trains on one slice of the split: one trial per (user, task)
        # when calls_per_split equals train_trials
        subset = self.train_set[self.calls % s.calls_per_split::s.calls_per_split]
        cfg = trainer.TrainConfig(epochs=s.epochs, batch_size=s.batch, seed=self.seed * 10_000 + self.calls)
        self.calls += 1
        sizes = [min(s.batch, len(subset) - i) for i in range(0, len(subset), s.batch)] * s.epochs
        self.attempted += len(sizes)

        boundaries: list[float] = []
        adam_step, build_model = trainer.adam_step, trainer.build_model

        def clocked(*args, **kwargs):
            adam_step(*args, **kwargs)
            boundaries.append(time.perf_counter())

        def poisoned(*args, **kwargs):
            params = build_model(*args, **kwargs)
            params["head.w"].data[0, 0] = np.nan
            return params

        replacements = [(trainer, "adam_step", clocked)]
        if self.fault == "nan-param":
            replacements.append((trainer, "build_model", poisoned))
        with patched(replacements):
            try:
                t0 = time.perf_counter()
                params, history = trainer.train(cfg, self.model_cfg, subset)
                ok = (all(math.isfinite(x) for x in history.train_loss)
                      and checks.loss_ok(params, self.probe_x, self.probe_y))
            except HapticAuthError:
                _report_failure("train call")
                ok = False
        if not ok:
            self.failed += len(sizes)
        starts = [t0] + boundaries[:-1]
        return [Op(a, b, n) for a, b, n in zip(starts, boundaries, sizes)]

    def alloc_probe(self) -> None:
        params = model.build_model(self.model_cfg, self.seed)
        batch = np.stack([fs.values for fs in self.train_set[:self.shape.batch]])
        model.forward(params, batch)


class Authenticate(Workload):
    """One request at a time: CSV bytes -> parse -> EMA filter -> features
    at L 512 with the checkpoint's z-score stats -> predict_batch([fs]).

    Set-up enrols the users as the CLI does: the corpus goes through CSV files
    and a manifest, the z-score statistics ride in the checkpoint."""

    unit = "requests"

    def setup(self) -> None:
        s = self.shape
        corpus = dataset.synth_dataset(dataset.SynthConfig(
            num_users=s.users, tasks=(s.task,), trials_per_task=s.fit_trials + s.request_trials,
            seed=self.seed, duration_range=s.duration_range))
        enrol_dir = self.workdir / "enrol"
        corpus = dataset.load_dataset(dataset.save_dataset(corpus, enrol_dir), enrol_dir)
        fit_tr, held_tr = trainer.split_dataset(corpus, s.fit_trials, s.request_trials, self.seed)
        length = s.model.seq_len
        fit = [features.pipeline(signal.filter_trace(tr, ALPHA), length).values for tr in fit_tr]
        stats = signal.zscore_fit(fit)
        cfg = replace(s.model, num_classes=len(corpus.users))
        ckpt = self.workdir / "user-id.ckpt"
        model.save_checkpoint(ckpt, model.build_model(cfg, self.seed), meta={"kind": "user-id"},
                              extras={"norm.mean": stats.mean, "norm.std": stats.std})
        self.params, _, extras = model.load_checkpoint(ckpt)
        self.stats = signal.NormStats(extras["norm.mean"], extras["norm.std"])
        self.requests = [(dataset.write_trace_csv(tr), tr) for tr in held_tr]
        if self.fault == "corrupt-trace":
            self.requests[0] = (b"timestamp,fx,fy,fz\n0.0,0.1,abc,0.3\n", held_tr[0])
        if self.fault == "nan-param":
            self.params["head.w"].data[0, 0] = np.nan
        self.params32 = checks.no_grad(self.params, np.float32)
        self.params64 = checks.no_grad(self.params, np.float64)

    def _features(self, blob: bytes, original) -> tuple:
        trace = dataset.parse_trace_csv(blob, user_id=original.user_id, task_id=original.task_id,
                                        trial_index=original.trial_index)
        return trace, features.pipeline(signal.filter_trace(trace, ALPHA), self.shape.model.seq_len, self.stats)

    def step(self) -> list[Op]:
        blob, original = self.requests[self.calls % len(self.requests)]
        checked = self.calls % self.shape.check_every == 0
        self.calls += 1
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            trace, fs = self._features(blob, original)
            pred = int(evaluation.predict_batch(self.params, [fs])[0])
            t1 = time.perf_counter()
        except HapticAuthError:
            _report_failure("request")
            self.failed += 1
            return []
        if checked and not (checks.roundtrip_ok(original, trace)
                            and checks.request_ok(self.params32, self.params64, fs.values, pred)):
            self.failed += 1
        return [Op(t0, t1, 1)]

    def alloc_probe(self) -> None:
        _, fs = self._features(*self.requests[0])
        model.forward(self.params, fs.values[None])


WORKLOADS = {"ingest": Ingest, "train-task": Train, "train-userid": Train, "authenticate": Authenticate}


# --- runner ---------------------------------------------------------------------

def _latencies_ms(wl: Workload, ops: list[Op]) -> list[float]:
    return [1e3 * (op.seconds / op.items if wl.per_item_latency else op.seconds) for op in ops]


def _alloc_peak_mb(wl: Workload) -> float:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        wl.alloc_probe()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return max(peak - base, 0) / 2**20


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    report: list[str]


def run(name: str, seed: int, seconds: float, trace: bool, shape: str = "full",
        fault: str | None = None, out_dir: Path | None = None) -> Result:
    """Set up and measure one workload; with trace, alternate untraced and
    traced operations over the run and return the per-layer metrics instead."""
    out_dir = out_dir or Path.cwd() / ".bench_out"
    workdir = out_dir / f"work-{name}-{seed}-{time.time_ns()}"
    wl = WORKLOADS[name](SHAPES[shape][name], seed, workdir, fault)
    setup_s: list[float] = []

    def set_up() -> None:
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)

    def spread_set_ups(measured: float) -> None:
        # one more set-up each time a SETUP_REPS-th of the run has passed, so
        # that their median sees the same mix of host speeds as the operations
        while len(setup_s) < SETUP_REPS and measured >= seconds * len(setup_s) / SETUP_REPS:
            set_up()

    try:
        set_up()
        wl.run(0.0)  # warm-up: one operation, checked, not timed
        if trace:
            return _per_layer(name, wl, seconds, out_dir)
        return _end_to_end(name, wl, setup_s, wl.run(seconds, spread_set_ups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _end_to_end(name: str, wl: Workload, setup_s: list[float], ops: list[Op]) -> Result:
    if not ops:  # every operation failed: nothing was timed
        return Result(wl.attempted, wl.failed, {}, ["no operation succeeded"])
    lat = _latencies_ms(wl, ops)
    # throughput over the whole measured time, not a median of per-op rates:
    # the host's speed drifts in spells of seconds, and the mean follows the
    # share of time spent in each spell where the median jumps between them
    rate = sum(op.items for op in ops) / sum(op.seconds for op in ops)
    p0, p10, p50, p90 = (float(v) for v in np.percentile(lat, [0, 10, 50, 90]))
    setup = statistics.median(setup_s)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup, "s"),
        "throughput_per_s": (rate, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    # the same numbers under the names each workload's users know them by
    per = "trace" if wl.per_item_latency else wl.unit[:-1]
    report = [f"setup_s {setup:.4f} s (median of {len(setup_s)} set-ups)",
              f"latency_ms per {per}: min {p0:.4f} p10 {p10:.4f} p50 {p50:.4f} p90 {p90:.4f} "
              f"({len(ops)} samples)"]
    if name == "ingest":
        report.append(f"ingest_traces_per_s {rate:.2f} traces/s ({len(ops)} passes)")
    elif name.startswith("train"):
        kind = wl.shape.kind
        report.append(f"train_seq_per_s {rate:.3f} sequences/s ({len(ops)} steps)")
        report.append(f"protocol_{kind.replace('-', '')}_projection_h "
                      f"{PROTOCOL_SEQUENCES[kind] / rate / 3600:.2f} h (ungated; {kind} half of the paper protocol)")
    else:
        report.append(f"auth_latency_ms_p50 {p50:.3f} ms ({len(ops)} requests)")
        report.append(f"auth_latency_ms_p90 {p90:.3f} ms ({len(ops)} requests; ungated)")
    report.append(f"peak_rss_mb {rss_mb:.1f} MB")
    report.append(f"error_rate {wl.failed / max(wl.attempted, 1):.6f} ratio "
                  f"({wl.failed} of {wl.attempted} {wl.unit} failed)")
    return Result(wl.attempted, wl.failed, metrics, report)


def _per_layer(name: str, wl: Workload, seconds: float, out_dir: Path) -> Result:
    tracer = Tracer()
    with tracer.install():
        wl.setup()
    # untraced and traced operations alternate, so that both see the same
    # host speed and their ratio is the tracing overhead alone
    traced: list[Op] = []

    def traced_step(_measured: float) -> None:
        with tracer.install():
            traced.extend(wl.step())

    plain = wl.run(seconds / 2, traced_step)
    windows = [(op.start, op.end) for op in traced]
    metrics = layer_metrics(tracer, windows)
    is_train = isinstance(wl, Train)
    metrics["trainer.step.ms"] = (1e3 * statistics.fmean(op.seconds for op in traced) if is_train else 0.0, "ms")
    metrics["model.forward.alloc_peak_mb"] = (_alloc_peak_mb(wl), "MB")
    overhead = statistics.fmean(_latencies_ms(wl, traced)) / statistics.fmean(_latencies_ms(wl, plain)) - 1
    metrics["trace.overhead_pct"] = (100 * overhead, "%")

    spans_path = out_dir / f"spans-{name}-seed{wl.seed}.jsonl"
    tracer.write(spans_path, windows)
    report = [f"trace {len(tracer.spans)} spans written to {spans_path}",
              f"trace.overhead_pct {100 * overhead:.2f} % (mean op, {len(traced)} traced vs {len(plain)} untraced)"]
    report += [f"self {span} {ms:.4f} ms/op {calls:.1f} calls/op"
               for span, ms, calls in self_time_table(tracer, windows)]
    return Result(wl.attempted, wl.failed, metrics, report)
