"""Training protocol: per-group splits, Adam with cosine annealing, the
experiment planner shared by training, evaluation and the training-size
sweep, the job runner, and a trained model's one checkpoint file.

Every experiment is deterministic under its seed: model i of a plan derives
its seed as base_seed + i, splits shuffle within sorted (user, task) groups,
and epoch shuffling comes from one seeded generator.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import numbers
import os
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .autodiff import backward
from .dataset import ForceTrace, TraceDataset
from .errors import ConfigError, DataError
from .features import FeatureSequence, pipeline
from .model import (ModelConfig, ModelParams, build_model, cross_entropy, forward,
                    load_checkpoint, save_checkpoint)
from .signal import NormStats, zscore_apply, zscore_fit


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    epochs: int = 100
    batch_size: int = 16
    seed: int = 0
    normalize: bool = True
    train_per_class: int = 100
    test_per_class: int = 20

    def __post_init__(self):
        for name in ("epochs", "batch_size", "seed", "train_per_class", "test_per_class"):
            value, low = getattr(self, name), 0 if name == "seed" else 1
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        if not isinstance(self.normalize, bool):
            raise ConfigError(f"normalize must be true or false, got {self.normalize!r}")
        lr = self.learning_rate
        if isinstance(lr, bool) or not (isinstance(lr, numbers.Real) and 0 < lr < math.inf):
            raise ConfigError(f"learning_rate must be positive and finite, got {lr!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        """The config of an asdict document; every field must be present."""
        absent = {f.name for f in fields(cls)} - set(doc)
        if absent:
            raise ConfigError(f"train config lacks {sorted(absent)}")
        return cls(**doc)


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    lr: list[float] = field(default_factory=list)


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, params: ModelParams) -> "AdamState":
        return cls(
            m={k: np.zeros_like(t.data) for k, t in params.items()},
            v={k: np.zeros_like(t.data) for k, t in params.items()},
            step=0,
        )


def cosine_lr(epoch: int, total: int, base: float) -> float:
    """One cosine cycle over the run: base at epoch 0, 0 at the last epoch."""
    if not (0 <= epoch < total):
        raise ConfigError(f"epoch {epoch} out of range [0, {total})")
    if total == 1:
        return base
    return base * (1.0 + math.cos(math.pi * epoch / (total - 1))) / 2.0


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(params: ModelParams, grads: dict[str, np.ndarray], state: AdamState,
              lr: float) -> None:
    """Standard bias-corrected Adam update, in place on the moment and
    parameter buffers: w -= lr * (m / bc1) / (sqrt(v / bc2) + eps)."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, tensor in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != tensor.data.shape:
            raise ConfigError(f"gradient shape {g.shape} != parameter {name} shape {tensor.data.shape}")
        m, v = state.m[name], state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        step = m / bc1
        step *= lr
        den = v / bc2
        np.sqrt(den, out=den)
        den += ADAM_EPS
        step /= den
        tensor.data -= step


def split_dataset(dataset: TraceDataset, n_train: int, n_test: int,
                  seed: int) -> tuple[list[ForceTrace], list[ForceTrace]]:
    """Seeded shuffle within each sorted (user, task) group; first n_train
    trials go to train, the next n_test to test."""
    groups: dict[tuple[str, str], list[ForceTrace]] = {}
    for tr in dataset:
        groups.setdefault((tr.user_id, tr.task_id), []).append(tr)
    rng = np.random.default_rng(seed)
    train: list[ForceTrace] = []
    test: list[ForceTrace] = []
    for key in sorted(groups):
        group = sorted(groups[key], key=lambda tr: tr.trial_index)
        if len(group) < n_train + n_test:
            raise DataError(
                f"group {key} has {len(group)} trials, needs {n_train + n_test}"
            )
        order = rng.permutation(len(group))
        picked = [group[i] for i in order]
        train.extend(picked[:n_train])
        test.extend(picked[n_train:n_train + n_test])
    return train, test


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    present = set(int(x) for x in labels)
    expected = set(range(num_classes))
    if not present <= expected:
        raise DataError(f"labels outside [0, {num_classes}): {sorted(present - expected)}")
    if present != expected:
        raise DataError(f"label gaps: classes {sorted(expected - present)} have no samples")


def train(cfg: TrainConfig, model_cfg: ModelConfig,
          train_set: list[FeatureSequence]) -> tuple[ModelParams, TrainHistory]:
    """Seeded mini-batch training loop; returns final parameters and the
    per-epoch loss/accuracy/learning-rate history.  A non-finite loss or
    final parameter stops the run with a DataError before it can reach a
    checkpoint."""
    if not train_set:
        raise DataError("empty training set")
    labels = np.array([fs.label for fs in train_set], dtype=np.int64)
    _check_labels(labels, model_cfg.num_classes)
    x_all = np.stack([fs.values for fs in train_set]).astype(np.float32)
    if x_all.shape[1] != model_cfg.seq_len:
        raise DataError(f"sequences have length {x_all.shape[1]}, model expects {model_cfg.seq_len}")

    params = build_model(model_cfg, cfg.seed)
    state = AdamState.init(params)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    n = len(train_set)
    history = TrainHistory()

    for epoch in range(cfg.epochs):
        lr = cosine_lr(epoch, cfg.epochs, cfg.learning_rate)
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for step, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            xb = x_all[idx]
            yb = labels[idx]
            params.zero_grads()
            logits = forward(params, xb)
            loss = cross_entropy(logits, yb)
            if not np.isfinite(loss.data):
                raise DataError(f"non-finite training loss {float(loss.data)} "
                                f"at epoch {epoch}, step {step}")
            backward(loss)
            grads = {k: t.grad for k, t in params.items() if t.grad is not None}
            adam_step(params, grads, state, lr)
            loss_sum += float(loss.data) * len(idx)
            correct += int((logits.data.argmax(axis=1) == yb).sum())
            del logits, loss  # else this step's logits live on through the next forward
        history.train_loss.append(loss_sum / n)
        history.train_acc.append(correct / n)
        history.lr.append(lr)
    # the last update is never followed by a loss, so check the weights it wrote
    bad = [k for k, t in params.items() if not np.isfinite(t.data).all()]
    if bad:
        raise DataError(f"non-finite parameters {bad} after the last update")
    return params, history


# --- experiment planner --------------------------------------------------------

# kind -> (trace field naming a model's group, trace field naming its class)
EXPERIMENT_FIELDS = {"user-id": ("task_id", "user_id"), "task": ("user_id", "task_id")}
DEFAULT_SEQ_LEN = {"user-id": 512, "task": 64}


def _noun(field_name: str) -> str:
    return field_name.removesuffix("_id")


@dataclass(frozen=True)
class ModelJob:
    """One model of an experiment: its group, classes, split and configs."""
    model_id: str
    kind: str                      # "user-id" | "task"
    group: str                     # task label (user-id) or user label (task)
    class_labels: tuple[str, ...]
    train_traces: tuple[ForceTrace, ...]
    test_traces: tuple[ForceTrace, ...]
    train_cfg: TrainConfig
    model_cfg: ModelConfig

    def label_of(self, trace: ForceTrace) -> int:
        return self.class_labels.index(getattr(trace, EXPERIMENT_FIELDS[self.kind][1]))

    def featurize(self, traces, stats: NormStats | None = None) -> list[FeatureSequence]:
        return [pipeline(tr, self.model_cfg.seq_len, stats=stats, label=self.label_of(tr))
                for tr in traces]

    @property
    def split_digest(self) -> str:
        """sha256 over the train then the test traces, in split order: each
        trace's key and sample count, then its timestamp and force bytes."""
        h = hashlib.sha256(json.dumps([len(self.train_traces), len(self.test_traces)]).encode())
        for tr in (*self.train_traces, *self.test_traces):
            h.update(json.dumps([*tr.key, len(tr.timestamps)]).encode())
            h.update(np.ascontiguousarray(tr.timestamps, dtype="<f4"))
            h.update(np.ascontiguousarray(tr.forces, dtype="<f4"))
        return h.hexdigest()


def plan_job(dataset: TraceDataset, kind: str, group: str, class_labels,
             train_cfg: TrainConfig, model_cfg: ModelConfig) -> ModelJob:
    """The one place a model's split is derived: the group's traces, every
    class present, split under train_cfg's seed and per-class counts."""
    group_field, class_field = EXPERIMENT_FIELDS[kind]
    subset = dataset.subset(**{group_field: group})
    missing = sorted(set(class_labels) - {getattr(tr, class_field) for tr in subset})
    if missing:
        raise DataError(f"{_noun(group_field)} {group!r} missing "
                        f"{_noun(class_field)}s {missing}")
    train_tr, test_tr = split_dataset(subset, train_cfg.train_per_class,
                                      train_cfg.test_per_class, train_cfg.seed)
    return ModelJob(
        model_id=f"{kind}_{_noun(group_field)}-{group}",
        kind=kind,
        group=group,
        class_labels=tuple(class_labels),
        train_traces=tuple(train_tr),
        test_traces=tuple(test_tr),
        train_cfg=train_cfg,
        model_cfg=model_cfg,
    )


def plan_experiment(dataset: TraceDataset, kind: str, train_cfg: TrainConfig,
                    template: ModelConfig | None = None) -> list[ModelJob]:
    """One job per group in sorted order; job i trains under seed + i."""
    variants = {tr.variant for tr in dataset}
    if len(variants) > 1:
        raise DataError(f"experiment dataset mixes variants {sorted(variants)}; an experiment's "
                        "manifest holds one variant, as filter writes them")
    group_field, class_field = EXPERIMENT_FIELDS[kind]
    groups = sorted({getattr(tr, group_field) for tr in dataset})
    classes = sorted({getattr(tr, class_field) for tr in dataset})
    if len(classes) < 2:
        raise DataError(f"{kind} experiment needs >= 2 {_noun(class_field)}s, got {classes}")
    template = template or ModelConfig(seq_len=DEFAULT_SEQ_LEN[kind])
    model_cfg = replace(template, num_classes=len(classes))
    return [plan_job(dataset, kind, group, classes,
                     replace(train_cfg, seed=train_cfg.seed + i), model_cfg)
            for i, group in enumerate(groups)]


@dataclass
class TrainedModel:
    """A model as its job plus what training made from it."""
    job: ModelJob
    params: ModelParams
    stats: NormStats | None
    history: TrainHistory


def run_job(job: ModelJob) -> tuple[ModelParams, NormStats | None, TrainHistory]:
    """Train on the job's train split; with normalize, the z-score stats are
    fitted on that split, and the test split is featurized with them where it
    is scored."""
    train_fs = job.featurize(job.train_traces)
    stats = None
    if job.train_cfg.normalize:
        stats = zscore_fit([fs.values for fs in train_fs])
        train_fs = [FeatureSequence(zscore_apply(fs.values, stats), fs.label, fs.source)
                    for fs in train_fs]
    try:
        params, history = train(job.train_cfg, job.model_cfg, train_fs)
    except DataError as exc:
        raise DataError(f"model {job.model_id}: {exc}") from exc
    return params, stats, history


# a worker process runs BLAS on one thread: two processes that each ran
# OpenBLAS's default two threads on a 2-core host stepped 4.4x slower than one
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _in_workers(fn, items: list, workers: int) -> Iterator:
    """fn(item) for each item, in order, from `workers` spawned processes
    that each run BLAS on one thread.  A child reads the thread variables as
    it imports numpy, so they are set while map submits the items, which
    starts the children; a forked child would inherit this process's
    threads.  A failure cancels the items still queued."""
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as ex:
        try:
            os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
            results = ex.map(fn, items)
        finally:
            for var, value in saved.items():
                if value is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = value
        yield from results


def run_jobs(jobs: list[ModelJob], workers: int = 1) -> Iterator[TrainedModel]:
    """Each job's model, in job order, as soon as it and every job before it
    are trained; each worker sends back only what training made.  The serial
    path keeps this process's BLAS threads."""
    made = (map(run_job, jobs) if workers <= 1 or len(jobs) <= 1
            else _in_workers(run_job, jobs, workers))
    # map, unlike zip or a generator, holds no reference to a model it yielded
    return map(lambda job, m: TrainedModel(job, *m), jobs, made)


# --- trained models on disk ----------------------------------------------------

def save_trained(tm: TrainedModel, out_dir: Path | str) -> Path:
    """Write out_dir/<model_id>.ckpt: the weights, the z-score stats as
    extras, and in the meta what load_trained re-plans the job from, its
    split digest and the training history."""
    job = tm.job
    meta = {
        "kind": job.kind,
        "group": job.group,
        "class_labels": list(job.class_labels),
        "variant": job.train_traces[0].variant,
        "train_cfg": asdict(job.train_cfg),
        "split_digest": job.split_digest,
        "history": asdict(tm.history),
    }
    extras = {} if tm.stats is None else {"norm.mean": tm.stats.mean, "norm.std": tm.stats.std}
    path = Path(out_dir) / f"{job.model_id}.ckpt"
    save_checkpoint(path, tm.params, meta=meta, extras=extras)
    return path


def load_trained(dataset: TraceDataset, path: Path | str) -> TrainedModel:
    """The model save_trained wrote to `path`, its job re-planned on dataset;
    a DataError naming the file unless the meta is well typed and the job's
    split is the one the model was trained on."""
    params, meta, extras = load_checkpoint(path)
    job_fields = ("kind", "group", "class_labels", "variant", "train_cfg", "history")
    missing = [f for f in job_fields if f not in meta]
    if missing:
        raise DataError(f"checkpoint {path} meta lacks job fields {missing}")
    kind, group, labels, variant, _, hist = (meta[f] for f in job_fields)
    if not (kind in tuple(EXPERIMENT_FIELDS) and isinstance(group, str)
            and isinstance(variant, str) and isinstance(labels, list)
            and all(isinstance(c, str) for c in labels)
            and len(set(labels)) == len(labels) == params.config.num_classes):
        raise DataError(f"checkpoint {path} has invalid job meta: kind {kind!r}, group {group!r}, "
                        f"class_labels {labels!r}, variant {variant!r}")
    try:
        train_cfg = TrainConfig.from_dict(meta["train_cfg"])
    except (TypeError, ValueError) as exc:
        raise DataError(f"checkpoint {path} has an invalid train_cfg: {exc}") from None
    if not (isinstance(hist, dict) and set(hist) == {f.name for f in fields(TrainHistory)}
            and all(isinstance(col, list) and len(col) == train_cfg.epochs
                    and all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in col)
                    for col in hist.values())):
        raise DataError(f"checkpoint {path} has an invalid history: it must map train_loss, "
                        f"train_acc and lr to {train_cfg.epochs} numbers each")
    stats = None
    if train_cfg.normalize:
        if "norm.mean" not in extras or "norm.std" not in extras:
            raise DataError(f"checkpoint {path} marked normalized but has no stats tensors")
        stats = NormStats(mean=extras["norm.mean"], std=extras["norm.std"])
    try:
        job = plan_job(dataset.subset(variant=variant), kind, group, labels, train_cfg,
                       params.config)
    except DataError as exc:  # the dataset lacks the model's group, classes or trials
        raise DataError(f"checkpoint {path}: {exc}") from None
    if meta.get("split_digest") != job.split_digest:
        raise DataError(f"model {job.model_id}: {path} records no split digest, or the digest "
                        f"of another split or other trace data than this manifest gives its group")
    return TrainedModel(job, params, stats, TrainHistory(**hist))


# --- training-size sweep -------------------------------------------------------

DEFAULT_SWEEP_SIZES = tuple(range(5, 101, 5))


def _subsample_job(job: ModelJob, size: int) -> ModelJob:
    """The job trained on `size` of its train traces per class, drawn per
    class and kept in split order, so that the full size is the job itself."""
    rng = np.random.default_rng([job.train_cfg.seed, 3, size])
    labels = [job.label_of(tr) for tr in job.train_traces]
    chosen: list[int] = []
    for label in sorted(set(labels)):
        idx = [i for i, y in enumerate(labels) if y == label]
        chosen.extend(idx[j] for j in rng.choice(len(idx), size=size, replace=False))
    return replace(job, model_id=f"sweep-{job.group}-{size}",
                   train_traces=tuple(job.train_traces[i] for i in sorted(chosen)))


def plan_sweep(dataset: TraceDataset, train_cfg: TrainConfig,
               sizes: tuple[int, ...] = DEFAULT_SWEEP_SIZES,
               model_template: ModelConfig | None = None,
               users: list[str] | None = None) -> list[tuple[int, list[ModelJob]]]:
    """The jobs of each point of the task-accuracy vs training-size curve.

    Each user's split is fixed by the task experiment's plan.  A point's jobs
    are every user's task job trained, z-score stats included, on `size` of
    its train trials per class and scored on its fixed test split, so the
    curve is comparable across sizes.  Evaluating each point as its models
    arrive holds one model per user in memory, plus any that finished ahead.
    """
    if not sizes:
        raise ConfigError("sweep needs at least one size")
    if any(s < 1 for s in sizes):
        raise ConfigError(f"sweep sizes must be >= 1, got {sizes}")
    if len(set(sizes)) != len(sizes):
        raise ConfigError(f"sweep sizes repeat: {sizes}")
    if max(sizes) > train_cfg.train_per_class:
        raise ConfigError(
            f"max sweep size {max(sizes)} exceeds train_per_class {train_cfg.train_per_class}"
        )
    jobs = {job.group: job for job in plan_experiment(dataset, "task", train_cfg, model_template)}
    users = list(users) if users is not None else list(jobs)
    if not users:
        raise ConfigError("sweep needs at least one user")
    if len(set(users)) != len(users):
        raise ConfigError(f"sweep users repeat: {users}")
    unknown = sorted(set(users) - set(jobs))
    if unknown:
        raise DataError(f"sweep users not in dataset: {unknown}")
    return [(size, [_subsample_job(jobs[u], size) for u in users]) for size in sizes]
