"""Training protocol: per-group splits, Adam with cosine annealing, the
task-specific and user-specific model factories, and the training-size sweep.

Every experiment is deterministic under its seed: model i of a factory
derives its seed as base_seed + i, splits shuffle within sorted
(user, task) groups, and epoch shuffling comes from one seeded generator.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import backward
from .dataset import ForceTrace, TraceDataset
from .errors import ConfigError, DataError
from .features import FeatureSequence, pipeline
from .model import ModelConfig, ModelParams, build_model, cross_entropy, forward
from .signal import NormStats, zscore_apply, zscore_fit


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    epochs: int = 100
    batch_size: int = 16
    seed: int = 0
    lr_min: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    normalize: bool = True
    train_per_class: int = 100
    test_per_class: int = 20

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.lr_min < 0 or self.lr_min > self.learning_rate:
            raise ConfigError(f"lr_min must lie in [0, learning_rate], got {self.lr_min}")
        if self.train_per_class < 1 or self.test_per_class < 1:
            raise ConfigError("train_per_class and test_per_class must be >= 1")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    lr: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.train_loss)

    def to_records(self) -> list[dict]:
        return [
            {"epoch": i, "train_loss": l, "train_acc": a, "lr": r}
            for i, (l, a, r) in enumerate(zip(self.train_loss, self.train_acc, self.lr))
        ]


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, params: ModelParams) -> "AdamState":
        trainable = params.trainable()
        return cls(
            m={k: np.zeros_like(t.data) for k, t in trainable.items()},
            v={k: np.zeros_like(t.data) for k, t in trainable.items()},
            step=0,
        )


def cosine_lr(epoch: int, total: int, base: float, floor: float = 0.0) -> float:
    """One cosine cycle over the run: base at epoch 0, floor at the last epoch."""
    if not (0 <= epoch < total):
        raise ConfigError(f"epoch {epoch} out of range [0, {total})")
    if total == 1:
        return base
    return floor + (base - floor) * (1.0 + math.cos(math.pi * epoch / (total - 1))) / 2.0


def adam_step(params: ModelParams, grads: dict[str, np.ndarray], state: AdamState,
              lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """Standard bias-corrected Adam update, in place on the parameter buffers."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, tensor in params.trainable().items():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != tensor.data.shape:
            raise ConfigError(f"gradient shape {g.shape} != parameter {name} shape {tensor.data.shape}")
        m = beta1 * state.m[name] + (1.0 - beta1) * g
        v = beta2 * state.v[name] + (1.0 - beta2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        m_hat = m / bc1
        v_hat = v / bc2
        tensor.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


def split_dataset(dataset: TraceDataset, n_train: int, n_test: int,
                  seed: int) -> tuple[list[ForceTrace], list[ForceTrace]]:
    """Seeded shuffle within each sorted (user, task) group; first n_train
    trials go to train, the next n_test to test."""
    rng = np.random.default_rng(seed)
    train: list[ForceTrace] = []
    test: list[ForceTrace] = []
    for key in sorted(dataset.by_group()):
        group = sorted(dataset.group(*key), key=lambda tr: tr.trial_index)
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
    per-epoch loss/accuracy/learning-rate history.  A non-finite loss stops
    the run with a DataError before it can reach a checkpoint."""
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
    dropout_rng = np.random.default_rng([cfg.seed, 2]) if model_cfg.dropout > 0 else None
    n = len(train_set)
    history = TrainHistory()

    for epoch in range(cfg.epochs):
        lr = cosine_lr(epoch, cfg.epochs, cfg.learning_rate, cfg.lr_min)
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for step, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            xb = x_all[idx]
            yb = labels[idx]
            params.zero_grads()
            logits = forward(params, xb, dropout_rng=dropout_rng)
            loss = cross_entropy(logits, yb)
            if not np.isfinite(loss.data):
                raise DataError(f"non-finite training loss {float(loss.data)} "
                                f"at epoch {epoch}, step {step}")
            backward(loss)
            grads = {k: t.grad for k, t in params.trainable().items() if t.grad is not None}
            adam_step(params, grads, state, lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
            loss_sum += float(loss.data) * len(idx)
            correct += int((logits.data.argmax(axis=1) == yb).sum())
        history.train_loss.append(loss_sum / n)
        history.train_acc.append(correct / n)
        history.lr.append(lr)
    return params, history


# --- experiment factories ----------------------------------------------------

@dataclass
class TrainedModel:
    model_id: str
    kind: str                      # "user-id" | "task"
    group: str                     # task label (user-id) or user label (task)
    class_labels: list[str]
    params: ModelParams
    history: TrainHistory
    stats: NormStats | None
    train_set: list[FeatureSequence]
    test_set: list[FeatureSequence]
    seed: int


def _featurize_split(train_traces: list[ForceTrace], test_traces: list[ForceTrace],
                     label_of, seq_len: int, normalize: bool
                     ) -> tuple[list[FeatureSequence], list[FeatureSequence], NormStats | None]:
    train_fs = [pipeline(tr, seq_len, label=label_of(tr)) for tr in train_traces]
    test_fs = [pipeline(tr, seq_len, label=label_of(tr)) for tr in test_traces]
    stats = None
    if normalize:
        stats = zscore_fit([fs.values for fs in train_fs])
        train_fs = [FeatureSequence(zscore_apply(fs.values, stats), fs.label, fs.source)
                    for fs in train_fs]
        test_fs = [FeatureSequence(zscore_apply(fs.values, stats), fs.label, fs.source)
                   for fs in test_fs]
    return train_fs, test_fs, stats


def _single_variant(dataset: TraceDataset) -> None:
    variants = {tr.variant for tr in dataset}
    if len(variants) > 1:
        raise DataError(f"experiment dataset mixes variants {sorted(variants)}; select one first")


@dataclass(frozen=True)
class _ModelJob:
    model_id: str
    kind: str
    group: str
    class_labels: tuple[str, ...]
    train_traces: tuple[ForceTrace, ...]
    test_traces: tuple[ForceTrace, ...]
    train_cfg: TrainConfig
    model_cfg: ModelConfig


def _run_model_job(job: _ModelJob) -> TrainedModel:
    label_index = {lab: i for i, lab in enumerate(job.class_labels)}
    if job.kind == "user-id":
        label_of = lambda tr: label_index[tr.user_id]
    else:
        label_of = lambda tr: label_index[tr.task_id]
    train_fs, test_fs, stats = _featurize_split(
        list(job.train_traces), list(job.test_traces), label_of,
        job.model_cfg.seq_len, job.train_cfg.normalize,
    )
    params, history = train(job.train_cfg, job.model_cfg, train_fs)
    return TrainedModel(
        model_id=job.model_id,
        kind=job.kind,
        group=job.group,
        class_labels=list(job.class_labels),
        params=params,
        history=history,
        stats=stats,
        train_set=train_fs,
        test_set=test_fs,
        seed=job.train_cfg.seed,
    )


def _run_jobs(jobs: list[_ModelJob], workers: int) -> list[TrainedModel]:
    if workers <= 1 or len(jobs) <= 1:
        return [_run_model_job(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(_run_model_job, jobs))


def train_user_id_models(dataset: TraceDataset, train_cfg: TrainConfig,
                         model_template: ModelConfig | None = None,
                         workers: int = 1) -> list[TrainedModel]:
    """One user-identification model per task: classes are the users, each
    contributing train_per_class/test_per_class trials of that task."""
    _single_variant(dataset)
    users = dataset.users
    tasks = dataset.tasks
    if len(users) < 2:
        raise DataError(f"user-id experiment needs >= 2 users, got {users}")
    template = model_template or ModelConfig(seq_len=512)
    jobs = []
    for i, task in enumerate(tasks):
        cfg_i = replace(train_cfg, seed=train_cfg.seed + i)
        task_subset = dataset.subset(task_id=task)
        missing = sorted(set(users) - set(task_subset.users))
        if missing:
            raise DataError(f"task {task!r} missing users {missing}")
        train_tr, test_tr = split_dataset(
            task_subset, cfg_i.train_per_class, cfg_i.test_per_class, cfg_i.seed
        )
        jobs.append(_ModelJob(
            model_id=f"user-id_task-{task}",
            kind="user-id",
            group=task,
            class_labels=tuple(users),
            train_traces=tuple(train_tr),
            test_traces=tuple(test_tr),
            train_cfg=cfg_i,
            model_cfg=replace(template, num_classes=len(users)),
        ))
    return _run_jobs(jobs, workers)


def train_task_models(dataset: TraceDataset, train_cfg: TrainConfig,
                      model_template: ModelConfig | None = None,
                      workers: int = 1) -> list[TrainedModel]:
    """One task-classification model per user: classes are the tasks."""
    _single_variant(dataset)
    users = dataset.users
    tasks = dataset.tasks
    if len(tasks) < 2:
        raise DataError(f"task experiment needs >= 2 tasks, got {tasks}")
    template = model_template or ModelConfig(seq_len=64)
    jobs = []
    for i, user in enumerate(users):
        cfg_i = replace(train_cfg, seed=train_cfg.seed + i)
        user_subset = dataset.subset(user_id=user)
        missing = sorted(set(tasks) - set(user_subset.tasks))
        if missing:
            raise DataError(f"user {user!r} missing tasks {missing}")
        train_tr, test_tr = split_dataset(
            user_subset, cfg_i.train_per_class, cfg_i.test_per_class, cfg_i.seed
        )
        jobs.append(_ModelJob(
            model_id=f"task_user-{user}",
            kind="task",
            group=user,
            class_labels=tuple(tasks),
            train_traces=tuple(train_tr),
            test_traces=tuple(test_tr),
            train_cfg=cfg_i,
            model_cfg=replace(template, num_classes=len(tasks)),
        ))
    return _run_jobs(jobs, workers)


# --- training-size sweep -------------------------------------------------------

DEFAULT_SWEEP_SIZES = tuple(range(5, 101, 5))


@dataclass
class SweepPoint:
    size: int
    mean_accuracy: float
    per_group: dict[str, float]


def _subsample_per_class(train_fs: list[FeatureSequence], size: int,
                         rng: np.random.Generator) -> list[FeatureSequence]:
    """Pick `size` sequences per class; index order is preserved so that a
    full-size subsample reproduces the input list exactly."""
    by_class: dict[int, list[int]] = {}
    for i, fs in enumerate(train_fs):
        by_class.setdefault(fs.label, []).append(i)
    chosen: list[int] = []
    for label in sorted(by_class):
        idx = by_class[label]
        if len(idx) < size:
            raise DataError(f"class {label} has {len(idx)} train sequences, sweep needs {size}")
        picked = rng.choice(len(idx), size=size, replace=False)
        chosen.extend(idx[j] for j in picked)
    return [train_fs[i] for i in sorted(chosen)]


def sweep_training_size(dataset: TraceDataset, train_cfg: TrainConfig,
                        sizes: tuple[int, ...] = DEFAULT_SWEEP_SIZES,
                        model_template: ModelConfig | None = None,
                        users: list[str] | None = None) -> list[SweepPoint]:
    """Task-classification accuracy as a function of per-class training size.

    The per-user split is fixed (same derivation as train_task_models); each
    size subsamples from that fixed train split and evaluates on the fixed
    test split, so the curve is comparable across sizes.
    """
    from .evaluation import evaluate_model

    _single_variant(dataset)
    if not sizes:
        raise ConfigError("sweep needs at least one size")
    if any(s < 1 for s in sizes):
        raise ConfigError(f"sweep sizes must be >= 1, got {sizes}")
    if max(sizes) > train_cfg.train_per_class:
        raise ConfigError(
            f"max sweep size {max(sizes)} exceeds train_per_class {train_cfg.train_per_class}"
        )
    tasks = dataset.tasks
    all_users = dataset.users
    users = list(users) if users is not None else all_users
    unknown = sorted(set(users) - set(all_users))
    if unknown:
        raise DataError(f"sweep users not in dataset: {unknown}")
    template = model_template or ModelConfig(seq_len=64)
    model_cfg = replace(template, num_classes=len(tasks))
    label_index = {lab: i for i, lab in enumerate(tasks)}

    prepared = []
    for user in users:
        i = all_users.index(user)
        cfg_i = replace(train_cfg, seed=train_cfg.seed + i)
        user_subset = dataset.subset(user_id=user)
        train_tr, test_tr = split_dataset(
            user_subset, cfg_i.train_per_class, cfg_i.test_per_class, cfg_i.seed
        )
        train_fs, test_fs, _ = _featurize_split(
            train_tr, test_tr, lambda tr: label_index[tr.task_id],
            model_cfg.seq_len, cfg_i.normalize,
        )
        prepared.append((user, cfg_i, train_fs, test_fs))

    points = []
    for size in sizes:
        per_group = {}
        for user, cfg_i, train_fs, test_fs in prepared:
            sub_rng = np.random.default_rng([cfg_i.seed, 3, size])
            subset = _subsample_per_class(train_fs, size, sub_rng)
            params, _ = train(cfg_i, model_cfg, subset)
            report = evaluate_model(params, test_fs, list(tasks), model_id=f"sweep-{user}-{size}")
            per_group[user] = report.accuracy
        points.append(SweepPoint(
            size=size,
            mean_accuracy=float(np.mean(list(per_group.values()))),
            per_group=per_group,
        ))
    return points
