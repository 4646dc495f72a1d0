"""Command-line entry point.

Subcommands cover the whole pipeline: ``synth`` (generate a labeled dataset),
``filter`` (EMA-smoothed variant), ``train-experiment`` (the per-task /
per-user model sets), ``eval-experiment`` (reports from checkpoints),
``sweep`` (training-size curve), and ``gradcheck`` (finite-difference
verification of the engine).  Exit codes: 0 success, 2 usage/config error,
3 data/experiment error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from itertools import islice
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, grad_check
from .dataset import (
    DatasetManifest,
    SynthConfig,
    TraceDataset,
    atomic_write_text,
    load_dataset,
    save_dataset,
    synth_dataset,
)
from .errors import ConfigError, DataError, HapticAuthError
from .evaluation import evaluate_experiment, write_experiment_files
from .model import (
    ModelConfig,
    build_model,
    cross_entropy,
    draw_kink_free_batch,
    forward,
)
from .signal import filter_trace
from .trainer import (
    DEFAULT_SEQ_LEN,
    DEFAULT_SWEEP_SIZES,
    EXPERIMENT_FIELDS,
    TrainConfig,
    load_trained,
    plan_experiment,
    plan_sweep,
    run_jobs,
    save_trained,
)

GRADCHECK_THRESHOLD = 1e-4
QUADRATIC_THRESHOLD = 1e-9
GRADCHECK_EPS = 1e-5
# coordinates with a smaller |analytic gradient| sit below the
# finite-difference rounding floor, so they are not checked
GRADCHECK_MIN_GRAD = 1e-6
# gradcheck checks a 4-class model on 2 sequences; one seed draws the
# weights, the batch and the sampled coordinates
_GRADCHECK_CLASSES = 4
_GRADCHECK_BATCH = 2
_GRADCHECK_SEED = 0


def _workers() -> int:
    """The cores this process may run on; the CLI trains one model on each."""
    affinity = getattr(os, "sched_getaffinity", None)  # absent on macOS and Windows
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _make_dirs(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):  # a part of the path is a file
        raise ConfigError(f"cannot create directory {path}: a part of its path is a file") from None


def _prepare_outdir(path_str: str | None, force: bool) -> Path:
    if not path_str:
        raise ConfigError("no output path given (set --out or HAPTICAUTH_OUT)")
    out = Path(path_str)
    if out.exists() and not out.is_dir():
        raise ConfigError(f"output path {out} is not a directory")
    if out.exists() and any(out.iterdir()) and not force:
        raise ConfigError(f"output directory {out} is not empty (use --force to overwrite)")
    _make_dirs(out)
    return out


def _prepare_outfile(path_str: str | None, force: bool) -> Path:
    if not path_str:
        raise ConfigError("no output path given (set --out or HAPTICAUTH_OUT)")
    out = Path(path_str)
    if out.is_dir():
        raise ConfigError(f"output path {out} is a directory")
    if out.exists() and not force:
        raise ConfigError(f"output file {out} exists (use --force to overwrite)")
    _make_dirs(out.parent)
    return out


def _load(manifest_path: str) -> TraceDataset:
    """The manifest's dataset, read relative to the manifest's directory."""
    return load_dataset(DatasetManifest.load(manifest_path), Path(manifest_path).parent)


# --- synth ---------------------------------------------------------------

def cmd_synth(args) -> int:
    if args.tasks < 1 or args.tasks > 26:
        raise ConfigError(f"--tasks must be in [1, 26], got {args.tasks}")
    cfg = SynthConfig(
        num_users=args.users,
        tasks=tuple(chr(ord("a") + i) for i in range(args.tasks)),
        trials_per_task=args.trials,
        seed=args.seed,
        duration_range=(args.duration_min, args.duration_max),
    )
    out = _prepare_outdir(args.out, args.force)
    dataset = synth_dataset(cfg)
    save_dataset(dataset, out)
    print(f"wrote {len(dataset)} traces ({args.users} users x {args.tasks} tasks "
          f"x {args.trials} trials) to {out}")
    return 0


# --- filter --------------------------------------------------------------

def cmd_filter(args) -> int:
    if not (0.0 < args.alpha <= 1.0):
        raise ConfigError(f"--alpha must be in (0, 1], got {args.alpha}")
    raw = _load(args.manifest)
    variants = sorted({tr.variant for tr in raw} - {"raw"})
    if variants:
        raise DataError(f"filter reads a raw manifest; this one holds {variants} traces")
    out = _prepare_outdir(args.out, args.force)
    save_dataset(TraceDataset(filter_trace(tr, args.alpha) for tr in raw), out)
    print(f"filtered {len(raw)} traces (alpha={args.alpha}) into {out}")
    return 0


# --- train-experiment ------------------------------------------------------

def _model_config(args, seq_len: int) -> ModelConfig:
    return ModelConfig(d_model=args.d_model, num_heads=args.heads, ffn_dim=args.ffn_dim,
                       num_layers=args.layers, seq_len=seq_len)


def _model_template(args, kind: str) -> ModelConfig:
    seq_len = args.seq_len if args.seq_len is not None else DEFAULT_SEQ_LEN[kind]
    cfg = _model_config(args, seq_len)
    if seq_len not in DEFAULT_SEQ_LEN.values():
        print(f"note: seq_len={seq_len} is non-standard (paper runs use 64 or 512)",
              file=sys.stderr)
    return cfg


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        normalize=not args.no_normalize,
        train_per_class=args.train_per_class,
        test_per_class=args.test_per_class,
    )


def cmd_train_experiment(args) -> int:
    dataset = _load(args.manifest)
    jobs = plan_experiment(dataset, args.kind, _train_config(args),
                           _model_template(args, args.kind))
    out = _prepare_outdir(args.out, args.force)
    # an earlier run's models must not be evaluated alongside this run's
    for stale in out.glob("*.ckpt"):
        stale.unlink()
    for tm in run_jobs(jobs, _workers()):
        save_trained(tm, out)
        final = tm.history.train_acc[-1]
        print(f"{tm.job.model_id}: train={len(tm.job.train_traces)} "
              f"test={len(tm.job.test_traces)} final_train_acc={final:.3f}")
    print(f"wrote {len(jobs)} checkpoints to {out}")
    return 0


# --- eval-experiment -----------------------------------------------------

def cmd_eval_experiment(args) -> int:
    ckpt_dir = Path(args.checkpoints)
    if not ckpt_dir.is_dir():
        raise DataError(f"checkpoint directory not found: {ckpt_dir}")
    paths = sorted(ckpt_dir.glob("*.ckpt"))
    if not paths:
        raise DataError(f"no checkpoints in {ckpt_dir}")
    dataset = _load(args.manifest)
    out = _prepare_outdir(args.out, args.force)

    exp = evaluate_experiment([load_trained(dataset, p) for p in paths])
    write_experiment_files(exp, out)
    for r in exp.reports:
        print(f"{r.model_id}: accuracy={r.accuracy:.4f}")
    print(f"mean accuracy {exp.mean_accuracy:.4f}; reports in {out}")
    return 0


# --- sweep -----------------------------------------------------------------

def cmd_sweep(args) -> int:
    sizes = DEFAULT_SWEEP_SIZES
    if args.sizes:
        try:
            sizes = tuple(int(s) for s in args.sizes.split(","))
        except ValueError:
            raise ConfigError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    dataset = _load(args.manifest)
    users = [u.strip() for u in args.users.split(",") if u.strip()] if args.users else None
    out = _prepare_outfile(args.out, args.force)
    train_cfg = _train_config(args)
    template = _model_template(args, "task")
    plan = plan_sweep(dataset, train_cfg, sizes, template, users)
    columns = sorted(job.group for job in plan[0][1])
    lines = ["size,accuracy" + "".join(f",{u}" for u in columns)]
    models = run_jobs([job for _, jobs in plan for job in jobs], _workers())  # one queue
    for size, jobs in plan:  # each point is evaluated from its next models
        exp = evaluate_experiment(islice(models, len(jobs)))
        lines.append(f"{size},{exp.mean_accuracy}"
                     + "".join(f",{exp.per_user[u]}" for u in columns))
        atomic_write_text(out, "\n".join(lines) + "\n")  # a failed sweep keeps its finished rows
        print(f"size {size:4d}: mean accuracy {exp.mean_accuracy:.4f}")
    print(f"wrote {len(plan)}-row curve to {out}")
    return 0


# --- gradcheck --------------------------------------------------------------

def _quadratic_self_test() -> float:
    # coordinates bounded away from 0 keep the relative error at rounding level
    rng = np.random.default_rng(7)
    x = Tensor(rng.uniform(0.5, 2.0, 32) * rng.choice([-1.0, 1.0], 32),
               requires_grad=True, dtype=np.float64)
    f = lambda: ad.tsum(ad.mul(x, x))
    return grad_check(f, [x], eps=GRADCHECK_EPS, num_samples=32, seed=1)


def cmd_gradcheck(args) -> int:
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    cfg = replace(_model_config(args, args.seq_len), num_classes=_GRADCHECK_CLASSES)
    quad_err = _quadratic_self_test()
    print(f"quadratic self-test: max rel error {quad_err:.3e} "
          f"({'ok' if quad_err < QUADRATIC_THRESHOLD else 'FAIL'})")

    params = build_model(cfg, seed=_GRADCHECK_SEED).astype(np.float64)
    batch, labels = draw_kink_free_batch(params, _GRADCHECK_BATCH, seed=_GRADCHECK_SEED)

    fault = args.inject_fault

    def f():
        loss = cross_entropy(forward(params, batch), labels)
        if fault:
            # value tracks the weights but the graph does not: verification must fail
            drift = 0.001 * sum(float((t.data ** 2).sum()) for _, t in params.items())
            loss = ad.mul(loss, Tensor(np.float64(1 + drift), dtype=np.float64))
        return loss

    err = grad_check(f, dict(params.items()), eps=GRADCHECK_EPS, num_samples=args.samples,
                     seed=_GRADCHECK_SEED, min_magnitude=GRADCHECK_MIN_GRAD)
    ok = quad_err < QUADRATIC_THRESHOLD and err < GRADCHECK_THRESHOLD
    print(f"model gradcheck ({args.samples} coords, eps={GRADCHECK_EPS}): "
          f"max rel error {err:.3e} ({'ok' if err < GRADCHECK_THRESHOLD else 'FAIL'})")
    return 0 if ok else 1


# --- parser ------------------------------------------------------------------

def _add_model_flags(p: argparse.ArgumentParser, seq_len: int | None) -> None:
    p.add_argument("--d-model", type=int, default=ModelConfig.d_model)
    p.add_argument("--heads", type=int, default=ModelConfig.num_heads)
    p.add_argument("--ffn-dim", type=int, default=ModelConfig.ffn_dim)
    p.add_argument("--layers", type=int, default=ModelConfig.num_layers)
    p.add_argument("--seq-len", type=int, default=seq_len,
                   help="resample length (default: " + ", ".join(
                       f"{n} for {kind}" for kind, n in DEFAULT_SEQ_LEN.items()) + ")"
                   if seq_len is None else None)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--train-per-class", type=int, default=TrainConfig.train_per_class)
    p.add_argument("--test-per-class", type=int, default=TrainConfig.test_per_class)
    p.add_argument("--no-normalize", action="store_true",
                   help="feed raw (unnormalized) features, as in the paper's literal pipeline")
    _add_model_flags(p, seq_len=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hapticauth",
        description="Haptic-biometric authentication pipeline: synthesize, filter, "
                    "train, evaluate, sweep, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    default_out = os.environ.get("HAPTICAUTH_OUT")

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--out", default=default_out)
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--tasks", type=int, default=len(SynthConfig.tasks),
                   help="number of letter tasks, labeled a, b, c, ...")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=SynthConfig.seed)
    p.add_argument("--duration-min", type=float, default=SynthConfig.duration_range[0])
    p.add_argument("--duration-max", type=float, default=SynthConfig.duration_range[1])
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("filter", help="emit the EMA-filtered variant of a dataset")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=default_out)
    p.add_argument("--alpha", type=float, default=0.001)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("train-experiment", help="train the per-task or per-user model set")
    p.add_argument("--manifest", required=True)
    p.add_argument("--kind", choices=list(EXPERIMENT_FIELDS), required=True)
    p.add_argument("--out", default=default_out)
    p.add_argument("--force", action="store_true")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train_experiment)

    p = sub.add_parser("eval-experiment", help="evaluate checkpoints and write reports")
    p.add_argument("--checkpoints", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=default_out)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_eval_experiment)

    p = sub.add_parser("sweep", help="task-classification accuracy vs training-set size")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=default_out)
    sizes = DEFAULT_SWEEP_SIZES
    p.add_argument("--sizes", default=None, help="comma-separated sizes "
                   f"(default {sizes[0]}..{sizes[-1]} step {sizes[1] - sizes[0]})")
    p.add_argument("--users", default=None, help="restrict to these users (comma-separated)")
    p.add_argument("--force", action="store_true")
    _add_train_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference verification of the model gradients")
    _add_model_flags(p, seq_len=8)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt the loss so verification must fail (negative self-test)")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HapticAuthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
