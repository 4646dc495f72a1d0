"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured quantity (run with ``pytest -s tests/test_acceptance.py`` to see
them).  The heavy benchmark/sweep tests dominate the runtime; the whole
module takes about 2 minutes on two cores (110-140 s measured on a shared
2-core Linux host).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from hapticauth import (
    FeatureSequence,
    ModelConfig,
    SynthConfig,
    TrainConfig,
    build_model,
    confusion_matrix,
    cross_entropy,
    ema_filter,
    evaluate_experiment,
    extract_features,
    forward,
    metrics,
    plan_experiment,
    run_jobs,
    synth_dataset,
    train,
)
from hapticauth.autodiff import grad_check
from hapticauth.cli import main
from hapticauth.model import draw_kink_free_batch

from oracles import accuracy_precision, count_confusion, ema_recurrence, table1_features

BENCH_TRAIN = TrainConfig(learning_rate=1e-3, epochs=50, batch_size=16, seed=0,
                          train_per_class=40, test_per_class=10)
BENCH_MODEL = ModelConfig(d_model=64, num_heads=8, ffn_dim=64, num_layers=2, seq_len=64)


@pytest.fixture(scope="module")
def benchmark_dataset():
    # 5 well-separated users x 3 tasks, 50 trials per pair (40 train + 10 test)
    return synth_dataset(SynthConfig(num_users=5, tasks=("a", "b", "c"),
                                     trials_per_task=50, seed=11))


def test_gradient_correctness_full_model():
    # sampling is restricted to coordinates whose gradient exceeds the
    # float64 central-difference noise floor; below it the comparison
    # measures rounding, not the backward pass (about 1% of coordinates)
    start = time.perf_counter()
    cfg = ModelConfig(d_model=256, num_heads=16, ffn_dim=256, num_layers=2,
                      num_classes=7, seq_len=8)
    params = build_model(cfg, seed=0).astype(np.float64)
    batch, labels = draw_kink_free_batch(params, 2, seed=0)
    err = grad_check(lambda: cross_entropy(forward(params, batch), labels),
                     dict(params.items()), eps=1e-5, num_samples=200, seed=0,
                     min_magnitude=1e-6)
    elapsed = time.perf_counter() - start
    assert err < 1e-4, f"max relative error {err}"
    assert elapsed < 300.0
    print(f"\n[ACCEPTANCE] gradient-correctness: PASS (200 coords, max rel err {err:.2e}, "
          f"{elapsed:.1f}s)")


def test_feature_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    lengths = [4, 2000] + [int(rng.integers(4, 2001)) for _ in range(98)]
    worst = 0.0
    for n in lengths:
        forces = rng.normal(0.0, 2.0, size=(n, 3)).astype(np.float32)
        impl = extract_features(forces, 250.0)
        oracle = table1_features(forces, 250.0)
        for c in range(13):
            scale = max(np.abs(oracle[:, c]).max(), 1e-8)
            rel = np.abs(impl[:, c] - oracle[:, c]) / np.maximum(np.abs(oracle[:, c]), scale * 1e-3)
            worst = max(worst, float(rel.max()))
            assert rel.max() < 1e-4, f"channel {c} at T={n}: {rel.max()}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\n[ACCEPTANCE] feature-oracle-equivalence: PASS (100 traces, worst rel {worst:.2e}, {elapsed:.1f}s)")


def test_filter_oracle_equivalence():
    rng = np.random.default_rng(200)
    for i in range(100):
        n = int(rng.integers(1, 600))
        x = rng.normal(0.0, 3.0, size=(n, 3)).astype(np.float32)
        alpha = 0.001 if i % 2 == 0 else float(rng.uniform(0.0005, 0.95))
        np.testing.assert_array_equal(ema_filter(x, alpha), ema_recurrence(x, alpha))
        np.testing.assert_array_equal(ema_filter(x, 1.0), x)
    const = np.full((128, 3), -1.75, dtype=np.float32)
    for alpha in (0.001, 0.37, 1.0):
        np.testing.assert_array_equal(ema_filter(const, alpha), const)
    print("\n[ACCEPTANCE] filter-oracle-equivalence: PASS (100 traces bit-exact; "
          "alpha=1 and constant fixed point exact)")


def test_protocol_shape_conformance():
    # paper-shaped corpus; reduced model dims keep this desk-scale while the
    # split protocol (counts, disjointness) is exactly the full one
    start = time.perf_counter()
    dataset = synth_dataset(SynthConfig(num_users=15, trials_per_task=120, seed=7,
                                        duration_range=(0.05, 0.08)))
    assert len(dataset) == 12600
    cfg = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=16, seed=0,
                      train_per_class=100, test_per_class=20)
    tiny = ModelConfig(d_model=16, num_heads=2, ffn_dim=16, num_layers=2, seq_len=16)

    uid_models = list(run_jobs(plan_experiment(dataset, "user-id", cfg, tiny)))
    assert len(uid_models) == 7
    for tm in uid_models:
        assert len(tm.job.train_traces) == 1500
        assert len(tm.job.test_traces) == 300
        assert len(tm.job.class_labels) == 15
        assert not ({tr.key for tr in tm.job.train_traces}
                    & {tr.key for tr in tm.job.test_traces})
    uid_exp = evaluate_experiment(uid_models)
    assert len(uid_exp.reports) == 7
    assert len(uid_exp.per_user) == 15          # per-user precision averaged over tasks
    assert all(int(r.matrix.sum()) == 300 for r in uid_exp.reports)

    task_models = list(run_jobs(plan_experiment(dataset, "task", cfg, tiny)))
    assert len(task_models) == 15
    for tm in task_models:
        assert len(tm.job.train_traces) == 700
        assert len(tm.job.test_traces) == 140
        assert len(tm.job.class_labels) == 7
        assert not ({tr.key for tr in tm.job.train_traces}
                    & {tr.key for tr in tm.job.test_traces})
    task_exp = evaluate_experiment(task_models)
    assert len(task_exp.reports) == 15
    assert all(int(r.matrix.sum()) == 140 for r in task_exp.reports)
    elapsed = time.perf_counter() - start
    print(f"\n[ACCEPTANCE] protocol-shape-conformance: PASS (7x1500/300, 15x700/140, "
          f"disjoint, aggregates 7+15; {elapsed:.1f}s)")


def test_synthetic_separability_benchmark(benchmark_dataset):
    start = time.perf_counter()
    # two workers train the models a serial run trains, byte for byte
    uid_jobs = plan_experiment(benchmark_dataset, "user-id", BENCH_TRAIN, BENCH_MODEL)
    uid_report = evaluate_experiment(run_jobs(uid_jobs, workers=2))
    task_jobs = plan_experiment(benchmark_dataset, "task", BENCH_TRAIN, BENCH_MODEL)
    task_report = evaluate_experiment(run_jobs(task_jobs, workers=2))
    elapsed = time.perf_counter() - start
    assert uid_report.mean_accuracy >= 0.90, f"user-id accuracy {uid_report.mean_accuracy}"
    assert task_report.mean_accuracy >= 0.90, f"task accuracy {task_report.mean_accuracy}"
    assert elapsed < 900.0
    print(f"\n[ACCEPTANCE] synthetic-separability: PASS (user-id {uid_report.mean_accuracy:.3f}, "
          f"task {task_report.mean_accuracy:.3f}, {elapsed:.0f}s)")


def test_overfit_sanity():
    rng = np.random.default_rng(0)
    seqs = []
    for i in range(8):
        label = i % 2
        values = rng.standard_normal((16, 13)).astype(np.float32) + 2.0 * label
        seqs.append(FeatureSequence(values, label, ("u", "t", i, "raw")))
    cfg = TrainConfig(learning_rate=1e-3, epochs=200, batch_size=4, seed=0)
    tiny = ModelConfig(d_model=32, num_heads=4, ffn_dim=32, num_layers=2,
                       num_classes=2, seq_len=16)
    _, hist = train(cfg, tiny, seqs)
    assert max(hist.train_acc) == 1.0, "training loop failed to memorize 8 samples"
    assert hist.train_loss[-1] <= hist.train_loss[0] / 10.0
    first_perfect = hist.train_acc.index(1.0)
    print(f"\n[ACCEPTANCE] overfit-sanity: PASS (100% train acc at epoch {first_perfect})")


def test_sweep_behavior(sweep):
    start = time.perf_counter()
    dataset = synth_dataset(SynthConfig(num_users=5, tasks=("a", "b", "c"),
                                        trials_per_task=120, seed=21))
    cfg = TrainConfig(learning_rate=1e-3, epochs=50, batch_size=16, seed=0,
                      train_per_class=100, test_per_class=20)
    curve = sweep(dataset, cfg, workers=2, model_template=BENCH_MODEL, users=["u01"])
    elapsed = time.perf_counter() - start
    assert list(curve) == list(range(5, 101, 5))
    acc = {size: exp.mean_accuracy for size, exp in curve.items()}
    assert acc[100] >= acc[5], f"curve did not rise: {acc[5]} -> {acc[100]}"
    assert acc[100] >= 0.90
    print(f"\n[ACCEPTANCE] sweep-behavior: PASS (acc 5->{acc[5]:.3f}, 100->{acc[100]:.3f}, "
          f"{elapsed:.0f}s)")


def test_determinism_byte_identical(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--users", "2", "--tasks", "2",
                 "--trials", "6", "--seed", "13",
                 "--duration-min", "0.1", "--duration-max", "0.15"]) == 0
    flags = ["--epochs", "3", "--lr", "1e-3", "--d-model", "16", "--heads", "2",
             "--ffn-dim", "16", "--seq-len", "16",
             "--train-per-class", "4", "--test-per-class", "2"]

    def run(tag: str) -> dict[str, bytes]:
        ckpt = tmp_path / f"ckpt_{tag}"
        reports = tmp_path / f"reports_{tag}"
        assert main(["train-experiment", "--manifest", str(data / "manifest.json"),
                     "--kind", "task", "--seed", "17", "--out", str(ckpt)] + flags) == 0
        assert main(["eval-experiment", "--checkpoints", str(ckpt),
                     "--manifest", str(data / "manifest.json"),
                     "--out", str(reports)]) == 0
        return {p.relative_to(tmp_path).as_posix().split("/", 1)[1]: p.read_bytes()
                for p in sorted(tmp_path.rglob("*"))
                if p.is_file() and f"_{tag}/" in p.as_posix()}

    first = run("a")
    second = run("b")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"byte mismatch in {name}"
    print(f"\n[ACCEPTANCE] determinism: PASS ({len(first)} checkpoint/report files byte-identical)")


def test_metric_correctness_oracles():
    rng = np.random.default_rng(300)
    for _ in range(1000):
        k = int(rng.integers(2, 16))
        n = int(rng.integers(1, 200))
        preds = rng.integers(0, k, size=n)
        labels = rng.integers(0, k, size=n)
        mat = confusion_matrix(preds, labels, k)
        np.testing.assert_array_equal(mat, count_confusion(preds, labels, k))
        acc, prec = metrics(mat)
        acc_o, prec_o = accuracy_precision(mat)
        assert acc == acc_o
        assert list(prec) == prec_o
    print("\n[ACCEPTANCE] metric-correctness: PASS (1000 random prediction sets exact)")
