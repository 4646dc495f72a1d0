import os
import subprocess
import sys
import time
import weakref
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hapticauth
from hapticauth import trainer
from hapticauth import (
    AdamState,
    FeatureSequence,
    ModelConfig,
    SynthConfig,
    TraceDataset,
    TrainConfig,
    adam_step,
    build_model,
    cosine_lr,
    load_trained,
    plan_experiment,
    plan_sweep,
    run_jobs,
    save_trained,
    split_dataset,
    synth_dataset,
    train,
)
from hapticauth.errors import ConfigError, DataError
from hapticauth.evaluation import evaluate_experiment
from hapticauth.model import load_checkpoint, save_checkpoint
from hapticauth.signal import zscore_fit

from oracles import adam_array_trajectory, adam_scalar_trajectory

TINY_MODEL = ModelConfig(d_model=16, num_heads=2, ffn_dim=16, num_layers=2,
                         num_classes=2, seq_len=16)


def toy_set(n=8, num_classes=2, seq_len=16, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        label = i % num_classes
        values = rng.standard_normal((seq_len, 13)).astype(np.float32) + 2.0 * label
        out.append(FeatureSequence(values, label, ("u", "t", i, "raw")))
    return out


class TestSplitDataset:
    def test_paper_shaped_group(self):
        cfg = SynthConfig(num_users=2, tasks=("a",), trials_per_task=120, seed=1,
                          duration_range=(0.02, 0.03))
        ds = synth_dataset(cfg)
        train_tr, test_tr = split_dataset(ds, 100, 20, seed=3)
        assert len(train_tr) == 200 and len(test_tr) == 40
        train_ids = {tr.key for tr in train_tr}
        test_ids = {tr.key for tr in test_tr}
        assert not train_ids & test_ids

    def test_deterministic(self):
        cfg = SynthConfig(num_users=2, tasks=("a", "b"), trials_per_task=10, seed=2,
                          duration_range=(0.02, 0.03))
        ds = synth_dataset(cfg)
        s1 = split_dataset(ds, 6, 2, seed=9)
        s2 = split_dataset(ds, 6, 2, seed=9)
        assert [t.key for t in s1[0]] == [t.key for t in s2[0]]
        assert [t.key for t in s1[1]] == [t.key for t in s2[1]]

    def test_independent_of_trace_order(self):
        cfg = SynthConfig(num_users=2, tasks=("a", "b"), trials_per_task=10, seed=2,
                          duration_range=(0.02, 0.03))
        ds = synth_dataset(cfg)
        order = np.random.default_rng(0).permutation(len(ds))
        shuffled = TraceDataset([ds.traces[i] for i in order])
        s1 = split_dataset(ds, 6, 2, seed=9)
        s2 = split_dataset(shuffled, 6, 2, seed=9)
        assert [t.key for t in s1[0]] == [t.key for t in s2[0]]
        assert [t.key for t in s1[1]] == [t.key for t in s2[1]]

    def test_insufficient_names_group(self):
        cfg = SynthConfig(num_users=2, tasks=("a",), trials_per_task=50, seed=3,
                          duration_range=(0.02, 0.03))
        ds = synth_dataset(cfg)
        with pytest.raises(DataError, match=r"u01.*a|\('u01', 'a'\)"):
            split_dataset(ds, 100, 20, seed=0)


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 1e-4) == pytest.approx(1e-4)
        assert cosine_lr(99, 100, 1e-4) == pytest.approx(0.0, abs=1e-20)
        assert cosine_lr(49, 99, 1e-4) == pytest.approx(5e-5)

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            cosine_lr(10, 10, 1e-4)
        with pytest.raises(ConfigError):
            cosine_lr(-1, 10, 1e-4)

    def test_non_increasing_and_bounded(self):
        values = [cosine_lr(e, 50, 3e-4) for e in range(50)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(0 <= v <= 3e-4 for v in values)

    def test_single_epoch(self):
        assert cosine_lr(0, 1, 1e-4) == 1e-4


class TestAdamStep:
    def test_first_step_is_signed_lr(self):
        params = build_model(TINY_MODEL, seed=0)
        state = AdamState.init(params)
        before = {k: t.data.copy() for k, t in params.items()}
        grads = {k: np.full_like(t.data, 0.5) for k, t in params.items()}
        adam_step(params, grads, state, lr=1e-3)
        for k, t in params.items():
            np.testing.assert_allclose(before[k] - t.data, 1e-3, rtol=1e-4)
        assert state.step == 1

    def test_zero_gradient_fresh_state_is_noop(self):
        params = build_model(TINY_MODEL, seed=1)
        state = AdamState.init(params)
        before = {k: t.data.copy() for k, t in params.items()}
        grads = {k: np.zeros_like(t.data) for k, t in params.items()}
        adam_step(params, grads, state, lr=1e-3)
        for k, t in params.items():
            np.testing.assert_array_equal(before[k], t.data)

    def test_absent_gradients_are_noop_for_any_state(self):
        params = build_model(TINY_MODEL, seed=1)
        state = AdamState.init(params)
        rng = np.random.default_rng(0)
        state.m = {k: rng.normal(size=v.shape).astype(np.float32) for k, v in state.m.items()}
        state.v = {k: np.abs(rng.normal(size=v.shape)).astype(np.float32) for k, v in state.v.items()}
        before = {k: t.data.copy() for k, t in params.items()}
        adam_step(params, {}, state, lr=1e-3)
        for k, t in params.items():
            np.testing.assert_array_equal(before[k], t.data)

    def test_three_step_fixed_gradients_match_oracle(self):
        from hapticauth.autodiff import Tensor
        from hapticauth.model import ModelParams

        theta = Tensor(np.array([[1.0]], dtype=np.float32), requires_grad=True)
        params = ModelParams(TINY_MODEL, {"theta": theta})
        state = AdamState.init(params)
        grads = [0.7, -1.3, 0.2]
        seen = []
        for g in grads:
            adam_step(params, {"theta": np.full((1, 1), g, dtype=np.float32)}, state, lr=0.1)
            seen.append(float(theta.data[0, 0]))
        assert seen == pytest.approx(adam_scalar_trajectory(1.0, grads, 0.1), rel=1e-5)

    def test_thirty_steps_bit_identical_to_array_oracle(self):
        params = build_model(ModelConfig(d_model=64, num_heads=4, ffn_dim=64, num_classes=7),
                             seed=3)
        state = AdamState.init(params)
        before = {k: t.data.copy() for k, t in params.items()}
        rng = np.random.default_rng(3)
        grads = [{k: rng.normal(scale=10.0 ** rng.integers(-6, 1), size=w.shape).astype(np.float32)
                  for k, w in before.items()} for _ in range(30)]
        for step_grads in grads:
            adam_step(params, step_grads, state, lr=1e-3)
        for k, t in params.items():
            expected = adam_array_trajectory(before[k], [g[k] for g in grads], 1e-3)
            np.testing.assert_array_equal(t.data, expected)

    def test_three_step_scalar_quadratic_matches_oracle(self):
        # loss = theta^2, gradient 2*theta re-evaluated after every update
        from hapticauth.autodiff import Tensor
        from hapticauth.model import ModelParams

        theta = Tensor(np.array([[1.0]], dtype=np.float64), requires_grad=True, dtype=np.float64)
        params = ModelParams(TINY_MODEL, {"theta": theta})
        state = AdamState.init(params)
        seen = []
        for _ in range(3):
            adam_step(params, {"theta": 2.0 * theta.data}, state, lr=0.1)
            seen.append(float(theta.data[0, 0]))
        # frozen from the scalar oracle recurrences
        assert seen == pytest.approx([0.9000000005, 0.8004122286917927, 0.70158627294603],
                                     rel=1e-9)

    def test_shape_mismatch(self):
        params = build_model(TINY_MODEL, seed=2)
        state = AdamState.init(params)
        with pytest.raises(ConfigError):
            adam_step(params, {"head.b": np.zeros(99, dtype=np.float32)}, state, lr=1e-3)


# seeded training at L 512 (4 Adam steps), then a sha256 over every parameter
BLAS_RUN = """
import hashlib
import numpy as np
from hapticauth import FeatureSequence, ModelConfig, TrainConfig, train
rng = np.random.default_rng(0)
seqs = [FeatureSequence(rng.standard_normal((512, 13)).astype(np.float32) + label, label,
                        ("u", "t", i, "raw")) for i, label in enumerate([0, 1] * 3)]
params, _ = train(TrainConfig(learning_rate=1e-3, epochs=2, batch_size=3, seed=0),
                  ModelConfig(d_model=16, num_heads=2, ffn_dim=16, seq_len=512), seqs)
digest = hashlib.sha256()
for name, t in params.items():
    digest.update(name.encode() + t.data.tobytes())
print(digest.hexdigest())
"""


class TestTrain:
    def test_parameters_independent_of_blas_threads(self):
        # a worker process run with one BLAS thread must write the checkpoint
        # a serial two-thread run writes, so GEMM results, attention's
        # shifted scores included, must not depend on the thread count
        src = str(Path(hapticauth.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", BLAS_RUN], env=env, capture_output=True,
                                 text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout.strip())
        assert len(digests[0]) == 64 and digests[0] == digests[1]

    def test_overfits_toy_set(self):
        seqs = toy_set()
        cfg = TrainConfig(learning_rate=1e-3, epochs=60, batch_size=4, seed=0)
        params, hist = train(cfg, TINY_MODEL, seqs)
        assert hist.train_acc[-1] == 1.0
        assert hist.train_loss[-1] <= hist.train_loss[0] / 10.0

    def test_history_shape_and_lr_schedule(self):
        seqs = toy_set()
        cfg = TrainConfig(epochs=5, batch_size=4, seed=1)
        _, hist = train(cfg, TINY_MODEL, seqs)
        assert len(hist.train_loss) == 5
        assert hist.lr[0] == pytest.approx(1e-4)
        assert hist.lr[-1] == pytest.approx(0.0, abs=1e-20)

    def test_deterministic_checkpoint_bytes(self, tmp_path):
        seqs = toy_set()
        cfg = TrainConfig(epochs=4, batch_size=4, seed=7)
        p1, _ = train(cfg, TINY_MODEL, seqs)
        p2, _ = train(cfg, TINY_MODEL, seqs)
        f1, f2 = tmp_path / "1.ckpt", tmp_path / "2.ckpt"
        save_checkpoint(f1, p1)
        save_checkpoint(f2, p2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_non_finite_loss_aborts(self, monkeypatch):
        from hapticauth import trainer
        updates = []

        def poisoning_adam_step(params, *args, **kwargs):
            adam_step(params, *args, **kwargs)
            updates.append(1)
            if len(updates) == 3:
                params["head.w"].data[0, 0] = np.nan

        monkeypatch.setattr(trainer, "adam_step", poisoning_adam_step)
        cfg = TrainConfig(epochs=4, batch_size=4, seed=0)  # 2 steps per epoch
        with pytest.raises(DataError, match="epoch 1, step 1"):
            train(cfg, TINY_MODEL, toy_set())
        assert len(updates) == 3  # no update after the first non-finite loss

    def test_step_graph_freed_before_next_forward(self, monkeypatch):
        # two live graphs would double the peak memory of a step
        from hapticauth import trainer
        real_forward, seen = trainer.forward, []

        def spy(params, x):
            assert all(ref() is None for ref in seen), "an earlier step's logits are alive"
            logits = real_forward(params, x)
            seen.append(weakref.ref(logits.data))
            return logits

        monkeypatch.setattr(trainer, "forward", spy)
        train(TrainConfig(epochs=2, batch_size=4, seed=0), TINY_MODEL, toy_set())
        assert len(seen) == 4

    def test_empty_set_rejected(self):
        with pytest.raises(DataError):
            train(TrainConfig(epochs=1), TINY_MODEL, [])

    @pytest.mark.parametrize("lr", [float("inf"), float("nan")])
    def test_non_finite_learning_rate_rejected(self, lr):
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("field,value", [("epochs", 2.0), ("batch_size", True),
                                             ("seed", "0"), ("train_per_class", None),
                                             ("normalize", "false"), ("seed", -1),
                                             ("learning_rate", "1e-3"), ("learning_rate", True)])
    def test_ill_typed_or_negative_field_rejected(self, field, value):
        # a checkpoint's train_cfg is rebuilt through this constructor
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    def test_from_dict_needs_every_field(self):
        cfg = TrainConfig(learning_rate=1e-3, seed=4, normalize=False)
        assert TrainConfig.from_dict(asdict(cfg)) == cfg
        doc = asdict(cfg)
        del doc["epochs"]
        with pytest.raises(ConfigError, match="epochs"):
            TrainConfig.from_dict(doc)

    def test_label_gap_rejected(self):
        seqs = [fs for fs in toy_set() if fs.label == 0]
        with pytest.raises(DataError, match="gap"):
            train(TrainConfig(epochs=1), TINY_MODEL, seqs)

    def test_out_of_range_label_rejected(self):
        seqs = toy_set(num_classes=2)
        bad = FeatureSequence(seqs[0].values, 5, ("u", "t", 99, "raw"))
        with pytest.raises(DataError):
            train(TrainConfig(epochs=1), TINY_MODEL, seqs + [bad])


def _fast_cfg(**kw):
    defaults = dict(learning_rate=1e-3, epochs=2, batch_size=8, seed=0,
                    train_per_class=5, test_per_class=2)
    defaults.update(kw)
    return TrainConfig(**defaults)


def _train(dataset, kind, cfg):
    return list(run_jobs(plan_experiment(dataset, kind, cfg, TINY_MODEL)))


def _mark_start(item):
    """Leave a marker file for the item, then fail at once on item 0 and
    sleep on every other item; module level, so a spawned worker can run it."""
    index, marker_dir = item
    (Path(marker_dir) / str(index)).touch()
    if index == 0:
        raise ValueError("item 0 failed")
    time.sleep(0.5)


class TestExperimentFactories:
    def test_task_models_one_per_user(self, small_synth):
        models = _train(small_synth, "task", _fast_cfg())
        assert len(models) == 3
        for tm in models:
            assert tm.job.kind == "task"
            assert tm.job.class_labels == ("a", "b")
            assert len(tm.job.train_traces) == 5 * 2
            assert len(tm.job.test_traces) == 2 * 2
            assert tm.params.config.num_classes == 2

    def test_user_id_models_one_per_task(self, small_synth):
        models = _train(small_synth, "user-id", _fast_cfg())
        assert len(models) == 2
        for tm in models:
            assert tm.job.kind == "user-id"
            assert tm.job.class_labels == ("u01", "u02", "u03")
            assert len(tm.job.train_traces) == 5 * 3
            assert tm.params.config.num_classes == 3

    def test_user_id_generalizes_by_class_count(self):
        # 2 users, 7 tasks: one model per task, each two-way
        cfg = SynthConfig(num_users=2, trials_per_task=4, seed=4,
                          duration_range=(0.05, 0.08))
        ds = synth_dataset(cfg)
        models = _train(ds, "user-id", _fast_cfg(train_per_class=3, test_per_class=1))
        assert len(models) == 7
        assert all(tm.params.config.num_classes == 2 for tm in models)

    def test_single_user_task_experiment(self, small_synth):
        solo = small_synth.subset(user_id="u01")
        models = _train(solo, "task", _fast_cfg())
        assert len(models) == 1

    def test_derived_seeds_differ(self, small_synth):
        models = _train(small_synth, "task", _fast_cfg(seed=100))
        assert [tm.job.train_cfg.seed for tm in models] == [100, 101, 102]

    def test_disjoint_train_test(self, small_synth):
        models = _train(small_synth, "task", _fast_cfg())
        for tm in models:
            train_src = {tr.key for tr in tm.job.train_traces}
            test_src = {tr.key for tr in tm.job.test_traces}
            assert not train_src & test_src

    def test_coverage_gap_rejected(self, small_synth):
        # drop one (user, task) group entirely
        from hapticauth import TraceDataset
        truncated = TraceDataset([tr for tr in small_synth
                                  if not (tr.user_id == "u02" and tr.task_id == "b")])
        with pytest.raises(DataError):
            _train(truncated, "task", _fast_cfg())

    def test_mixed_variants_rejected(self, small_synth):
        from hapticauth import TraceDataset
        from hapticauth.signal import filter_trace
        mixed = TraceDataset(list(small_synth.traces)
                             + [filter_trace(small_synth.traces[0], 0.001)])
        with pytest.raises(DataError, match="variant"):
            _train(mixed, "task", _fast_cfg())

    def test_nan_weight_after_last_update_names_model(self, small_synth, monkeypatch):
        # the last update is never followed by a loss: only the final check sees it
        from hapticauth import trainer

        def poisoning_adam_step(params, grads, state, *args, **kwargs):
            adam_step(params, grads, state, *args, **kwargs)
            if state.step == 4:  # 10 train sequences, batch 8, 2 epochs
                params["layers.0.ffn.w1"].data[0, 0] = np.nan

        monkeypatch.setattr(trainer, "adam_step", poisoning_adam_step)
        with pytest.raises(DataError, match=r"model task_user-u01: .*layers\.0\.ffn\.w1"):
            _train(small_synth, "task", _fast_cfg())

    def test_parallel_workers_match_serial(self, small_synth):
        jobs = plan_experiment(small_synth, "task", _fast_cfg(), TINY_MODEL)
        serial = list(run_jobs(jobs))
        parallel = list(run_jobs(jobs, workers=2))
        assert len(serial) == len(parallel) == len(jobs)
        for job, a, b in zip(jobs, serial, parallel):
            assert a.job is job and b.job is job
            assert a.history.train_loss == b.history.train_loss
            for name, t in a.params.items():
                np.testing.assert_array_equal(t.data, b.params[name].data)

    def test_workers_run_blas_on_one_thread(self, monkeypatch):
        # a worker imports numpy with every BLAS thread variable at 1; the
        # parent keeps its own values, and a variable it lacked stays unset
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        seen = list(trainer._in_workers(os.getenv, list(trainer.BLAS_THREAD_VARS) * 2, workers=2))
        assert seen == ["1"] * 6
        assert os.environ["OPENBLAS_NUM_THREADS"] == os.environ["OMP_NUM_THREADS"] == "2"
        assert "MKL_NUM_THREADS" not in os.environ

    def test_failing_item_cancels_queued_items(self, tmp_path):
        # the error must not wait behind every queued item: of 10 items on
        # 2 workers, only those already handed to a worker may start
        items = [(i, str(tmp_path)) for i in range(10)]
        with pytest.raises(ValueError, match="item 0 failed"):
            list(trainer._in_workers(_mark_start, items, workers=2))
        assert len(list(tmp_path.iterdir())) < len(items)


class TestPlanner:
    @settings(max_examples=12, deadline=None)
    @given(kind=st.sampled_from(["user-id", "task"]), users=st.integers(2, 3),
           tasks=st.integers(2, 3), n_train=st.integers(1, 3), n_test=st.integers(1, 2),
           spare=st.integers(0, 2), seed=st.integers(0, 10_000))
    def test_splits_disjoint_balanced_and_rebuilt_from_checkpoint(
            self, tmp_path_factory, kind, users, tasks, n_train, n_test, spare, seed):
        ds = synth_dataset(SynthConfig(num_users=users, tasks=("a", "b", "c")[:tasks],
                                       trials_per_task=n_train + n_test + spare,
                                       seed=seed, duration_range=(0.04, 0.06)))
        cfg = TrainConfig(epochs=1, batch_size=64, seed=seed,
                          train_per_class=n_train, test_per_class=n_test)
        tiny = ModelConfig(d_model=8, num_heads=1, ffn_dim=8, num_layers=1, seq_len=8)
        jobs = plan_experiment(ds, kind, cfg, tiny)
        assert [job.train_cfg.seed for job in jobs] == [seed + i for i in range(len(jobs))]
        for job in jobs:
            train_ids = [tr.key for tr in job.train_traces]
            test_ids = [tr.key for tr in job.test_traces]
            assert not set(train_ids) & set(test_ids)
            for keys, per_class in ((train_ids, n_train), (test_ids, n_test)):
                labels = [job.label_of(tr) for tr in job.train_traces + job.test_traces
                          if tr.key in set(keys)]
                assert np.bincount(labels).tolist() == [per_class] * len(job.class_labels)

        out = tmp_path_factory.mktemp("plan")
        for job, tm in zip(jobs, run_jobs(jobs)):
            rebuilt = load_trained(ds, save_trained(tm, out)).job
            for got, want in ((rebuilt.train_traces, job.train_traces),
                              (rebuilt.test_traces, job.test_traces)):
                assert [tr.key for tr in got] == [tr.key for tr in want]


class TestTrainedModelFile:
    @pytest.mark.parametrize("kind", ["user-id", "task"])
    def test_round_trip(self, small_synth, tmp_path, kind):
        models = _train(small_synth, kind, _fast_cfg())
        for tm in models:
            path = save_trained(tm, tmp_path)
            assert path == tmp_path / f"{tm.job.model_id}.ckpt"
            back = load_trained(small_synth, path)

            def keys(job):
                return [[tr.key for tr in job.train_traces], [tr.key for tr in job.test_traces]]

            def bare(job):
                return replace(job, train_traces=(), test_traces=())

            assert bare(back.job) == bare(tm.job) and keys(back.job) == keys(tm.job)
            assert back.params.config == tm.params.config
            assert [(n, t.data.dtype, t.data.tobytes()) for n, t in back.params.items()] == \
                [(n, t.data.dtype, t.data.tobytes()) for n, t in tm.params.items()]
            for got, want in ((back.stats.mean, tm.stats.mean), (back.stats.std, tm.stats.std)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert back.history == tm.history and len(back.history.train_loss) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted(f"{tm.job.model_id}.ckpt" for tm in models)

    def test_meta_names_no_model_id(self, small_synth, tmp_path):
        # the id and file name follow from kind and group; a stored id would be a second copy
        tm = _train(small_synth, "task", _fast_cfg())[0]
        _, meta, _ = load_checkpoint(save_trained(tm, tmp_path))
        assert set(meta) == {"kind", "group", "class_labels", "variant", "train_cfg",
                             "split_digest", "history"}
        assert meta["history"] == asdict(tm.history)


class TestSweep:
    def test_default_sizes(self):
        from hapticauth.trainer import DEFAULT_SWEEP_SIZES
        assert DEFAULT_SWEEP_SIZES == tuple(range(5, 101, 5))
        assert len(DEFAULT_SWEEP_SIZES) == 20

    def test_full_size_point_equals_full_protocol(self, small_synth, sweep):
        cfg = _fast_cfg(train_per_class=5, test_per_class=2)
        curve = sweep(small_synth, cfg, sizes=(2, 5), model_template=TINY_MODEL, users=["u01"])
        assert list(curve) == [2, 5]
        full = _train(small_synth.subset(user_id="u01"), "task", cfg)
        report = evaluate_experiment(full)
        assert curve[5].per_user["u01"] == pytest.approx(report.reports[0].accuracy)

    def test_size_exceeding_split_rejected(self, small_synth):
        with pytest.raises(ConfigError):
            plan_sweep(small_synth, _fast_cfg(train_per_class=5), sizes=(10,),
                       model_template=TINY_MODEL)

    def test_unknown_user_rejected(self, small_synth):
        with pytest.raises(DataError):
            plan_sweep(small_synth, _fast_cfg(), sizes=(2,),
                       model_template=TINY_MODEL, users=["u99"])

    def test_repeated_user_rejected(self, small_synth):
        with pytest.raises(ConfigError, match="repeat"):
            plan_sweep(small_synth, _fast_cfg(), sizes=(2,),
                       model_template=TINY_MODEL, users=["u01", "u01"])

    def test_repeated_size_rejected(self, small_synth):
        with pytest.raises(ConfigError, match="sizes repeat"):
            plan_sweep(small_synth, _fast_cfg(), sizes=(2, 2),
                       model_template=TINY_MODEL, users=["u01"])

    def test_each_point_fits_zscore_on_its_subsample(self, small_synth, monkeypatch, sweep):
        from hapticauth import trainer
        fitted = []

        def spy(seqs):
            fitted.append(len(seqs))
            return zscore_fit(seqs)

        monkeypatch.setattr(trainer, "zscore_fit", spy)
        sweep(small_synth, _fast_cfg(), sizes=(2, 5), model_template=TINY_MODEL, users=["u01"])
        assert fitted == [2 * 2, 5 * 2]  # size x 2 tasks

    def test_nan_names_sweep_model(self, small_synth, monkeypatch, sweep):
        from hapticauth import trainer

        def poisoning_adam_step(params, grads, state, *args, **kwargs):
            adam_step(params, grads, state, *args, **kwargs)
            params["layers.0.ffn.w1"].data[0, 0] = np.nan

        monkeypatch.setattr(trainer, "adam_step", poisoning_adam_step)
        with pytest.raises(DataError, match=r"^model sweep-u01-2: "):
            sweep(small_synth, _fast_cfg(), sizes=(2,), model_template=TINY_MODEL, users=["u01"])
