import json

import numpy as np
import pytest

from hapticauth import (
    FeatureSequence,
    ModelConfig,
    TrainConfig,
    build_model,
    confusion_matrix,
    evaluate_experiment,
    evaluate_model,
    metrics,
    plan_experiment,
    run_jobs,
)
from hapticauth.errors import DataError, ShapeError
from hapticauth.evaluation import matrix_csv, matrix_svg, predict_batch, write_experiment_files

from oracles import accuracy_precision, count_confusion

TINY = ModelConfig(d_model=16, num_heads=2, ffn_dim=16, num_layers=1, num_classes=3, seq_len=8)


def seqs_for(params, n=6, seed=0):
    rng = np.random.default_rng(seed)
    return [FeatureSequence(rng.standard_normal((params.config.seq_len, 13)).astype(np.float32),
                            int(rng.integers(0, params.config.num_classes)),
                            ("u", "t", i, "raw"))
            for i in range(n)]


class TestPredict:
    def test_exact_tie_takes_lowest_index(self):
        params = build_model(TINY, seed=1)
        params["head.w"].data[:] = 0.0
        params["head.b"].data[:] = 0.0  # all logits exactly equal
        np.testing.assert_array_equal(predict_batch(params, seqs_for(params, 4)), 0)

    def test_logit_shift_invariant(self):
        params = build_model(TINY, seed=2)
        seqs = seqs_for(params, 6)
        preds1 = predict_batch(params, seqs)
        params["head.b"].data += 123.0
        np.testing.assert_array_equal(predict_batch(params, seqs), preds1)


    def test_inference_records_no_graph(self, monkeypatch):
        from hapticauth import evaluation, model
        params = build_model(TINY, seed=3)
        seqs = seqs_for(params, 5)
        logits = []

        def spy(p, x, **kwargs):
            assert all(p[n].data is params[n].data for n, _ in params.items())  # shared, no copy
            logits.append(model.forward(p, x, **kwargs))
            return logits[-1]

        monkeypatch.setattr(evaluation, "forward", spy)
        monkeypatch.setattr(evaluation, "PREDICT_BATCH", 2)
        preds = evaluation.predict_batch(params, seqs)
        assert len(logits) == 3
        assert all(t._parents == () and t._backward is None for t in logits)
        expected = model.forward(params, np.stack([fs.values for fs in seqs])).data.argmax(axis=1)
        np.testing.assert_array_equal(preds, expected)


class TestConfusionMatrix:
    def test_all_correct_is_diagonal(self):
        labels = [0, 1, 2, 1, 0]
        m = confusion_matrix(labels, labels, 3)
        assert m.sum() == 5
        np.testing.assert_array_equal(m, np.diag([2, 2, 1]))

    def test_hand_counted(self):
        m = confusion_matrix([0, 1, 1], [0, 1, 0], 2)
        np.testing.assert_array_equal(m, [[1, 1], [0, 1]])

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(3)
        preds = rng.integers(0, 6, size=500)
        labels = rng.integers(0, 6, size=500)
        np.testing.assert_array_equal(confusion_matrix(preds, labels, 6),
                                      count_confusion(preds, labels, 6))

    def test_out_of_range(self):
        with pytest.raises(DataError):
            confusion_matrix([0, 3], [0, 1], 3)
        with pytest.raises(ShapeError):
            confusion_matrix([0, 1], [0], 2)


class TestMetrics:
    def test_diagonal_perfect(self):
        acc, prec = metrics(np.diag([3, 4, 5]))
        assert acc == 1.0
        np.testing.assert_array_equal(prec, [1.0, 1.0, 1.0])

    def test_hand_computed(self):
        acc, prec = metrics(np.array([[1, 1], [0, 1]]))
        assert acc == pytest.approx(2 / 3)
        np.testing.assert_allclose(prec, [1.0, 0.5])

    def test_uniform_matrix(self):
        for k in (2, 5):
            acc, prec = metrics(np.full((k, k), 3))
            assert acc == pytest.approx(1 / k)
            np.testing.assert_allclose(prec, 1 / k)

    def test_never_predicted_class_scores_zero(self):
        m = np.array([[2, 0], [1, 0]])  # class 1 never predicted
        acc, prec = metrics(m)
        assert prec[1] == 0.0

    def test_all_zero_rejected(self):
        with pytest.raises(DataError):
            metrics(np.zeros((3, 3), dtype=np.int64))

    def test_label_permutation_preserves_accuracy(self):
        rng = np.random.default_rng(4)
        m = rng.integers(0, 20, size=(4, 4))
        m += np.diag(rng.integers(10, 30, size=4))
        perm = rng.permutation(4)
        acc1, _ = metrics(m)
        acc2, _ = metrics(m[np.ix_(perm, perm)])
        assert acc1 == pytest.approx(acc2)

    def test_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.integers(0, 10, size=(3, 3))
            if m.sum() == 0:
                continue
            acc, prec = metrics(m)
            assert 0.0 <= acc <= 1.0
            assert ((prec >= 0) & (prec <= 1)).all()


class TestEvaluate:
    def test_report_counts_and_consistency(self):
        params = build_model(TINY, seed=6)
        test_set = seqs_for(params, 30, seed=6)
        report = evaluate_model(params, test_set, ["a", "b", "c"], model_id="m")
        assert int(report.matrix.sum()) == 30
        acc_oracle, prec_oracle = accuracy_precision(report.matrix)
        assert report.accuracy == pytest.approx(acc_oracle)
        np.testing.assert_allclose(report.precision, prec_oracle)

    def test_experiment_aggregate_equals_mean_oracle(self, small_synth):
        cfg = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=8, seed=0,
                          train_per_class=5, test_per_class=2)
        tiny = ModelConfig(d_model=16, num_heads=2, ffn_dim=16, num_layers=1,
                           num_classes=2, seq_len=16)
        models = list(run_jobs(plan_experiment(small_synth, "task", cfg, tiny)))
        exp = evaluate_experiment(models)
        assert exp.kind == "task"
        assert len(exp.reports) == 3
        assert exp.mean_accuracy == pytest.approx(
            sum(r.accuracy for r in exp.reports) / len(exp.reports))
        assert exp.per_user == {m.job.group: r.accuracy for m, r in zip(models, exp.reports)}

    def test_single_perfect_model(self):
        params = build_model(TINY, seed=7)
        fs = seqs_for(params, 12, seed=7)
        preds = [int(p) for p in predict_batch(params, fs)]
        relabeled = [FeatureSequence(s.values, p, s.source) for s, p in zip(fs, preds)]
        report = evaluate_model(params, relabeled, ["a", "b", "c"])
        assert report.accuracy == 1.0

    def test_mixed_kinds_rejected(self, small_synth):
        cfg = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=8, seed=0,
                          train_per_class=5, test_per_class=2)
        tiny = ModelConfig(d_model=16, num_heads=2, ffn_dim=16, num_layers=1,
                           num_classes=2, seq_len=16)
        a = list(run_jobs(plan_experiment(small_synth, "task", cfg, tiny)))
        b = list(run_jobs(plan_experiment(small_synth, "user-id", cfg, tiny)))
        with pytest.raises(DataError):
            evaluate_experiment(a + b)


class TestReportFiles:
    def test_csv_layout(self):
        params = build_model(TINY, seed=8)
        report = evaluate_model(params, seqs_for(params, 9, seed=8), ["x", "y", "z"], "m1")
        text = matrix_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == "true\\pred,x,y,z"
        assert len(lines) == 4
        body = [int(v) for line in lines[1:] for v in line.split(",")[1:]]
        assert sum(body) == 9

    def test_svg_well_formed(self):
        params = build_model(TINY, seed=9)
        report = evaluate_model(params, seqs_for(params, 5, seed=9), ["x", "y", "z"], "m2")
        svg = matrix_svg(report)
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
        assert svg.count("<rect") == 9

    def test_experiment_files(self, tmp_path, small_synth):
        cfg = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=8, seed=0,
                          train_per_class=5, test_per_class=2)
        tiny = ModelConfig(d_model=16, num_heads=2, ffn_dim=16, num_layers=1,
                           num_classes=2, seq_len=16)
        models = run_jobs(plan_experiment(small_synth, "task", cfg, tiny))
        exp = evaluate_experiment(models)
        written = write_experiment_files(exp, tmp_path)
        names = {p.name for p in written}
        assert "aggregate.json" in names and "aggregate.csv" in names
        doc = json.loads((tmp_path / "aggregate.json").read_text())
        assert doc["kind"] == "task"
        assert len(doc["models"]) == 3
        one = json.loads((tmp_path / "task_user-u01.json").read_text())
        assert set(one) == {"model", "config_digest", "labels", "matrix", "accuracy", "precision"}
        assert np.asarray(one["matrix"]).sum() == 4
