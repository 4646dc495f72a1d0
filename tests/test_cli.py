import hashlib
import json
import os
import weakref
from pathlib import Path

import numpy as np
import pytest

from hapticauth import cli, trainer
from hapticauth.cli import main
from hapticauth.dataset import DatasetManifest, TraceDataset, load_dataset, save_dataset
from hapticauth.errors import DataError
from hapticauth.model import ModelConfig, build_model, load_checkpoint, save_checkpoint
from hapticauth.signal import filter_trace

from oracles import ema_recurrence

TINY_FLAGS = ["--epochs", "2", "--lr", "1e-3", "--d-model", "16", "--heads", "2",
              "--ffn-dim", "16", "--seq-len", "16",
              "--train-per-class", "3", "--test-per-class", "1"]


def synth_args(out, users=2, tasks=2, trials=4, seed=5):
    return ["synth", "--out", str(out), "--users", str(users), "--tasks", str(tasks),
            "--trials", str(trials), "--seed", str(seed),
            "--duration-min", "0.05", "--duration-max", "0.08"]


def edit_header(path, edit):
    """Rewrite a checkpoint's JSON header line through edit(header)."""
    raw = path.read_bytes()
    nl = raw.find(b"\n")
    header = json.loads(raw[:nl])
    edit(header)
    path.write_bytes(json.dumps(header).encode() + raw[nl:])


def read_tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    assert main(synth_args(out)) == 0
    return out


class TestSynth:
    def test_counts_and_manifest(self, dataset_dir):
        manifest = DatasetManifest.load(dataset_dir / "manifest.json")
        assert len(manifest) == 2 * 2 * 4
        ds = load_dataset(manifest, dataset_dir)
        assert len(ds) == 16

    def test_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(synth_args(a)) == 0
        assert main(synth_args(b)) == 0
        assert read_tree(a) == read_tree(b)

    @pytest.mark.parametrize("setting", [{"users": 0}, {"seed": -1}])
    def test_invalid_setting_is_usage_error(self, tmp_path, setting):
        assert main(synth_args(tmp_path / "x", **setting)) == 2
        assert not (tmp_path / "x").exists()

    def test_refuses_overwrite_without_force(self, dataset_dir):
        assert main(synth_args(dataset_dir)) == 2
        assert main(synth_args(dataset_dir) + ["--force"]) == 0

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--nope", str(tmp_path)])
        assert exc.value.code == 2


class TestFilter:
    def test_counts_match_raw(self, dataset_dir, tmp_path):
        out = tmp_path / "filtered"
        assert main(["filter", "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(out)]) == 0
        manifest = DatasetManifest.load(out / "manifest.json")
        assert len(manifest) == 16
        assert all(e.variant == "filtered" for e in manifest.entries)

    def test_alpha_one_bytes_equal(self, dataset_dir, tmp_path):
        out = tmp_path / "ident"
        assert main(["filter", "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(out), "--alpha", "1.0"]) == 0
        for raw_file in sorted(dataset_dir.glob("*_raw.csv")):
            twin = out / raw_file.name.replace("_raw", "_filtered")
            assert twin.read_bytes() == raw_file.read_bytes()

    def test_alpha_matches_recurrence_oracle(self, dataset_dir, tmp_path):
        out = tmp_path / "f001"
        assert main(["filter", "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(out), "--alpha", "0.001"]) == 0
        raw = load_dataset(DatasetManifest.load(dataset_dir / "manifest.json"), dataset_dir)
        filt = load_dataset(DatasetManifest.load(out / "manifest.json"), out)
        raw_by_key = {tr.key[:3]: tr for tr in raw}
        for tr in filt:
            np.testing.assert_array_equal(tr.forces, ema_recurrence(raw_by_key[tr.key[:3]].forces, 0.001))

    def test_bad_alpha(self, dataset_dir, tmp_path):
        assert main(["filter", "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(tmp_path / "x"), "--alpha", "2.0"]) == 2

    def test_missing_manifest(self, tmp_path):
        assert main(["filter", "--manifest", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "x")]) == 3

    def test_undecodable_byte_exits_3(self, dataset_dir, tmp_path, capsys):
        csv = sorted(dataset_dir.glob("*_raw.csv"))[0]
        csv.write_bytes(csv.read_bytes() + b"9,1,2,3\xff\n")
        capsys.readouterr()
        assert main(["filter", "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert str(csv) in err and "non-numeric value" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.update(entries=5), "an 'entries' list"),
        (lambda doc: doc.update(sample_rate=True), "sample_rate"),
        (lambda doc: doc["entries"][0].update(trial=1.7), "manifest entry 0 needs"),
        (lambda doc: doc["entries"][0].update(trial=True), "manifest entry 0 needs"),
        (lambda doc: doc["entries"][0].update(path=None), "manifest entry 0 needs"),
    ], ids=["int-entries", "bool-sample-rate", "float-trial", "bool-trial", "null-path"])
    def test_malformed_manifest_exits_3(self, edit, message, dataset_dir, tmp_path, capsys):
        # a coerced trial 1.7 or true would collide with trial 1; null would read a file "None"
        path = dataset_dir / "manifest.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["filter", "--manifest", str(path), "--out", str(tmp_path / "x")]) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestTrainEval:
    def test_task_experiment_roundtrip(self, dataset_dir, tmp_path):
        ckpt = tmp_path / "ckpt"
        code = main(["train-experiment", "--manifest", str(dataset_dir / "manifest.json"),
                     "--kind", "task", "--seed", "3", "--out", str(ckpt)] + TINY_FLAGS)
        assert code == 0
        files = sorted(p.name for p in ckpt.iterdir())
        assert files == ["task_user-u01.ckpt", "task_user-u02.ckpt"]
        raw = (ckpt / "task_user-u01.ckpt").read_bytes()
        hist = json.loads(raw[:raw.find(b"\n")])["meta"]["history"]
        assert [len(hist[k]) for k in ("train_loss", "train_acc", "lr")] == [2, 2, 2]

        reports = tmp_path / "reports"
        code = main(["eval-experiment", "--checkpoints", str(ckpt),
                     "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(reports)])
        assert code == 0
        agg = json.loads((reports / "aggregate.json").read_text())
        assert agg["kind"] == "task"
        assert len(agg["models"]) == 2
        assert (reports / "task_user-u01.svg").exists()

    def test_user_id_experiment_model_count(self, dataset_dir, tmp_path):
        ckpt = tmp_path / "uid"
        code = main(["train-experiment", "--manifest", str(dataset_dir / "manifest.json"),
                     "--kind", "user-id", "--seed", "3", "--out", str(ckpt)] + TINY_FLAGS)
        assert code == 0
        assert sorted(p.name for p in ckpt.glob("*.ckpt")) == \
            ["user-id_task-a.ckpt", "user-id_task-b.ckpt"]

    def test_filtered_manifest_trains_filtered_models(self, dataset_dir, tmp_path):
        filtered, out = tmp_path / "filtered", tmp_path / "ck"
        assert main(["filter", "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(filtered)]) == 0
        assert main(["train-experiment", "--manifest", str(filtered / "manifest.json"),
                     "--kind", "user-id", "--out", str(out)] + TINY_FLAGS) == 0
        paths = sorted(out.glob("*.ckpt"))
        assert [p.name for p in paths] == ["user-id_task-a.ckpt", "user-id_task-b.ckpt"]
        assert all(load_checkpoint(p)[1]["variant"] == "filtered" for p in paths)

    @pytest.mark.parametrize("command, out", [("train-experiment", "ck"), ("sweep", "c.csv")])
    def test_variant_flag_is_gone(self, command, out, dataset_dir, tmp_path):
        # a manifest holds one variant, so there is none to select
        kind = ["--kind", "task"] if command == "train-experiment" else []
        with pytest.raises(SystemExit) as exc:
            main([command, "--manifest", str(dataset_dir / "manifest.json"), *kind,
                  "--variant", "raw", "--out", str(tmp_path / out)] + TINY_FLAGS)
        assert exc.value.code == 2
        assert not (tmp_path / out).exists()

    def test_same_seed_identical_checkpoints(self, dataset_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["train-experiment", "--manifest", str(dataset_dir / "manifest.json"),
                "--kind", "task", "--seed", "9"] + TINY_FLAGS
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert read_tree(a) == read_tree(b)

    def test_empty_checkpoint_directory_exits_3(self, dataset_dir, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        capsys.readouterr()
        assert main(["eval-experiment", "--checkpoints", str(ckpt),
                     "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 3
        assert f"no checkpoints in {ckpt}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_eval_reports_match_in_process_run(self, dataset_dir, tmp_path):
        # the checkpoint -> rebuilt-split -> evaluate path must agree with
        # evaluating the trained models directly
        ckpt, reports = tmp_path / "ck", tmp_path / "rep"
        assert main(["train-experiment", "--manifest", str(dataset_dir / "manifest.json"),
                     "--kind", "task", "--seed", "3", "--out", str(ckpt)] + TINY_FLAGS) == 0
        assert main(["eval-experiment", "--checkpoints", str(ckpt),
                     "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(reports)]) == 0
        agg = json.loads((reports / "aggregate.json").read_text())

        from hapticauth import (ModelConfig, TrainConfig, evaluate_experiment,
                                plan_experiment, run_jobs)
        manifest = DatasetManifest.load(dataset_dir / "manifest.json")
        ds = load_dataset(manifest, dataset_dir).subset(variant="raw")
        cfg = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=16, seed=3,
                          train_per_class=3, test_per_class=1)
        tiny = ModelConfig(d_model=16, num_heads=2, ffn_dim=16, num_layers=2, seq_len=16)
        exp = evaluate_experiment(run_jobs(plan_experiment(ds, "task", cfg, tiny)))
        assert agg["mean_accuracy"] == pytest.approx(exp.mean_accuracy)
        by_id = {r["model"]: r for r in agg["models"]}
        for report in exp.reports:
            assert by_id[report.model_id]["matrix"] == report.matrix.tolist()

    def test_eval_rejects_split_drift(self, tmp_path, capsys):
        # trained on 6 trials per (user, task), evaluated against the 8-trial
        # corpus of the same seed: re-deriving the split there would score
        # training trials (u01,a,5), (u01,b,5) and (u01,b,1) as test
        d6, d8, ckpt = tmp_path / "d6", tmp_path / "d8", tmp_path / "ck"
        for out, trials in ((d6, "6"), (d8, "8")):
            assert main(["synth", "--out", str(out), "--users", "2", "--tasks", "2",
                         "--seed", "1", "--trials", trials]) == 0
        assert main(["train-experiment", "--manifest", str(d6 / "manifest.json"),
                     "--kind", "task", "--out", str(ckpt), "--train-per-class", "4",
                     "--test-per-class", "2", "--epochs", "1", "--d-model", "16",
                     "--heads", "2", "--ffn-dim", "16", "--seq-len", "16"]) == 0
        evaluate = ["eval-experiment", "--checkpoints", str(ckpt), "--force"]
        assert main(evaluate + ["--manifest", str(d6 / "manifest.json"),
                                "--out", str(tmp_path / "r6")]) == 0
        capsys.readouterr()
        assert main(evaluate + ["--manifest", str(d8 / "manifest.json"),
                                "--out", str(tmp_path / "r8")]) == 3
        assert "model task_user-u01" in capsys.readouterr().err

        # a checkpoint without the digest cannot be verified either
        path = ckpt / "task_user-u01.ckpt"
        raw = path.read_bytes()
        nl = raw.find(b"\n")
        header = json.loads(raw[:nl])
        del header["meta"]["split_digest"]
        path.write_bytes(json.dumps(header).encode() + raw[nl:])
        assert main(evaluate + ["--manifest", str(d6 / "manifest.json"),
                                "--out", str(tmp_path / "r6")]) == 3
        assert "model task_user-u01" in capsys.readouterr().err

    def test_eval_rejects_another_corpus_under_the_same_keys(self, tmp_path, capsys):
        # seeds 0 and 1 at the same sizes list the same keys, so their
        # manifests are the same bytes; only the traces' bytes tell them apart
        d0, d1, ckpt = tmp_path / "d0", tmp_path / "d1", tmp_path / "ck"
        for out, seed in ((d0, 0), (d1, 1)):
            assert main(synth_args(out, trials=6, seed=seed)) == 0
        assert (d0 / "manifest.json").read_bytes() == (d1 / "manifest.json").read_bytes()
        assert main(["train-experiment", "--manifest", str(d0 / "manifest.json"),
                     "--kind", "task", "--out", str(ckpt)] + TINY_FLAGS) == 0
        evaluate = ["eval-experiment", "--checkpoints", str(ckpt), "--force"]
        assert main(evaluate + ["--manifest", str(d0 / "manifest.json"),
                                "--out", str(tmp_path / "r0")]) == 0
        capsys.readouterr()
        assert main(evaluate + ["--manifest", str(d1 / "manifest.json"),
                                "--out", str(tmp_path / "r1")]) == 3
        assert "task_user-u01.ckpt" in capsys.readouterr().err

    def test_eval_rejects_checkpoint_without_job_fields(self, dataset_dir, tmp_path, capsys):
        ckpt = tmp_path / "ck"
        ckpt.mkdir()
        cfg = ModelConfig(d_model=16, num_heads=2, ffn_dim=16, num_classes=2, seq_len=16)
        save_checkpoint(ckpt / "bare.ckpt", build_model(cfg, seed=0), meta={"kind": "user-id"})
        assert main(["eval-experiment", "--checkpoints", str(ckpt),
                     "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert "bare.ckpt" in err and "'group'" in err and "'train_cfg'" in err

    def test_load_trained_rebuilds_the_whole_train_cfg(self, dataset_dir, tmp_path):
        from hapticauth import TrainConfig, load_trained, plan_experiment, run_jobs, save_trained
        ds = load_dataset(DatasetManifest.load(dataset_dir / "manifest.json"), dataset_dir)
        cfg = TrainConfig(learning_rate=3e-3, epochs=1, batch_size=5, seed=6,
                          normalize=False, train_per_class=3, test_per_class=1)
        tiny = ModelConfig(d_model=16, num_heads=2, ffn_dim=16, num_layers=1, seq_len=16)
        for tm in run_jobs(plan_experiment(ds, "task", cfg, tiny)):
            rebuilt = load_trained(ds, save_trained(tm, tmp_path))
            assert rebuilt.job.train_cfg == tm.job.train_cfg
            assert rebuilt.stats is None

    @pytest.mark.parametrize("edit", [
        lambda meta: meta.update(kind="bogus"),
        lambda meta: meta.update(class_labels=5),
        lambda meta: meta.update(class_labels=["u01"]),
        lambda meta: meta.update(group=["u02"]),
        lambda meta: meta.update(group="u09"),
        lambda meta: meta.update(variant="bogus"),
        lambda meta: meta.pop("history"),
        lambda meta: meta.update(history=[0.5, 0.25]),
        lambda meta: meta["history"].update(lr="1e-3"),
        lambda meta: meta["history"].update(train_acc=[0.5]),
        lambda meta: meta["history"].update(epoch=[0, 1]),
    ], ids=["bogus-kind", "int-class-labels", "too-few-class-labels", "list-group",
            "unknown-group", "bogus-variant",
            "no-history", "list-history", "str-history-column", "short-history-column",
            "unknown-history-column"])
    def test_eval_rejects_ill_typed_job_meta(self, edit, dataset_dir, tmp_path, capsys):
        ckpt = tmp_path / "ck"
        assert main(["train-experiment", "--manifest", str(dataset_dir / "manifest.json"),
                     "--kind", "task", "--out", str(ckpt)] + TINY_FLAGS) == 0
        edit_header(ckpt / "task_user-u02.ckpt", lambda header: edit(header["meta"]))
        capsys.readouterr()
        assert main(["eval-experiment", "--checkpoints", str(ckpt),
                     "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 3
        assert "task_user-u02.ckpt" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda meta: meta.pop("train_cfg"),
        lambda meta: meta["train_cfg"].update(dropout=0.0),
        lambda meta: meta["train_cfg"].pop("epochs"),
        lambda meta: meta["train_cfg"].update(seed="3"),
        lambda meta: meta["train_cfg"].update(learning_rate="fast"),
        lambda meta: meta["train_cfg"].update(normalize="no"),
        lambda meta: meta.update(train_cfg=[0.001, 2]),
    ], ids=["missing", "unknown-field", "missing-field", "str-seed", "str-lr", "str-normalize",
            "not-an-object"])
    def test_eval_rejects_bad_train_cfg(self, edit, dataset_dir, tmp_path, capsys):
        ckpt = tmp_path / "ck"
        assert main(["train-experiment", "--manifest", str(dataset_dir / "manifest.json"),
                     "--kind", "task", "--out", str(ckpt)] + TINY_FLAGS) == 0
        edit_header(ckpt / "task_user-u02.ckpt", lambda header: edit(header["meta"]))
        capsys.readouterr()
        assert main(["eval-experiment", "--checkpoints", str(ckpt),
                     "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert "task_user-u02.ckpt" in err and "train_cfg" in err

    def test_eval_rejects_version_2_checkpoint(self, dataset_dir, tmp_path, capsys):
        # a version 2 header carries dropout and the hand-copied train fields
        def to_version_2(header):
            header["format_version"] = 2
            header["config"]["dropout"] = 0.0
            header["meta"].update(header["meta"].pop("train_cfg"))

        ckpt = tmp_path / "ck"
        assert main(["train-experiment", "--manifest", str(dataset_dir / "manifest.json"),
                     "--kind", "task", "--out", str(ckpt)] + TINY_FLAGS) == 0
        edit_header(ckpt / "task_user-u01.ckpt", to_version_2)
        capsys.readouterr()
        assert main(["eval-experiment", "--checkpoints", str(ckpt),
                     "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 3
        assert "unsupported checkpoint version 2" in capsys.readouterr().err

    def test_eval_rejects_version_3_checkpoint(self, dataset_dir, tmp_path, capsys):
        # a version 3 header lists every tensor and keeps model_id in its meta
        def to_version_3(header):
            header["format_version"] = 3
            header["tensors"] = header.pop("extras")
            header["meta"]["model_id"] = "task_user-u01"

        ckpt = tmp_path / "ck"
        assert main(["train-experiment", "--manifest", str(dataset_dir / "manifest.json"),
                     "--kind", "task", "--out", str(ckpt)] + TINY_FLAGS) == 0
        edit_header(ckpt / "task_user-u01.ckpt", to_version_3)
        capsys.readouterr()
        assert main(["eval-experiment", "--checkpoints", str(ckpt),
                     "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 3
        assert "unsupported checkpoint version 3" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [
        lambda raw, nl: raw + b"\0",
        lambda raw, nl: raw[:-1],
        lambda raw, nl: raw[:nl].replace(b'"d_model": 16', b'"d_model": 32') + raw[nl:],
    ], ids=["one-byte-more", "one-byte-fewer", "config-lies-about-d_model"])
    def test_eval_rejects_checkpoint_of_wrong_size(self, corrupt, dataset_dir, tmp_path, capsys):
        ckpt = tmp_path / "ck"
        assert main(["train-experiment", "--manifest", str(dataset_dir / "manifest.json"),
                     "--kind", "task", "--out", str(ckpt)] + TINY_FLAGS) == 0
        path = ckpt / "task_user-u01.ckpt"
        edit_header(path, lambda header: None)  # spaced JSON, as the lie above expects
        raw = path.read_bytes()
        path.write_bytes(corrupt(raw, raw.find(b"\n")))
        capsys.readouterr()
        assert main(["eval-experiment", "--checkpoints", str(ckpt),
                     "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 3
        assert "task_user-u01.ckpt holds" in capsys.readouterr().err

    @pytest.mark.parametrize("extras", [
        [["norm.mean", [13]], ["norm.mean", [13]]],
        [["norm.mean", [13]], ["norm.std", [-1, -13]]],
    ], ids=["repeated-name", "negative-dimension"])
    def test_eval_rejects_bad_extras(self, extras, dataset_dir, tmp_path, capsys):
        ckpt = tmp_path / "ck"
        assert main(["train-experiment", "--manifest", str(dataset_dir / "manifest.json"),
                     "--kind", "task", "--out", str(ckpt)] + TINY_FLAGS) == 0
        edit_header(ckpt / "task_user-u01.ckpt", lambda header: header.update(extras=extras))
        capsys.readouterr()
        assert main(["eval-experiment", "--checkpoints", str(ckpt),
                     "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 3
        assert "task_user-u01.ckpt" in capsys.readouterr().err

    def test_eval_rejects_version_1_checkpoint(self, dataset_dir, tmp_path, capsys):
        # a version 1 header carries input_channels and stores pos.table
        ckpt = tmp_path / "ck"
        assert main(["train-experiment", "--manifest", str(dataset_dir / "manifest.json"),
                     "--kind", "task", "--out", str(ckpt)] + TINY_FLAGS) == 0
        path = ckpt / "task_user-u01.ckpt"
        raw = path.read_bytes()
        nl = raw.find(b"\n")
        header = json.loads(raw[:nl])
        header["format_version"] = 1
        header["config"]["input_channels"] = 13
        path.write_bytes(json.dumps(header).encode() + raw[nl:])
        assert main(["eval-experiment", "--checkpoints", str(ckpt),
                     "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 3
        assert "unsupported checkpoint version 1" in capsys.readouterr().err

    def test_force_retrain_drops_earlier_runs_checkpoints(self, tmp_path):
        # a 3-user run, then a 2-user run forced into the same directory:
        # evaluation must see only the second run's two models (a left-over
        # u03 model has no group in the 2-user corpus, which exits 3)
        d3, d2, ckpt, reports = (tmp_path / n for n in ("d3", "d2", "ck", "rep"))
        assert main(synth_args(d3, users=3)) == 0
        assert main(synth_args(d2, users=2)) == 0
        train = ["train-experiment", "--kind", "task", "--out", str(ckpt)] + TINY_FLAGS
        assert main(train + ["--manifest", str(d3 / "manifest.json")]) == 0
        assert main(train + ["--manifest", str(d2 / "manifest.json"), "--force"]) == 0
        assert sorted(p.name for p in ckpt.iterdir()) == ["task_user-u01.ckpt",
                                                          "task_user-u02.ckpt"]
        assert main(["eval-experiment", "--checkpoints", str(ckpt),
                     "--manifest", str(d2 / "manifest.json"), "--out", str(reports)]) == 0
        agg = json.loads((reports / "aggregate.json").read_text())
        assert [m["model"] for m in agg["models"]] == ["task_user-u01", "task_user-u02"]

    def test_force_reeval_drops_earlier_reports(self, tmp_path):
        # a 3-model evaluation, then a 2-model one forced into the same
        # directory: only the second one's report files may remain
        data, ckpt, reports = (tmp_path / n for n in ("d3", "ck", "rep"))
        assert main(synth_args(data, users=3)) == 0
        assert main(["train-experiment", "--kind", "task", "--out", str(ckpt),
                     "--manifest", str(data / "manifest.json")] + TINY_FLAGS) == 0
        evaluate = ["eval-experiment", "--checkpoints", str(ckpt),
                    "--manifest", str(data / "manifest.json"), "--out", str(reports)]
        assert main(evaluate) == 0
        assert (reports / "task_user-u03.svg").exists()
        (ckpt / "task_user-u03.ckpt").unlink()
        assert main(evaluate + ["--force"]) == 0
        assert sorted(p.name for p in reports.iterdir()) == [
            "aggregate.csv", "aggregate.json",
            "task_user-u01.csv", "task_user-u01.json", "task_user-u01.svg",
            "task_user-u02.csv", "task_user-u02.json", "task_user-u02.svg"]
        agg = json.loads((reports / "aggregate.json").read_text())
        assert [m["model"] for m in agg["models"]] == ["task_user-u01", "task_user-u02"]

    def test_insufficient_data_exit_3(self, dataset_dir, tmp_path):
        code = main(["train-experiment", "--manifest", str(dataset_dir / "manifest.json"),
                     "--kind", "task", "--out", str(tmp_path / "x"),
                     "--train-per-class", "100", "--test-per-class", "20",
                     "--epochs", "1", "--d-model", "16", "--heads", "2",
                     "--ffn-dim", "16", "--seq-len", "16"])
        assert code == 3


class TestSweep:
    def test_two_sizes(self, dataset_dir, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["sweep", "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(out), "--sizes", "2,3", "--users", "u01"] + TINY_FLAGS)
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("size,accuracy")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "2"
        assert lines[2].split(",")[0] == "3"

    def test_failed_write_keeps_earlier_curve(self, dataset_dir, tmp_path, monkeypatch):
        out = tmp_path / "curve.csv"
        out.write_bytes(b"earlier")
        move = os.replace

        def fail_on_curve(src, dst):
            if Path(dst) == out:
                raise OSError("disk full")
            move(src, dst)

        monkeypatch.setattr(os, "replace", fail_on_curve)
        with pytest.raises(OSError, match="disk full"):
            main(["sweep", "--manifest", str(dataset_dir / "manifest.json"), "--out", str(out),
                  "--force", "--sizes", "2", "--users", "u01"] + TINY_FLAGS)
        assert out.read_bytes() == b"earlier"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["curve.csv", "data"]

    def test_failed_sweep_keeps_finished_rows(self, dataset_dir, tmp_path, monkeypatch, capsys):
        # the curve is rewritten after each point, so a job of the second size
        # that fails leaves the header and the first size's row
        run = ["sweep", "--manifest", str(dataset_dir / "manifest.json"),
               "--sizes", "2,3", "--users", "u01"] + TINY_FLAGS
        assert main(run + ["--out", str(tmp_path / "full.csv")]) == 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        train, calls = trainer.train, []

        def second_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise DataError("injected")
            return train(*args)

        monkeypatch.setattr(trainer, "train", second_fails)
        capsys.readouterr()
        assert main(run + ["--out", str(tmp_path / "c.csv")]) == 3
        assert "model sweep-u01-3: injected" in capsys.readouterr().err
        full = (tmp_path / "full.csv").read_text().splitlines(keepends=True)
        assert (tmp_path / "c.csv").read_text() == "".join(full[:2])
        assert full[1].startswith("2,")

    def test_bad_sizes_flag(self, dataset_dir, tmp_path):
        assert main(["sweep", "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(tmp_path / "c.csv"), "--sizes", "2,x"] + TINY_FLAGS) == 2

    def test_repeated_size_is_usage_error(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["sweep", "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(out), "--sizes", "2,2", "--users", "u01"] + TINY_FLAGS) == 2
        assert "sizes repeat" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_user_entries_dropped(self, dataset_dir, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["sweep", "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(out), "--sizes", "2", "--users", "u01,"] + TINY_FLAGS) == 0
        assert out.read_text().split("\n")[0] == "size,accuracy,u01"

    def test_no_user_is_usage_error(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["sweep", "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(out), "--sizes", "2", "--users", ","] + TINY_FLAGS) == 2
        assert "sweep needs at least one user" in capsys.readouterr().err
        assert not out.exists()


class TestWorkers:
    def test_one_worker_per_usable_core(self, dataset_dir, tmp_path, monkeypatch):
        # each command is one run_jobs call; the sweep's queues every point, size by size
        seen = []

        def spy(jobs, workers=1):
            seen.append((workers, [job.model_id for job in jobs]))
            return trainer.run_jobs(jobs)

        monkeypatch.setattr(cli, "run_jobs", spy)
        manifest = str(dataset_dir / "manifest.json")
        assert main(["train-experiment", "--manifest", manifest, "--kind", "task",
                     "--out", str(tmp_path / "ckpt")] + TINY_FLAGS) == 0
        assert main(["sweep", "--manifest", manifest, "--out", str(tmp_path / "c.csv"),
                     "--sizes", "2,3"] + TINY_FLAGS) == 0
        cores = len(os.sched_getaffinity(0))
        assert seen == [(cores, ["task_user-u01", "task_user-u02"]),
                        (cores, ["sweep-u01-2", "sweep-u02-2", "sweep-u01-3", "sweep-u02-3"])]

    def test_sweep_frees_each_point_before_the_next(self, dataset_dir, tmp_path, monkeypatch):
        # on one core the models train in this process, where a weak reference
        # shows whether an earlier point's weights are still held
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        evaluate, points, alive = cli.evaluate_experiment, [], []

        def spy(models):
            alive.append(sum(ref() is not None for refs in points for ref in refs))
            models = list(models)
            points.append([weakref.ref(t.data) for tm in models for _, t in tm.params.items()])
            return evaluate(models)

        monkeypatch.setattr(cli, "evaluate_experiment", spy)
        assert main(["sweep", "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(tmp_path / "c.csv"), "--sizes", "1,2,3"] + TINY_FLAGS) == 0
        assert len(points) == 3 and all(points)
        assert alive == [0, 0, 0]

    def test_failed_job_leaves_the_checkpoints_before_it(self, dataset_dir, tmp_path,
                                                         monkeypatch, capsys):
        # a forced run drops the earlier run's checkpoints, saves each model as
        # it arrives and stops at the first job that fails
        out = tmp_path / "ckpt"
        run = ["train-experiment", "--manifest", str(dataset_dir / "manifest.json"),
               "--kind", "task", "--out", str(out)] + TINY_FLAGS
        assert main(run) == 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        train, calls = trainer.train, []

        def second_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise DataError("injected")
            return train(*args)

        monkeypatch.setattr(trainer, "train", second_fails)
        capsys.readouterr()
        assert main(run + ["--force", "--seed", "9"]) == 3
        assert [p.name for p in out.iterdir()] == ["task_user-u01.ckpt"]
        assert load_checkpoint(out / "task_user-u01.ckpt")[1]["train_cfg"]["seed"] == 9
        captured = capsys.readouterr()
        assert captured.out.startswith("task_user-u01: ")
        assert "model task_user-u02: injected" in captured.err

    def test_workers_flag_is_gone(self, dataset_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train-experiment", "--manifest", str(dataset_dir / "manifest.json"),
                  "--kind", "task", "--out", str(tmp_path / "ckpt"), "--workers", "2"]
                 + TINY_FLAGS)
        assert exc.value.code == 2

    def test_one_core_writes_the_same_checkpoints(self, dataset_dir, tmp_path, monkeypatch):
        def digests(out):
            assert main(["train-experiment", "--manifest", str(dataset_dir / "manifest.json"),
                         "--kind", "task", "--seed", "4", "--out", str(out)] + TINY_FLAGS) == 0
            return {name: hashlib.sha256(raw).hexdigest() for name, raw in read_tree(out).items()}

        every_core = digests(tmp_path / "all")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert digests(tmp_path / "one") == every_core
        assert len(every_core) == 2


def _mixed_manifest(data, tmp):
    """A library-saved manifest of the raw traces and their filtered twins."""
    raw = load_dataset(DatasetManifest.load(data / "manifest.json"), data)
    save_dataset(TraceDataset([*raw, *(filter_trace(tr, 0.001) for tr in raw)]), tmp / "mixed")
    return str(tmp / "mixed" / "manifest.json")


def _train_mixed_variants(data, tmp):
    return ["train-experiment", "--manifest", _mixed_manifest(data, tmp), "--kind", "task",
            "--out", str(tmp / "ck")] + TINY_FLAGS


def _sweep_mixed_variants(data, tmp):
    return ["sweep", "--manifest", _mixed_manifest(data, tmp), "--out", str(tmp / "c.csv"),
            "--sizes", "2", "--users", "u01"] + TINY_FLAGS


def _missing_checkpoint_dir(data, tmp):
    return ["eval-experiment", "--checkpoints", str(tmp / "none"),
            "--manifest", str(data / "manifest.json"), "--out", str(tmp / "rep")]


def _sweep_onto_existing_file(data, tmp):
    (tmp / "curve.csv").write_text("earlier\n")
    return ["sweep", "--manifest", str(data / "manifest.json"), "--out", str(tmp / "curve.csv"),
            "--sizes", "2", "--users", "u01"] + TINY_FLAGS


def _sweep_size_zero(data, tmp):
    return ["sweep", "--manifest", str(data / "manifest.json"), "--out", str(tmp / "c.csv"),
            "--sizes", "0,2", "--users", "u01"] + TINY_FLAGS


def _filter_manifest_not_json(data, tmp):
    (data / "manifest.json").write_text("{not json")
    return ["filter", "--manifest", str(data / "manifest.json"), "--out", str(tmp / "f")]


def _filter_smoothed_entry(data, tmp):
    path = data / "manifest.json"
    doc = json.loads(path.read_text())
    doc["entries"][0]["variant"] = "smoothed"
    path.write_text(json.dumps(doc))
    return ["filter", "--manifest", str(path), "--out", str(tmp / "f")]


def _filter_filtered_manifest(data, tmp):
    assert main(["filter", "--manifest", str(data / "manifest.json"),
                 "--out", str(tmp / "filtered")]) == 0
    return ["filter", "--manifest", str(tmp / "filtered" / "manifest.json"), "--out", str(tmp / "f")]


def _filter_label_leaving_out(data, tmp):
    # the relabelled u01 traces would be written two levels above --out
    path = data / "manifest.json"
    doc = json.loads(path.read_text())
    for entry in doc["entries"]:
        if entry["user"] == "u01":
            entry["user"] = "../../pwned/u01"
    path.write_text(json.dumps(doc))
    return ["filter", "--manifest", str(path), "--out", str(tmp / "out" / "filtered")]


def _eval_over_unreadable_aggregate(data, tmp):
    manifest, ckpt, reports = str(data / "manifest.json"), tmp / "ck", tmp / "rep"
    assert main(["train-experiment", "--manifest", manifest, "--kind", "task",
                 "--out", str(ckpt)] + TINY_FLAGS) == 0
    reports.mkdir()
    (reports / "aggregate.json").write_text("{not json")
    (reports / "task_user-u01.json").write_text("{}")
    return ["eval-experiment", "--checkpoints", str(ckpt), "--manifest", manifest,
            "--out", str(reports), "--force"]


class TestErrorExits:
    @pytest.mark.parametrize("setup, code, message", [
        pytest.param(_train_mixed_variants, 3, "mixes variants ['filtered', 'raw']",
                     id="train-mixed-variants"),
        pytest.param(_sweep_mixed_variants, 3, "mixes variants ['filtered', 'raw']",
                     id="sweep-mixed-variants"),
        pytest.param(_missing_checkpoint_dir, 3, "checkpoint directory not found",
                     id="eval-missing-checkpoints"),
        pytest.param(_sweep_onto_existing_file, 2, "exists (use --force to overwrite)",
                     id="sweep-existing-out"),
        pytest.param(lambda data, tmp: synth_args(tmp / "s", tasks=27), 2,
                     "--tasks must be in [1, 26]", id="synth-27-tasks"),
        pytest.param(_sweep_size_zero, 2, "sweep sizes must be >= 1", id="sweep-size-0"),
        pytest.param(_filter_manifest_not_json, 3, "manifest is not valid JSON",
                     id="filter-manifest-not-json"),
        pytest.param(_filter_smoothed_entry, 3, "bad variant 'smoothed'",
                     id="filter-smoothed-entry"),
        pytest.param(_filter_filtered_manifest, 3,
                     "filter reads a raw manifest; this one holds ['filtered'] traces",
                     id="filter-filtered-manifest"),
        pytest.param(_filter_label_leaving_out, 3, "label '../../pwned/u01' cannot name a file",
                     id="filter-label-leaving-out"),
        pytest.param(_eval_over_unreadable_aggregate, 3, "cannot tell which reports",
                     id="eval-unreadable-aggregate"),
    ])
    def test_exit_code_and_message(self, setup, code, message, dataset_dir, tmp_path, capsys):
        # an error exit names its cause and leaves every file as it was
        argv = setup(dataset_dir, tmp_path)
        before = read_tree(tmp_path), sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(argv) == code
        assert message in capsys.readouterr().err
        assert (read_tree(tmp_path), sorted(tmp_path.rglob("*"))) == before


class TestOutputPaths:
    def test_wrong_kind_of_output_path_is_usage_error(self, dataset_dir, tmp_path, monkeypatch):
        manifest = str(dataset_dir / "manifest.json")
        ckpt = tmp_path / "ckpt"
        assert main(["train-experiment", "--manifest", manifest, "--kind", "task",
                     "--out", str(ckpt)] + TINY_FLAGS) == 0
        a_file = tmp_path / "a_file"
        a_file.write_bytes(b"keep")

        from hapticauth import trainer

        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the output path")

        monkeypatch.setattr(trainer, "train", no_training)
        to_file = ["--out", str(a_file), "--force"]
        assert main(synth_args(a_file) + ["--force"]) == 2
        assert main(["filter", "--manifest", manifest] + to_file) == 2
        assert main(["train-experiment", "--manifest", manifest, "--kind", "task"]
                    + to_file + TINY_FLAGS) == 2
        assert main(["eval-experiment", "--checkpoints", str(ckpt), "--manifest", manifest]
                    + to_file) == 2
        assert main(["sweep", "--manifest", manifest, "--out", str(ckpt), "--force",
                     "--sizes", "2", "--users", "u01"] + TINY_FLAGS) == 2
        assert a_file.read_bytes() == b"keep"


    @pytest.mark.parametrize("command", ["synth", "sweep"])
    def test_output_beneath_a_file_is_usage_error(self, command, dataset_dir, tmp_path, capsys):
        a_file = tmp_path / "a_file"
        a_file.write_bytes(b"keep")
        argv = {"synth": synth_args(a_file / "sub"),
                "sweep": ["sweep", "--manifest", str(dataset_dir / "manifest.json"),
                          "--out", str(a_file / "sub" / "curve.json"),
                          "--sizes", "2", "--users", "u01"] + TINY_FLAGS}[command]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert a_file.read_bytes() == b"keep"


class TestGradcheckCommand:
    def test_small_model_passes(self):
        assert main(["gradcheck", "--d-model", "32", "--heads", "4", "--ffn-dim", "32",
                     "--seq-len", "6", "--samples", "60"]) == 0

    def test_injected_fault_fails(self):
        assert main(["gradcheck", "--d-model", "32", "--heads", "4", "--ffn-dim", "32",
                     "--seq-len", "6", "--samples", "60", "--inject-fault"]) == 1

    @pytest.mark.parametrize("flags", [["--samples", "0"], ["--samples", "-1"]])
    def test_out_of_range_flag_is_a_config_error(self, capsys, flags):
        assert main(["gradcheck", "--d-model", "16", "--heads", "2", "--ffn-dim", "16",
                     "--seq-len", "6", *flags]) == 2
        assert flags[0] in capsys.readouterr().err


class TestDefaults:
    @pytest.mark.parametrize("seq_len, noted", [("100", True), ("64", False), ("512", False)])
    def test_non_paper_seq_len_note(self, capsys, seq_len, noted):
        from hapticauth.cli import _model_template, build_parser
        args = build_parser().parse_args(["train-experiment", "--manifest", "m", "--kind", "task",
                                          "--out", "o", "--seq-len", seq_len])
        assert _model_template(args, "task").seq_len == int(seq_len)
        err = capsys.readouterr().err
        assert err == (f"note: seq_len={seq_len} is non-standard (paper runs use 64 or 512)\n"
                       if noted else "")

    def test_env_var_supplies_output_root(self, tmp_path, monkeypatch):
        out = tmp_path / "from_env"
        monkeypatch.setenv("HAPTICAUTH_OUT", str(out))
        assert main(["synth", "--users", "2", "--tasks", "1", "--trials", "1",
                     "--seed", "1", "--duration-min", "0.05", "--duration-max", "0.06"]) == 0
        assert (out / "manifest.json").exists()

    def test_experiment_seq_len_defaults(self):
        # bare invocations reproduce the reference lengths: 512 user-id, 64 task
        from hapticauth.cli import _model_template, build_parser
        parser = build_parser()
        args = parser.parse_args(["train-experiment", "--manifest", "m", "--kind",
                                  "user-id", "--out", "o"])
        assert _model_template(args, "user-id").seq_len == 512
        args = parser.parse_args(["train-experiment", "--manifest", "m", "--kind",
                                  "task", "--out", "o"])
        assert _model_template(args, "task").seq_len == 64
        assert args.epochs == 100 and args.lr == 1e-4 and args.batch_size == 16
        assert args.d_model == 256 and args.heads == 16 and args.ffn_dim == 256
        assert args.train_per_class == 100 and args.test_per_class == 20
