"""Inference and scoring: confusion matrices, accuracy, per-class precision,
and experiment-level report files (JSON, CSV, SVG heatmap)."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .dataset import atomic_write_text
from .errors import DataError, ShapeError
from .features import FeatureSequence
from .model import ModelParams, forward

if TYPE_CHECKING:
    from .trainer import TrainedModel

PREDICT_BATCH = 64  # sequences per inference forward
SVG_CELL = 48  # heatmap cell side, px


def predict_batch(params: ModelParams, seqs: Sequence[FeatureSequence]) -> np.ndarray:
    """Predicted class indices for a list of sequences, in input order; ties
    go to the lowest class index.  Inference records no autodiff graph."""
    preds = np.empty(len(seqs), dtype=np.int64)
    params = params.detached()
    for start in range(0, len(seqs), PREDICT_BATCH):
        chunk = seqs[start:start + PREDICT_BATCH]
        x = np.stack([fs.values for fs in chunk])
        logits = forward(params, x).data
        preds[start:start + len(chunk)] = logits.argmax(axis=1)
    return preds


def confusion_matrix(preds: Sequence[int], labels: Sequence[int], num_classes: int) -> np.ndarray:
    """K x K count matrix with rows = true class, columns = predicted class."""
    p = np.asarray(preds, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    if p.shape != y.shape or p.ndim != 1:
        raise ShapeError(f"predictions {p.shape} and labels {y.shape} must be equal-length vectors")
    if p.size and (p.min() < 0 or p.max() >= num_classes or y.min() < 0 or y.max() >= num_classes):
        raise DataError(f"class values outside [0, {num_classes})")
    mat = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(mat, (y, p), 1)
    return mat


def metrics(mat: np.ndarray) -> tuple[float, np.ndarray]:
    """(accuracy, per-class precision); a never-predicted class scores 0."""
    m = np.asarray(mat)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"confusion matrix must be square, got {m.shape}")
    if (m < 0).any():
        raise DataError("confusion matrix has negative entries")
    total = int(m.sum())
    if total == 0:
        raise DataError("confusion matrix is empty")
    accuracy = float(np.trace(m)) / total
    col_sums = m.sum(axis=0)
    precision = np.divide(
        np.diag(m).astype(np.float64), col_sums,
        out=np.zeros(m.shape[0], dtype=np.float64), where=col_sums > 0,
    )
    return accuracy, precision


@dataclass
class EvalReport:
    model_id: str
    class_labels: list[str]
    matrix: np.ndarray          # K x K, rows = true class
    accuracy: float
    precision: np.ndarray       # (K,)
    config_digest: str = ""

    def to_dict(self) -> dict:
        return {
            "model": self.model_id,
            "config_digest": self.config_digest,
            "labels": list(self.class_labels),
            "matrix": self.matrix.tolist(),
            "accuracy": self.accuracy,
            "precision": [float(p) for p in self.precision],
        }


def config_digest(params: ModelParams) -> str:
    doc = json.dumps(params.config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:12]


def evaluate_model(params: ModelParams, test_set: Sequence[FeatureSequence],
                   class_labels: Sequence[str], model_id: str = "model") -> EvalReport:
    if not test_set:
        raise DataError("empty test set")
    if len(class_labels) != params.config.num_classes:
        raise DataError(
            f"{len(class_labels)} class labels for a {params.config.num_classes}-way model"
        )
    preds = predict_batch(params, list(test_set))
    labels = [fs.label for fs in test_set]
    mat = confusion_matrix(preds, labels, params.config.num_classes)
    accuracy, precision = metrics(mat)
    return EvalReport(
        model_id=model_id,
        class_labels=list(class_labels),
        matrix=mat,
        accuracy=accuracy,
        precision=precision,
        config_digest=config_digest(params),
    )


@dataclass
class ExperimentReport:
    kind: str                       # "user-id" | "task"
    reports: list[EvalReport]
    mean_accuracy: float
    per_user: dict[str, float]      # user-id: mean precision across task models
                                    # task: per-user accuracy

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "mean_accuracy": self.mean_accuracy,
            "per_user": self.per_user,
            "models": [r.to_dict() for r in self.reports],
        }


def evaluate_experiment(models: Iterable["TrainedModel"]) -> ExperimentReport:
    """Score every model on its job's test split, featurized with the model's
    own normalization stats, and aggregate across models.

    For the user-identification experiment the aggregate is each user's
    precision averaged over the per-task models; for the task experiment it
    is each user's accuracy on their own model.
    """
    models = list(models)
    if not models:
        raise DataError("no models to evaluate")
    jobs = [m.job for m in models]
    kinds = {job.kind for job in jobs}
    if len(kinds) != 1:
        raise DataError(f"cannot aggregate mixed experiment kinds {sorted(kinds)}")
    kind = kinds.pop()

    reports = []
    for m, job in zip(models, jobs):
        if not job.test_traces:
            raise DataError(f"model {job.model_id} has no test set")
        test_set = job.featurize(job.test_traces, m.stats)
        reports.append(evaluate_model(m.params, test_set, job.class_labels, job.model_id))

    mean_accuracy = float(np.mean([r.accuracy for r in reports]))
    per_user: dict[str, float] = {}
    if kind == "user-id":
        users = jobs[0].class_labels
        for job in jobs:
            if job.class_labels != users:
                raise DataError(f"model {job.model_id} has mismatched user labels")
        for i, user in enumerate(users):
            per_user[user] = float(np.mean([r.precision[i] for r in reports]))
    else:
        for job, r in zip(jobs, reports):
            per_user[job.group] = r.accuracy
    return ExperimentReport(kind=kind, reports=reports,
                            mean_accuracy=mean_accuracy, per_user=per_user)


# --- report files ------------------------------------------------------------

def matrix_csv(report: EvalReport) -> str:
    """Confusion matrix CSV with a label header row and label row names."""
    lines = ["true\\pred," + ",".join(report.class_labels)]
    for label, row in zip(report.class_labels, report.matrix):
        lines.append(label + "," + ",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def _heat_color(frac: float) -> str:
    # white -> steel blue ramp
    r = int(round(255 + (70 - 255) * frac))
    g = int(round(255 + (130 - 255) * frac))
    b = int(round(255 + (180 - 255) * frac))
    return f"rgb({r},{g},{b})"


def matrix_svg(report: EvalReport) -> str:
    """Standalone SVG heatmap of the confusion matrix."""
    k, cell = len(report.class_labels), SVG_CELL
    margin = 70
    width = margin + k * cell + 20
    height = margin + k * cell + 20
    peak = max(1, int(report.matrix.max()))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<text x="{margin + k * cell / 2:.0f}" y="20" text-anchor="middle">'
        f'{report.model_id} (accuracy {report.accuracy:.3f})</text>',
    ]
    for i, true_label in enumerate(report.class_labels):
        y = margin + i * cell
        parts.append(
            f'<text x="{margin - 8}" y="{y + cell / 2 + 4:.0f}" text-anchor="end">{true_label}</text>'
        )
        for j in range(k):
            val = int(report.matrix[i, j])
            frac = val / peak
            x = margin + j * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{_heat_color(frac)}" stroke="#888"/>'
            )
            text_fill = "#fff" if frac > 0.6 else "#000"
            parts.append(
                f'<text x="{x + cell / 2:.0f}" y="{y + cell / 2 + 4:.0f}" '
                f'text-anchor="middle" fill="{text_fill}">{val}</text>'
            )
    for j, pred_label in enumerate(report.class_labels):
        x = margin + j * cell
        parts.append(
            f'<text x="{x + cell / 2:.0f}" y="{margin - 10}" text-anchor="middle">{pred_label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_report_files(report: EvalReport, out_dir: Path | str) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return [
        atomic_write_text(out / f"{report.model_id}.json",
                          json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"),
        atomic_write_text(out / f"{report.model_id}.csv", matrix_csv(report)),
        atomic_write_text(out / f"{report.model_id}.svg", matrix_svg(report)),
    ]


def _listed_report_files(out: Path) -> set[Path]:
    """The per-model files of the experiment whose aggregate.json is in `out`."""
    agg = out / "aggregate.json"
    if not agg.exists():
        return set()
    try:
        ids = [m["model"] for m in json.loads(agg.read_text(encoding="utf-8"))["models"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"cannot tell which reports {agg} lists: {exc}") from None
    return {out / f"{mid}{ext}" for mid in ids if Path(mid).name == mid
            for ext in (".json", ".csv", ".svg")}


def write_experiment_files(exp: ExperimentReport, out_dir: Path | str) -> list[Path]:
    """Per-model report files plus aggregate.json and aggregate.csv.  A
    directory holds one experiment's reports: the per-model files that an
    earlier aggregate.json there lists and this call does not rewrite are
    removed."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    earlier = _listed_report_files(out)
    written = []
    for report in exp.reports:
        written.extend(write_report_files(report, out))
    written.append(atomic_write_text(out / "aggregate.json",
                                     json.dumps(exp.to_dict(), indent=2, sort_keys=True) + "\n"))
    metric = "mean_precision" if exp.kind == "user-id" else "accuracy"
    lines = [f"user,{metric}"]
    for user in sorted(exp.per_user):
        lines.append(f"{user},{exp.per_user[user]}")
    written.append(atomic_write_text(out / "aggregate.csv", "\n".join(lines) + "\n"))
    for stale in earlier - set(written):
        stale.unlink(missing_ok=True)
    return written
