"""Derivative features of a 3-axis force sequence.

Each trace becomes 13 channels: the adjacent-sample force-difference norm,
then velocity, acceleration, and jerk of the force vector (three components
plus the Euclidean norm each).  Derivatives are cascaded first differences
scaled by the sample rate; all streams are truncated to the common length
T-3 so that feature index t stays aligned with force index t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ForceTrace
from .errors import ShapeError
from .signal import NormStats, resample, zscore_apply

FEATURE_NAMES = (
    "dF_norm",
    "vx", "vy", "vz", "v_norm",
    "ax", "ay", "az", "a_norm",
    "jx", "jy", "jz", "j_norm",
)
NUM_FEATURES = len(FEATURE_NAMES)


def differentiate(seq: np.ndarray, rate: float) -> np.ndarray:
    """First difference of adjacent rows scaled by the sample rate:
    out[t] = (seq[t+1] - seq[t]) * rate."""
    x = np.asarray(seq)
    if x.ndim != 2 or len(x) < 2:
        raise ShapeError(f"differentiate needs a T x C matrix with T >= 2, got shape {x.shape}")
    return np.diff(x, axis=0) * rate


def extract_features(forces: np.ndarray, rate: float) -> np.ndarray:
    """Map a T x 3 force matrix to the (T-3) x 13 derived-feature matrix."""
    f = np.asarray(forces, dtype=np.float32)
    if f.ndim != 2 or f.shape[1] != 3:
        raise ShapeError(f"expected a T x 3 force matrix, got shape {f.shape}")
    t_in = len(f)
    if t_in < 4:
        raise ShapeError(f"feature extraction needs T >= 4 samples, got {t_in}")

    velocity = differentiate(f, rate)          # (T-1, 3)
    acceleration = differentiate(velocity, rate)  # (T-2, 3)
    jerk = differentiate(acceleration, rate)   # (T-3, 3)
    df_norm = np.linalg.norm(np.diff(f, axis=0), axis=1)  # (T-1,)

    n = t_in - 3
    out = np.empty((n, NUM_FEATURES), dtype=np.float32)
    out[:, 0] = df_norm[:n]
    out[:, 1:4] = velocity[:n]
    out[:, 4] = np.linalg.norm(velocity[:n], axis=1)
    out[:, 5:8] = acceleration[:n]
    out[:, 8] = np.linalg.norm(acceleration[:n], axis=1)
    out[:, 9:12] = jerk[:n]
    out[:, 12] = np.linalg.norm(jerk, axis=1)
    return out


@dataclass(frozen=True)
class FeatureSequence:
    """Fixed-length model input: an L x 13 matrix plus its class label and
    the identity of the trace it came from."""

    values: np.ndarray  # (L, 13) float32
    label: int
    source: tuple[str, str, int, str]  # (user_id, task_id, trial_index, variant)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float32)
        object.__setattr__(self, "values", v)
        if v.ndim != 2 or v.shape[1] != NUM_FEATURES:
            raise ShapeError(f"expected an L x {NUM_FEATURES} matrix, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ShapeError("feature sequence contains non-finite values")


def pipeline(trace: ForceTrace, target_len: int, stats: NormStats | None = None,
             label: int = -1) -> FeatureSequence:
    """Full per-trace stage: extract features, resample to target_len, then
    optionally z-score with train-split stats."""
    feats = extract_features(trace.forces, trace.sample_rate)
    feats = resample(feats, target_len)
    if stats is not None:
        feats = zscore_apply(feats, stats)
    return FeatureSequence(values=feats, label=label, source=trace.key)
