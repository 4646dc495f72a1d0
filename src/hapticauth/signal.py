"""Batch transforms on force sequences: EMA smoothing, fixed-length
resampling, and train-set z-score normalization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dataset import ForceTrace
from .errors import ConfigError, DataError, ShapeError

STD_FLOOR = 1e-8


def ema_filter(values: np.ndarray, alpha: float) -> np.ndarray:
    """Exponential moving average per channel, seeded with the first sample.

    y[0] = x[0]; y[t] = y[t-1] + alpha * (x[t] - y[t-1]), computed in float32
    so the output is bit-identical to the direct recurrence.  alpha = 1 is an
    exact identity, so it returns a copy of the input (the recurrence itself
    would drift by one ulp on magnitude-disparate neighbors).
    """
    if not (0.0 < alpha <= 1.0):
        raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
    x = np.asarray(values, dtype=np.float32)
    if x.ndim != 2 or len(x) < 1:
        raise ShapeError(f"expected a non-empty T x C matrix, got shape {x.shape}")
    if alpha == 1.0:
        return x.copy()
    a = np.float32(alpha)
    y = np.empty_like(x)
    for c in range(x.shape[1]):  # float32 scalars round each op exactly as array ops do
        acc = x[0, c]
        col = [acc]
        for v in x[1:, c]:
            acc = acc + a * (v - acc)
            col.append(acc)
        y[:, c] = col
    return y


def filter_trace(trace: ForceTrace, alpha: float) -> ForceTrace:
    """Return the filtered-variant counterpart of a raw trace."""
    return ForceTrace(
        timestamps=trace.timestamps,
        forces=ema_filter(trace.forces, alpha),
        user_id=trace.user_id,
        task_id=trace.task_id,
        trial_index=trace.trial_index,
        variant="filtered",
        sample_rate=trace.sample_rate,
    )


def resample(seq: np.ndarray, target_len: int) -> np.ndarray:
    """Linear interpolation of a T x C matrix at target_len uniform positions
    over [0, T-1]; endpoints are preserved exactly."""
    x = np.asarray(seq)
    if x.ndim != 2:
        raise ShapeError(f"expected a T x C matrix, got shape {x.shape}")
    t_in = len(x)
    if t_in < 2:
        raise ShapeError(f"resample needs at least 2 rows, got {t_in}")
    if target_len < 2:
        raise ConfigError(f"target_len must be >= 2, got {target_len}")
    positions = np.linspace(0.0, t_in - 1.0, target_len)
    grid = np.arange(t_in, dtype=np.float64)
    out = np.empty((target_len, x.shape[1]), dtype=x.dtype)
    for c in range(x.shape[1]):
        out[:, c] = np.interp(positions, grid, x[:, c].astype(np.float64))
    return out


@dataclass(frozen=True)
class NormStats:
    """Per-channel mean/std fit on training data; std is floored at 1e-8."""

    mean: np.ndarray  # (C,)
    std: np.ndarray   # (C,)

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=np.float32)
        s = np.asarray(self.std, dtype=np.float32)
        if m.shape != s.shape or m.ndim != 1:
            raise ShapeError(f"mean/std must be matching 1-D vectors, got {m.shape} and {s.shape}")
        if (s < STD_FLOOR).any():
            s = np.maximum(s, np.float32(STD_FLOOR))
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "std", s)


def zscore_fit(train_seqs: Iterable[np.ndarray]) -> NormStats:
    """Pool all rows of all training sequences and fit per-channel mean and
    population std."""
    seqs = [np.asarray(s) for s in train_seqs]
    if not seqs:
        raise DataError("zscore_fit needs at least one training sequence")
    channels = seqs[0].shape[1]
    for s in seqs:
        if s.ndim != 2 or s.shape[1] != channels:
            raise ShapeError(f"inconsistent channel counts: {s.shape} vs C={channels}")
    pooled = np.concatenate(seqs, axis=0).astype(np.float64)
    mean = pooled.mean(axis=0)
    std = pooled.std(axis=0)
    return NormStats(mean=mean.astype(np.float32), std=std.astype(np.float32))


def zscore_apply(seq: np.ndarray, stats: NormStats) -> np.ndarray:
    x = np.asarray(seq, dtype=np.float32)
    if x.ndim != 2 or x.shape[1] != len(stats.mean):
        raise ShapeError(f"sequence shape {x.shape} does not match {len(stats.mean)} channels")
    return (x - stats.mean) / stats.std
