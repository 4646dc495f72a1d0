"""Correctness checks the benchmark applies to the library's outputs.

The references here are the benchmark's own: a plain float32 EMA
recurrence, a bit-level comparison for the CSV round trip, and a float64
forward pass of the same parameters for the model outputs.
"""

from __future__ import annotations

import math

import numpy as np

from hapticauth import model
from hapticauth.autodiff import Tensor

# float32 against float64 on the same parameters: 1e-4 is ~800 float32 ulps,
# far above the rounding a 2-layer encoder accumulates and far below any
# real defect (a wrong op, a stale buffer, a NaN).
LOSS_RTOL = 1e-4
LOGIT_TOL = 1e-4


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def ema_reference(x: np.ndarray, alpha: float) -> np.ndarray:
    """y[0] = x[0]; y[t] = y[t-1] + alpha * (x[t] - y[t-1]), one float32
    scalar at a time."""
    a = np.float32(alpha)
    y = np.empty_like(x, dtype=np.float32)
    for c in range(x.shape[1]):
        acc = np.float32(x[0, c])
        y[0, c] = acc
        for t in range(1, len(x)):
            acc = np.float32(acc + a * (np.float32(x[t, c]) - acc))
            y[t, c] = acc
    return y


def roundtrip_ok(original, loaded) -> bool:
    return (original.key == loaded.key
            and same_bits(original.timestamps, loaded.timestamps)
            and same_bits(original.forces, loaded.forces))


def no_grad(params: model.ModelParams, dtype) -> model.ModelParams:
    """The same weights as leaves that record no graph, in dtype."""
    return model.ModelParams(params.config, {
        name: Tensor(t.data.astype(dtype, copy=False), dtype=dtype)
        for name, t in params.items()
    })


def loss_ok(params: model.ModelParams, x: np.ndarray, y: np.ndarray) -> bool:
    """The float32 loss on a fixed batch matches a float64 forward of the
    same parameters within LOSS_RTOL."""
    l32 = float(model.cross_entropy(model.forward(no_grad(params, np.float32),
                                                  x.astype(np.float32)), y).data)
    l64 = float(model.cross_entropy(model.forward(no_grad(params, np.float64),
                                                  x.astype(np.float64)), y).data)
    if not (math.isfinite(l32) and math.isfinite(l64)):
        return False
    return abs(l32 - l64) <= LOSS_RTOL * max(1.0, abs(l64))


def request_ok(params32: model.ModelParams, params64: model.ModelParams,
               x: np.ndarray, pred: int) -> bool:
    """One request's logits match float64 within LOGIT_TOL, and its predicted
    class is the float64 argmax unless the top two are within tolerance."""
    l32 = model.forward(params32, x[None].astype(np.float32)).data[0]
    l64 = model.forward(params64, x[None].astype(np.float64)).data[0]
    if not (np.isfinite(l32).all() and np.isfinite(l64).all()):
        return False
    if not np.allclose(l32, l64, rtol=LOGIT_TOL, atol=LOGIT_TOL):
        return False
    second, first = np.sort(l64)[-2:]
    return first - second <= 2 * LOGIT_TOL * max(1.0, abs(first)) or pred == int(np.argmax(l64))
