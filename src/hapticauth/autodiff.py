"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap numpy arrays (float32 for training; float64 for gradient
verification).  Each op attaches a backward closure to its output when any
input participates in the gradient graph; ``backward`` walks the recorded
graph once in reverse topological order and accumulates gradients
additively across fan-out.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ShapeError

__all__ = [
    "Tensor", "backward", "grad_check",
    "matmul", "add", "mul", "relu", "layer_norm", "mean", "tsum",
]


class Tensor:
    """Dense n-d array with an optional gradient buffer and graph record."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float32):
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def astype(self, dtype) -> "Tensor":
        """New leaf tensor with the same payload in another dtype."""
        return Tensor(self.data.astype(dtype), requires_grad=self.requires_grad, dtype=dtype)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _make(data: np.ndarray, parents: Sequence[Tensor],
          backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap an op result; records the graph only if some input needs grad."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g)
    else:
        t.grad = t.grad + g


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to `shape` to undo numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# --- ops -------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >= 2-d operands, got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _make(out_data, (a, b), backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out_data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add shape mismatch: {a.shape} + {b.shape}") from None

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _make(out_data, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out_data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul shape mismatch: {a.shape} * {b.shape}") from None

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), backward_fn)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0  # derivative at exactly 0 is defined as 0
    out_data = np.where(mask, a.data, a.data.dtype.type(0))

    def backward_fn(g):
        _accumulate(a, g * mask)

    return _make(out_data, (a,), backward_fn)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    d = x.data.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm gamma/beta must be ({d},), got {gamma.shape} and {beta.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv_std
    out_data = (gamma.data * xhat + beta.data).astype(x.data.dtype)

    def backward_fn(g):
        _accumulate(beta, g.reshape(-1, d).sum(axis=0))
        _accumulate(gamma, (g * xhat).reshape(-1, d).sum(axis=0))
        dxhat = g * gamma.data
        dx = inv_std * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        _accumulate(x, dx.astype(x.data.dtype))

    return _make(out_data, (x, gamma, beta), backward_fn)


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    out_data = a.data.mean(axis=axis)

    def backward_fn(g):
        if axis is None:
            _accumulate(a, np.full_like(a.data, 1.0 / a.data.size) * g)
        else:
            n = a.data.shape[axis]
            _accumulate(a, np.broadcast_to(np.expand_dims(g, axis) / n, a.data.shape))

    return _make(out_data, (a,), backward_fn)


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    out_data = a.data.sum(axis=axis)

    def backward_fn(g):
        if axis is None:
            _accumulate(a, np.full_like(a.data, 1.0) * g)
        else:
            _accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape))

    return _make(out_data, (a,), backward_fn)


# --- backward pass -----------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate .grad for every tensor the scalar loss depends on."""
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")

    # iterative post-order DFS: reverse topological order, each node once
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.zero_grad()


# --- finite-difference verification ------------------------------------------

def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor] | dict[str, Tensor],
               eps: float = 1e-5, num_samples: int = 200, seed: int = 0,
               min_magnitude: float = 0.0) -> float:
    """Compare analytic gradients of the scalar f() against central finite
    differences on a sampled subset of parameter coordinates.

    Returns the max relative error |a - n| / max(|a|, |n|, 1e-8).  Run the
    function and parameters in float64; float32 rounding drowns the signal.

    min_magnitude restricts sampling to coordinates whose analytic gradient
    is at least that large.  Central differences carry an absolute rounding
    noise of roughly |f| * 2^-52 / eps, so coordinates with gradients below
    that floor cannot be resolved by any finite-difference check; excluding
    them measures the implementation rather than the noise.
    """
    if isinstance(params, dict):
        tensors = [params[k] for k in sorted(params)]
    else:
        tensors = list(params)
    tensors = [t for t in tensors if t.requires_grad]
    if not tensors:
        raise ValueError("grad_check needs at least one requires_grad tensor")

    zero_grads(tensors)
    loss = f()
    backward(loss)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in tensors]

    sizes = [t.data.size for t in tensors]
    offsets = np.cumsum([0] + sizes)
    total = int(offsets[-1])
    rng = np.random.default_rng(seed)
    if min_magnitude > 0.0:
        flat_mags = np.concatenate([np.abs(a).ravel() for a in analytic])
        eligible = np.flatnonzero(flat_mags >= min_magnitude)
        if eligible.size == 0:
            raise ValueError(f"no coordinates with |gradient| >= {min_magnitude}")
        n_pick = min(num_samples, eligible.size)
        coords = rng.choice(eligible, size=n_pick, replace=False)
    else:
        n_pick = min(num_samples, total)
        coords = rng.choice(total, size=n_pick, replace=False)

    worst = 0.0
    for flat_idx in coords:
        ti = int(np.searchsorted(offsets, flat_idx, side="right") - 1)
        local = int(flat_idx - offsets[ti])
        idx = np.unravel_index(local, tensors[ti].data.shape)
        orig = tensors[ti].data[idx]
        tensors[ti].data[idx] = orig + eps
        f_plus = float(f().data)
        tensors[ti].data[idx] = orig - eps
        f_minus = float(f().data)
        tensors[ti].data[idx] = orig
        numeric = (f_plus - f_minus) / (2.0 * eps)
        a = float(analytic[ti].reshape(-1)[local])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst
