"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap numpy arrays (float32 for training; float64 for gradient
verification).  Each op attaches a backward closure to its output when any
input participates in the gradient graph; ``backward`` walks the recorded
graph once in reverse topological order and accumulates gradients
additively across fan-out.  It frees the graph as it goes, so a graph can be
backpropagated once.

Fused ops take their large arrays from ``_empty``: plain ``np.empty``, or
inside a training step run under a ``_Slab`` a view of that slab at an
offset planned from the first step's allocations (record, plan, replay).

The model's layers and loss are fused ops with hand-written backwards in
``model.py``; the generic ops here are only those something calls: ``mul``
and ``tsum`` (the gradient check's quadratic self-test and injected fault)
and ``mean`` (pooling over time).
"""

from __future__ import annotations

import math
import mmap
import weakref
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError

__all__ = ["Tensor", "backward", "grad_check", "mul", "mean", "tsum"]


class Tensor:
    """Dense n-d array with an optional gradient buffer and graph record."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float32):
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] | None = ()  # None once backward has run
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

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
    out = Tensor(data, dtype=data.dtype)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # g is stored, not copied: a backward hands over a fresh array (or a view
    # of one) and never writes to it again, and nothing writes to a .grad
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


# --- ops -------------------------------------------------------------------

def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul needs equal shapes, got {a.shape} * {b.shape}")
    out_data = a.data * b.data

    def backward_fn(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _make(out_data, (a, b), backward_fn)


def mean(a: Tensor, axis: int) -> Tensor:
    out_data = a.data.mean(axis=axis)

    def backward_fn(g):
        n = a.data.shape[axis]
        _accumulate(a, np.broadcast_to(np.expand_dims(g, axis) / n, a.data.shape))

    return _make(out_data, (a,), backward_fn)


def tsum(a: Tensor) -> Tensor:
    out_data = a.data.sum()

    def backward_fn(g):
        _accumulate(a, np.full_like(a.data, 1.0) * g)

    return _make(out_data, (a,), backward_fn)


# --- backward pass -----------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate .grad for every leaf the scalar loss depends on.

    Each op node lets go of its closure (and with it the arrays its op saved),
    its parents and its gradient once its backward has run, so a step holds
    only what backward still needs.  Leaves keep .grad, and no node's .data
    is touched.  A freed node's parents are None, which no live node has: a
    second backward through it raises instead of adding nothing."""
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
        if node._parents is None:
            raise RuntimeError("backward reached a node of a graph that was already "
                               "backpropagated; a graph can be backpropagated once")
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._backward is None:  # a leaf
            continue
        if node.grad is not None:
            node._backward(node.grad)
        node._backward = node._parents = node.grad = None


# --- step buffers --------------------------------------------------------------

# a planned region starts on a cache line
_ALIGN = 64
# the allocator of the _Slab step running in this thread, if any: a context
# variable, so that another thread's ops never draw on a training step's plan
_take: ContextVar[Callable[[tuple[int, ...], np.dtype], np.ndarray] | None] = \
    ContextVar("_take", default=None)


def _empty(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised array: np.empty, or inside a _Slab step that step's
    next planned buffer."""
    take = _take.get()
    return np.empty(shape, dtype) if take is None else take(shape, np.dtype(dtype))


def _pack(sizes: list[int], deaths: list[int]) -> tuple[list[int], int]:
    """Offsets for arrays alive over [i, deaths[i]) in allocation counts,
    greedy by size (Pisarchyk & Lee 2020): largest first, each at the lowest
    _ALIGN-ed offset that no array alive at the same time holds.  Returns
    the offsets and the bytes they span."""
    n = len(sizes)
    spans = [-(-size // _ALIGN) * _ALIGN for size in sizes]
    born, died = np.arange(n), np.array(deaths)
    offsets, placed = [0] * n, np.zeros(n, dtype=bool)
    for i in sorted(range(n), key=lambda i: (-spans[i], i)):
        off = 0
        for j in sorted(np.flatnonzero(placed & (born < died[i]) & (died > i)),
                        key=offsets.__getitem__):
            if off + spans[i] <= offsets[j]:
                break
            off = max(off, offsets[j] + spans[j])
        offsets[i], placed[i] = off, True
    return offsets, max((o + s for o, s in zip(offsets, spans)), default=0)


class _Slab:
    """The buffers of one training run: each step of a key (a batch shape)
    takes its _empty arrays from one slab, at offsets planned from the
    first step of that key.

    The first step records each array's size and, through a weakref, how
    many arrays had been made when it died; arrays alive at the step's end
    die with it.  _pack lays these lifetimes out, and one slab, sized to the
    largest plan, serves every key.  A later step of the key hands out its
    i-th array as a view of the slab at the i-th offset.  Each region is a
    1-D np.frombuffer array over the slab's memoryview; numpy collapses the
    base of every view of it onto that array, so a weakref on it sees when
    the last view dies.  A region is handed out only when no region alive
    overlaps it; an array whose size is not the recorded one, or whose
    region is still held, comes from np.empty.  So a plan changes where
    arrays live, never what they hold."""

    def __init__(self):
        self._plans: dict = {}  # key -> (sizes, offsets)
        self._mem: memoryview | None = None
        self._live: dict[int, tuple[weakref.ref, int, int]] = {}  # regions handed out, alive

    @contextmanager
    def step(self, key):
        """Run one step of `key`: record it if it is the key's first, else
        replay its plan."""
        plan = self._plans.get(key)
        sizes: list[int] = []
        deaths: list[int | None] = []
        refs: list[weakref.ref] = []

        def record(shape, dtype):
            a = np.empty(shape, dtype)
            i = len(sizes)
            sizes.append(a.nbytes)
            deaths.append(None)
            refs.append(weakref.ref(a, lambda _, i=i: deaths.__setitem__(i, len(sizes))))
            return a

        token = _take.set(record if plan is None else self._replay(*plan))
        try:
            yield
        finally:
            _take.reset(token)
        if plan is None:
            offsets, nbytes = _pack(sizes, [len(sizes) if t is None else t for t in deaths])
            self._plans[key] = sizes, offsets
            if self._mem is None or nbytes > len(self._mem):
                buf = np.empty(nbytes + _ALIGN, dtype=np.uint8)
                buf[::mmap.PAGESIZE] = 0  # fault its pages in now, not in the next step
                self._mem = memoryview(buf)[-buf.__array_interface__["data"][0] % _ALIGN:]
                self._live = {}  # the old slab's regions lie in other memory

    def _replay(self, sizes: list[int], offsets: list[int]):
        mem, live, cursor = self._mem, self._live, 0

        def forget(ref):
            live.pop(id(ref), None)

        def take(shape, dtype):
            nonlocal cursor
            count = math.prod(shape)
            if cursor < len(sizes) and count * dtype.itemsize == sizes[cursor]:
                start, end = offsets[cursor], offsets[cursor] + sizes[cursor]
                cursor += 1
                if all(end <= s or e <= start for _, s, e in live.values()):
                    region = np.frombuffer(mem, dtype, count, start)
                    ref = weakref.ref(region, forget)
                    live[id(ref)] = ref, start, end
                    return region.reshape(shape)
            return np.empty(shape, dtype)

        return take


# --- finite-difference verification ------------------------------------------

def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor] | dict[str, Tensor],
               eps: float = 1e-5, num_samples: int = 200, seed: int = 0,
               min_magnitude: float = 0.0) -> float:
    """Compare analytic gradients of the scalar f() against central finite
    differences on a sampled subset of parameter coordinates.

    Returns the max relative error |a - n| / max(|a|, |n|, 1e-8), or inf
    if an analytic gradient of the checked tensors is not finite or an error
    is NaN.  Run the function and parameters in float64; float32 rounding
    drowns the signal.

    min_magnitude restricts sampling to coordinates whose analytic gradient
    is at least that large.  Central differences carry an absolute rounding
    noise of roughly |f| * 2^-52 / eps, so coordinates with gradients below
    that floor cannot be resolved by any finite-difference check; excluding
    them measures the implementation rather than the noise.
    """
    if num_samples < 1:
        raise ValueError(f"grad_check needs num_samples >= 1, got {num_samples}")
    if isinstance(params, dict):
        tensors = [params[k] for k in sorted(params)]
    else:
        tensors = list(params)
    tensors = [t for t in tensors if t.requires_grad]
    if not tensors:
        raise ValueError("grad_check needs at least one requires_grad tensor")

    for t in tensors:
        t.zero_grad()
    loss = f()
    backward(loss)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in tensors]

    offsets = np.cumsum([0] + [t.data.size for t in tensors])
    mags = np.concatenate([np.abs(a).ravel() for a in analytic])
    if not np.isfinite(mags).all():
        return math.inf
    eligible = np.flatnonzero(mags >= min_magnitude)
    if eligible.size == 0:
        raise ValueError(f"no coordinates with |gradient| >= {min_magnitude}")
    rng = np.random.default_rng(seed)
    coords = rng.choice(eligible, size=min(num_samples, eligible.size), replace=False)

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
        if math.isnan(rel):  # max() would drop it
            return math.inf
        worst = max(worst, rel)
    return worst
