"""Two-layer transformer encoder classifier over 13-channel feature sequences.

Post-norm encoder layers (LayerNorm(x + Sublayer(x))), fixed sinusoidal
positional encodings, mean-pooling over time, and a linear head.  Each layer
is a fused op with a hand-written backward and records one graph node:
linear (in-projection and head), mhsa, ffn and add_layer_norm, so a step
records 4 + 4 * num_layers nodes with the loss.  A model is its learned
weights: param_shapes names each tensor once, in the order that build_model
draws, the optimizer walks and checkpoints store them.  The positional table
is computed from the config, never stored.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _make
from .dataset import atomic_write
from .errors import ConfigError, DataError, ShapeError
from .features import NUM_FEATURES

CHECKPOINT_VERSION = 5
# elements in one (heads, query rows, L) attention score tile: 1 MB of
# float32, so a tile stays in a 2 MB per-core L2 cache
SCORE_BLOCK = 2 ** 18
# query rows per attention score tile: at L 512 a (64, 17) @ (17, 512) score
# GEMM writes 128 KB, and on a 2-core host with OpenBLAS 0.3.31 it runs
# 1.5-3x faster per row than a whole head's (512, 17) @ (17, 512), on one
# BLAS thread or two
QUERY_TILE = 64
# attention rows whose bounded-shift sum l falls below this are redone with
# their exact max: it keeps 1/l <= 2^40 and costs a kept row at most 40 of
# the ~126 binary orders of magnitude that float32's exp2 can span
ROW_SUM_FLOOR = 2.0 ** -40
LAYER_NORM_EPS = 1e-5
# draw_kink_free_batch's least |FFN pre-activation|, and its number of draws
KINK_MARGIN, KINK_TRIES = 2e-4, 500


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 256
    num_heads: int = 16
    ffn_dim: int = 256
    num_layers: int = 2
    num_classes: int = 2
    seq_len: int = 64

    def __post_init__(self):
        for f in fields(self):
            value, low = getattr(self, f.name), 2 if f.name == "num_classes" else 1
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ConfigError(f"{f.name} must be an integer >= {low}, got {value!r}")
        if self.d_model % self.num_heads != 0:
            raise ConfigError(
                f"d_model ({self.d_model}) must be divisible by num_heads ({self.num_heads})"
            )
        if self.d_model % 2 != 0:
            raise ConfigError(f"d_model must be even for sinusoidal encodings, got {self.d_model}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        """The config of a to_dict document; every field must be present."""
        absent = {f.name for f in fields(cls)} - set(doc)
        if absent:
            raise ConfigError(f"model config lacks {sorted(absent)}")
        return cls(**doc)


class ModelParams:
    """The learned weights: named tensors in param_shapes order, every one
    updated by training."""

    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor]):
        self.config = config
        self._tensors = dict(tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._tensors.items())

    def astype(self, dtype) -> "ModelParams":
        return ModelParams(self.config, {k: t.astype(dtype) for k, t in self._tensors.items()})

    def detached(self) -> "ModelParams":
        """The same arrays, uncopied, as leaves that need no gradient: a
        forward pass over them records no graph and keeps no buffers."""
        return ModelParams(self.config, {k: Tensor(t.data, dtype=t.data.dtype)
                                         for k, t in self._tensors.items()})

    def zero_grads(self) -> None:
        for t in self._tensors.values():
            t.zero_grad()


@lru_cache(maxsize=8)
def positional_encoding(length: int, d_model: int) -> np.ndarray:
    """Sinusoidal table: PE[p, 2i] = sin(p / 10000^(2i/d)), PE[p, 2i+1] = cos(...).

    Read-only float32, computed once per (length, d_model); a float64
    forward adds the same float32-rounded values."""
    if length < 1 or d_model < 1:
        raise ConfigError(f"positional encoding needs positive dims, got ({length}, {d_model})")
    if d_model % 2 != 0:
        raise ConfigError(f"positional encoding needs an even dimension, got {d_model}")
    pos = np.arange(length, dtype=np.float64)[:, None]
    i2 = np.arange(0, d_model, 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, i2 / d_model)
    table = np.empty((length, d_model), dtype=np.float32)
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    table.flags.writeable = False
    return table


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every learned tensor's name and shape, in draw and storage order."""
    d, ffn = cfg.d_model, cfg.ffn_dim
    shapes = {"in_proj.w": (NUM_FEATURES, d), "in_proj.b": (d,)}
    for i in range(cfg.num_layers):
        p = f"layers.{i}"
        shapes.update({
            f"{p}.attn.wq": (d, d), f"{p}.attn.wk": (d, d),
            f"{p}.attn.wv": (d, d), f"{p}.attn.wo": (d, d),
            f"{p}.ln1.gamma": (d,), f"{p}.ln1.beta": (d,),
            f"{p}.ffn.w1": (d, ffn), f"{p}.ffn.b1": (ffn,),
            f"{p}.ffn.w2": (ffn, d), f"{p}.ffn.b2": (d,),
            f"{p}.ln2.gamma": (d,), f"{p}.ln2.beta": (d,),
        })
    shapes["head.w"] = (d, cfg.num_classes)
    shapes["head.b"] = (cfg.num_classes,)
    return shapes


def build_model(cfg: ModelConfig, seed: int) -> ModelParams:
    """Deterministic init in param_shapes order: (fan_in, fan_out) weights
    ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)), layer-norm gamma 1, biases and
    layer-norm beta 0."""
    rng = np.random.default_rng(seed)

    def init(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if len(shape) == 2:
            bound = 1.0 / math.sqrt(shape[0])
            return rng.uniform(-bound, bound, size=shape).astype(np.float32)
        if name.endswith(".gamma"):
            return np.ones(shape, dtype=np.float32)
        return np.zeros(shape, dtype=np.float32)

    return ModelParams(cfg, {name: Tensor(init(name, shape), requires_grad=True)
                             for name, shape in param_shapes(cfg).items()})


def mhsa(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
         num_heads: int) -> Tensor:
    """Full bidirectional multi-head self-attention with 1/sqrt(head_dim)
    scaling; heads concatenated then output-projected.

    One graph node with parents (x, wq, wk, wv, wo) and a hand-written
    backward.  The softmax is never normalised over the (L, L) scores: v
    carries a column of ones, so e @ [v | 1] gives the context numerator and
    the row sums l in one GEMM, and the context is the numerator times 1/l
    (the output-side normalisation of FlashAttention, Dao et al. 2022).

    The exponent is base 2: q's scale holds log2(e), so the score GEMM
    writes scores in log2 units and exp2 gives the same e as exp would on
    natural-log scores (FlashAttention-2, Dao 2023).  There is no row-max
    pass either.  Row i is shifted by the Cauchy-Schwarz bound
    m_i = |q_i| * max_j |k_j| >= max_j s_ij, which is known before the
    scores are (the unified max value of FlashDecoding++, Hong et al. 2023):
    q carries the column -m and k a column of ones, so [q | -m] @ [k | 1]^T
    writes s - m straight out of the GEMM and exp2(s - m) is at most 1 up to
    rounding.  Softmax ignores a per-row shift, so no gradient flows through
    m.  Underflow guard: a row whose bound overshoots so far that l falls
    below ROW_SUM_FLOOR, and every row with one key (L = 1, which must weigh
    its key exactly 1), is redone with its exact row max, and that max
    replaces its -m.

    k is kept transposed, as one contiguous (B·h, dh + 1, L) [k | 1]^T, so
    the score GEMM reads no transposed view.  The scores are computed in
    tiles of QUERY_TILE query rows (all L rows when L is shorter) of as many
    heads as fit SCORE_BLOCK elements, each tile into one reused scratch
    block.  Training and inference run the same forward.  For backward it
    keeps [q | -m], [k | 1]^T, [v | 1], 1/l, the context in token layout and
    the score block, but not the (B·h, L, dh + 1) numerator, and backward
    recomputes each tile's e with the same GEMM and exp2 (the FlashAttention
    backward), so no (B, h, L, L) tensor is allocated.  dk and dv add up
    over a head's tiles in tile order, so no result depends on the BLAS
    thread count."""
    if x.data.ndim != 3:
        raise ShapeError(f"mhsa expects (B, L, d) input, got {x.shape}")
    bsz, length, d = x.shape
    if d % num_heads != 0:
        raise ShapeError(f"model dim {d} not divisible by {num_heads} heads")
    for w in (wq, wk, wv, wo):
        if w.shape != (d, d):
            raise ShapeError(f"mhsa weights must be ({d}, {d}), got {w.shape}")
    head_dim = d // num_heads
    dtype = x.data.dtype
    scale = 1.0 / math.sqrt(head_dim)
    n = bsz * num_heads
    rows = min(QUERY_TILE, length)
    per_block = max(1, min(n, SCORE_BLOCK // (rows * length)))
    tiles = [(slice(h, h + per_block), slice(r, r + rows))
             for h in range(0, n, per_block) for r in range(0, length, rows)]

    # heads go into contiguous (B·h, L, dh + 1) arrays: BLAS runs the L x L
    # products on strided (row stride d) head views several times slower
    def heads(a: np.ndarray, out: np.ndarray) -> None:  # (B·L, d) -> out[..., :dh]
        out.reshape(bsz, num_heads, length, head_dim + 1)[..., :head_dim] = \
            a.reshape(bsz, length, num_heads, head_dim).transpose(0, 2, 1, 3)

    x_flat = x.data.reshape(bsz * length, d)
    q1, v1 = np.empty((2, n, length, head_dim + 1), dtype=dtype)  # [q | -m], [v | 1]
    heads(x_flat @ wq.data, q1)
    heads(x_flat @ wv.data, v1)
    kt = np.empty((n, head_dim + 1, length), dtype=dtype)  # [k | 1]^T
    kt.reshape(bsz, num_heads, head_dim + 1, length)[:, :, :head_dim] = \
        (x_flat @ wk.data).reshape(bsz, length, num_heads, head_dim).transpose(0, 2, 3, 1)
    q, k_t = q1[..., :head_dim], kt[:, :head_dim]
    q *= dtype.type(scale * math.log2(math.e))  # scaling q, not the (L, L) scores, saves a pass
    kt[:, head_dim] = v1[..., head_dim] = 1
    max_k2 = np.einsum("ndl,ndl->nl", k_t, k_t).max(axis=1, keepdims=True)
    q1[..., head_dim] = -np.sqrt(np.einsum("nld,nld->nl", q, q) * max_k2)
    scratch = np.empty((per_block, rows, length), dtype=dtype)

    def exp_scores(hs: slice, rs: slice) -> np.ndarray:  # e = exp2([q | -m] @ [k | 1]^T) in scratch
        e = np.matmul(q1[hs, rs], kt[hs], out=scratch[:len(kt[hs]), :len(q1[0, rs])])
        return np.exp2(e, out=e)

    num = np.empty_like(v1)  # [e @ v | l]
    for hs, rs in tiles:
        np.matmul(exp_scores(hs, rs), v1[hs], out=num[hs, rs])
    # underflow guard: redo these rows from their exact max, and put that max
    # in -m so that backward recomputes the same e
    redo = (num[..., head_dim] < ROW_SUM_FLOOR) | (length == 1)
    for hd in np.flatnonzero(redo.any(axis=1)):
        redo_rows = np.flatnonzero(redo[hd])
        e = q[hd, redo_rows] @ k_t[hd]
        row_max = e.max(axis=1, keepdims=True)
        e -= row_max
        num[hd, redo_rows] = np.exp2(e, out=e) @ v1[hd]
        q1[hd, redo_rows, head_dim] = -row_max[:, 0]
    inv_l = 1 / num[..., head_dim:]
    ctx = num[..., :head_dim]
    ctx *= inv_l
    ctx_flat = ctx.reshape(bsz, num_heads, length, head_dim).transpose(0, 2, 1, 3).reshape(bsz * length, d)
    del num, ctx  # before the output GEMM; backward reads the context from ctx_flat
    out_data = (ctx_flat @ wo.data).reshape(bsz, length, d)

    def backward_fn(g):
        g = g.reshape(bsz * length, d)
        ad._accumulate(wo, ctx_flat.T @ g)
        # softmax backward: ds = p * (dctx v^T - rowsum(dctx * ctx)) with
        # p = e / l, which is e * (a @ [v | 1]^T) for a = [dctx | -rowsum] / l
        a = np.empty_like(v1)
        dctx = a[..., :head_dim]
        dctx_tok = (g @ wo.data.T).reshape(bsz, length, num_heads, head_dim)
        heads(dctx_tok, a)
        # the row term in token layout, as the forward's numerator is gone
        a[..., head_dim] = -np.einsum("blhd,blhd->bhl", dctx_tok,
                                      ctx_flat.reshape(dctx_tok.shape)).reshape(n, length)
        del dctx_tok
        a *= inv_l
        vt = np.ascontiguousarray(v1.transpose(0, 2, 1))  # [v | 1]^T
        dqkv = np.empty((3, bsz, num_heads, length, head_dim), dtype=dtype)
        dq, dk, dv = dqkv.reshape(3, n, length, head_dim)
        ds_block = np.empty_like(scratch)
        # a later tile's dk and dv, added to its heads' in tile order
        part = np.empty((2, per_block, length, head_dim), dtype=dtype) if rows < length else None
        for hs, rs in tiles:
            e = exp_scores(hs, rs)
            ds = ds_block[:len(e), :e.shape[1]]
            first = rs.start == 0
            dk_t, dv_t = (dk[hs], dv[hs]) if first else part[:, :len(e)]
            np.matmul(e.transpose(0, 2, 1), dctx[hs, rs], out=dv_t)  # dctx is now dctx / l
            np.matmul(a[hs, rs], vt[hs], out=ds)
            ds *= e
            np.matmul(ds, k_t[hs].transpose(0, 2, 1), out=dq[hs, rs])
            np.matmul(ds.transpose(0, 2, 1), q[hs, rs], out=dk_t)
            if not first:
                dk[hs] += dk_t
                dv[hs] += dv_t
        del a, dctx, vt, ds_block, ds, part, dk_t, dv_t
        dq *= dtype.type(scale)
        dk *= dtype.type(math.log(2))  # q holds log2(e), so ds^T @ q is dk / ln 2
        del dq, dk, dv  # so the head layout dies once it is copied
        dqkv = dqkv.transpose(1, 3, 0, 2, 4).reshape(bsz * length, 3 * d)  # [dq | dk | dv]
        dw = x_flat.T @ dqkv
        for i, w in enumerate((wq, wk, wv)):
            ad._accumulate(w, dw[:, i * d:(i + 1) * d])
        w_qkv = np.concatenate([wq.data, wk.data, wv.data], axis=1)
        ad._accumulate(x, (dqkv @ w_qkv.T).reshape(bsz, length, d))

    return _make(out_data, (x, wq, wk, wv, wo), backward_fn)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis of an (..., n) x, with an (n, m) w.

    One graph node.  Its backward reads x and w but never the output, so a
    caller may add a constant to the output in place."""
    n, m = w.shape
    if x.shape[-1] != n or b.shape != (m,):
        raise ShapeError(f"linear shape mismatch: {x.shape} @ {w.shape} + {b.shape}")
    out_data = x.data @ w.data
    out_data += b.data

    def backward_fn(g):
        g2 = g.reshape(-1, m)
        ad._accumulate(w, x.data.reshape(-1, n).T @ g2)
        ad._accumulate(b, g2.sum(axis=0))
        if x.requires_grad:
            ad._accumulate(x, g @ w.data.T)

    return _make(out_data, (x, w, b), backward_fn)


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
        preacts: list[np.ndarray] | None = None) -> Tensor:
    """Position-wise feed-forward block relu(x @ w1 + b1) @ w2 + b2.

    One graph node that keeps only the hidden activations for backward.  The
    relu is np.maximum, which passes a NaN on; its derivative at exactly 0 is
    0.  A list passed as preacts receives the pre-activation array."""
    d, f = w1.shape
    pre = x.data @ w1.data
    pre += b1.data
    if preacts is not None:
        preacts.append(pre)
    hidden = np.maximum(pre, 0)
    out_data = hidden @ w2.data
    out_data += b2.data

    def backward_fn(g):
        g2, h2 = g.reshape(-1, d), hidden.reshape(-1, f)
        ad._accumulate(w2, h2.T @ g2)
        ad._accumulate(b2, g2.sum(axis=0))
        dpre = g2 @ w2.data.T
        dpre *= h2 > 0
        ad._accumulate(w1, x.data.reshape(-1, d).T @ dpre)
        ad._accumulate(b1, dpre.sum(axis=0))
        ad._accumulate(x, (dpre @ w1.data.T).reshape(x.shape))

    return _make(out_data, (x, w1, b1, w2, b2), backward_fn)


def add_layer_norm(x: Tensor, y: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Residual sum and layer norm over the last axis: LayerNorm(x + y).

    One graph node that keeps the standardised sum and the inverse standard
    deviations for backward; x and y receive the same gradient."""
    d = x.shape[-1]
    xhat = x.data + y.data  # centred, then scaled, in place
    xhat -= xhat.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((xhat ** 2).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    xhat *= inv_std
    out_data = gamma.data * xhat
    out_data += beta.data

    def backward_fn(g):
        # two full-size buffers: dxhat becomes dsum in place, and tmp holds
        # each product in turn (g2 is a copy when g is mean's broadcast view)
        g2 = g.reshape(-1, d)
        ad._accumulate(beta, g2.sum(axis=0))
        tmp = g2 * xhat.reshape(-1, d)
        ad._accumulate(gamma, tmp.sum(axis=0))
        del g2
        tmp = tmp.reshape(xhat.shape)
        dxhat = g * gamma.data
        mean_dxhat_xhat = np.multiply(dxhat, xhat, out=tmp).mean(axis=-1, keepdims=True)
        dxhat -= dxhat.mean(axis=-1, keepdims=True)
        dxhat -= np.multiply(xhat, mean_dxhat_xhat, out=tmp)
        dxhat *= inv_std
        ad._accumulate(x, dxhat)
        ad._accumulate(y, dxhat)

    return _make(out_data, (x, y, gamma, beta), backward_fn)


def forward(params: ModelParams, batch: np.ndarray, *,
            ffn_preacts: list[np.ndarray] | None = None) -> Tensor:
    """Run the encoder classifier; returns (B, num_classes) logits.

    Pass a list as ffn_preacts to collect every FFN pre-activation array
    (used to keep gradient-check inputs away from the ReLU kink).
    """
    cfg = params.config
    x_in = np.asarray(batch)
    if x_in.ndim != 3 or x_in.shape[2] != NUM_FEATURES:
        raise ShapeError(f"batch shape {x_in.shape} does not match (B, L, {NUM_FEATURES})")
    if x_in.shape[1] != cfg.seq_len:
        raise ShapeError(f"batch length {x_in.shape[1]} != configured seq_len {cfg.seq_len}")
    dtype = params["in_proj.w"].data.dtype

    x = linear(Tensor(x_in, dtype=dtype), params["in_proj.w"], params["in_proj.b"])
    # the table is a constant and linear's backward never reads its output,
    # so the positions go in place, with no graph node
    x.data += positional_encoding(cfg.seq_len, cfg.d_model)
    for i in range(cfg.num_layers):
        p = f"layers.{i}"
        attn_out = mhsa(x, params[f"{p}.attn.wq"], params[f"{p}.attn.wk"],
                        params[f"{p}.attn.wv"], params[f"{p}.attn.wo"], cfg.num_heads)
        x = add_layer_norm(x, attn_out, params[f"{p}.ln1.gamma"], params[f"{p}.ln1.beta"])
        ffn_out = ffn(x, params[f"{p}.ffn.w1"], params[f"{p}.ffn.b1"],
                      params[f"{p}.ffn.w2"], params[f"{p}.ffn.b2"], ffn_preacts)
        x = add_layer_norm(x, ffn_out, params[f"{p}.ln2.gamma"], params[f"{p}.ln2.beta"])
    return linear(ad.mean(x, axis=1), params["head.w"], params["head.b"])


def draw_kink_free_batch(params: ModelParams, batch_size: int, seed: int = 0
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Random batch + labels whose FFN pre-activations all stay more than
    KINK_MARGIN away from zero, so central differences never cross a ReLU kink."""
    cfg = params.config
    for attempt in range(KINK_TRIES):
        rng = np.random.default_rng([seed, attempt])
        batch = rng.standard_normal((batch_size, cfg.seq_len, NUM_FEATURES))
        labels = rng.integers(0, cfg.num_classes, size=batch_size)
        preacts: list[np.ndarray] = []
        forward(params, batch.astype(params["in_proj.w"].data.dtype), ffn_preacts=preacts)
        if min(np.abs(p).min() for p in preacts) > KINK_MARGIN:
            return batch, labels
    raise DataError(f"no kink-free batch found in {KINK_TRIES} tries (margin {KINK_MARGIN})")


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over the batch, computed via log-sum-exp."""
    y = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects (B, K) logits, got {logits.shape}")
    bsz, k = logits.shape
    if y.shape != (bsz,):
        raise ShapeError(f"labels shape {y.shape} does not match batch size {bsz}")
    if y.size and (y.min() < 0 or y.max() >= k):
        raise DataError(f"labels must lie in [0, {k}), got range [{y.min()}, {y.max()}]")

    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    probs = np.exp(z - zmax)
    sums = probs.sum(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(sums[:, 0])
    picked = z[np.arange(bsz), y]
    loss_val = np.asarray((lse - picked).mean(), dtype=z.dtype)
    probs /= sums

    def backward_fn(g):
        dz = probs.copy()
        dz[np.arange(bsz), y] -= 1.0
        ad._accumulate(logits, dz * (g / bsz))

    return _make(loss_val, (logits,), backward_fn)


# --- checkpoints -------------------------------------------------------------

def save_checkpoint(path: Path | str, params: ModelParams,
                    meta: dict | None = None,
                    extras: dict[str, np.ndarray] | None = None) -> None:
    """JSON header line (version, config, the extras' names and shapes, meta)
    followed by raw little-endian float32 values: the learned tensors in
    param_shapes order, then the extras in header order."""
    shapes = param_shapes(params.config)
    unlike = [name for name, shape in shapes.items() if params[name].shape != shape]
    if unlike:
        raise ShapeError(f"tensors {unlike} do not have the shapes their config implies")
    extras = {k: np.asarray(v, dtype=np.float32) for k, v in sorted((extras or {}).items())}
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": params.config.to_dict(),
        "extras": [[name, list(a.shape)] for name, a in extras.items()],
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"
    with atomic_write(path) as fh:
        fh.write(blob)
        for a in [*(params[name].data for name in shapes), *extras.values()]:
            fh.write(np.ascontiguousarray(a, dtype="<f4").tobytes())


def load_checkpoint(path: Path | str) -> tuple[ModelParams, dict, dict[str, np.ndarray]]:
    """Read a checkpoint; checks its version first, then that its body holds
    exactly the bytes of the tensors its config and listed extras imply."""
    p = Path(path)
    if not p.exists():
        raise DataError(f"checkpoint not found: {p}")
    with open(p, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise DataError(f"checkpoint {p} has no header line")
        try:
            header = json.loads(line.decode("utf-8"))
            version = int(header["format_version"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"invalid checkpoint header in {p}: {exc}") from None
        # an older config may not parse, so the version is checked before it
        if version != CHECKPOINT_VERSION:
            raise DataError(f"unsupported checkpoint version {version} in {p}")
        try:
            cfg = ModelConfig.from_dict(header["config"])
            extras = [(str(n), tuple(int(x) for x in s)) for n, s in header["extras"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"invalid checkpoint header in {p}: {exc}") from None
        meta = header.get("meta", {})
        if not isinstance(meta, dict):
            raise DataError(f"invalid checkpoint header in {p}: meta is not an object")

        layout = [*param_shapes(cfg).items(), *extras]
        seen: set[str] = set()
        for name, shape in layout:
            if name in seen:
                raise DataError(f"checkpoint {p} repeats tensor {name!r}")
            if any(x < 0 for x in shape):
                raise DataError(f"checkpoint {p} tensor {name!r} has a negative dimension: {shape}")
            seen.add(name)
        sizes = [math.prod(shape) for _, shape in layout]
        # the body is read into the one array it becomes, once its size is known to fit
        body = os.fstat(fh.fileno()).st_size - len(line)
        if body == 4 * sum(sizes):
            values = np.empty(sum(sizes), dtype="<f4")
            body = fh.readinto(values)  # short only if the file shrank meanwhile
        if body != 4 * sum(sizes):
            raise DataError(f"checkpoint {p} holds {body} tensor bytes; "
                            f"its config and extras imply {4 * sum(sizes)}")
    values = values.astype(np.float32, copy=False)
    arrays = {name: part.reshape(shape)
              for (name, shape), part in zip(layout, np.split(values, np.cumsum(sizes)[:-1]))}
    tensors = {name: Tensor(arrays.pop(name), requires_grad=True) for name in param_shapes(cfg)}
    return ModelParams(cfg, tensors), meta, arrays
