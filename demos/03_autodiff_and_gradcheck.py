"""The reverse-mode engine under the model, and how it is verified.

Builds a few graphs by hand, checks the fused attention op, then runs the
finite-difference check on the full two-layer encoder in float64: every
sampled analytic derivative must match (f(t+e) - f(t-e)) / 2e.
"""

import numpy as np

from hapticauth import ModelConfig, build_model, cross_entropy, forward, mhsa
from hapticauth import autodiff as ad
from hapticauth.autodiff import Tensor, backward, grad_check
from hapticauth.model import draw_kink_free_batch

# --- a tiny graph by hand ---------------------------------------------------
x = Tensor(np.array([1.0, -2.0, 3.0], dtype=np.float32), requires_grad=True)
w = Tensor(np.array([0.5, 4.0, -1.0], dtype=np.float32))
backward(ad.tsum(ad.mul(x, w)))    # weighted sum
print(f"d(sum w*x)/dx = {x.grad}   (expected w = {w.data})")

x.zero_grad()
z = ad.mul(x, x)                   # fan-out: both factors are x, so their gradients add
backward(ad.tsum(z))
print(f"d(sum x*x)/dx = {x.grad}   (expected 2x = {2 * x.data})")

# --- attention is one fused op with a hand-written backward ------------------
rng = np.random.default_rng(0)
xa = Tensor(rng.standard_normal((2, 5, 8)), requires_grad=True, dtype=np.float64)
ws = [Tensor(rng.standard_normal((8, 8)) / np.sqrt(8), requires_grad=True, dtype=np.float64)
      for _ in range(4)]
weights = Tensor(rng.standard_normal((2, 5, 8)), dtype=np.float64)
attn = mhsa(xa, *ws, num_heads=2)
print(f"mhsa: one graph node with {len(attn._parents)} parents (x, wq, wk, wv, wo)")
err = grad_check(lambda: ad.tsum(ad.mul(mhsa(xa, *ws, num_heads=2), weights)), [xa, *ws],
                 eps=1e-6, num_samples=100)
print(f"gradcheck on mhsa alone: max relative error {err:.2e}")

# --- the model is one big graph ----------------------------------------------
cfg = ModelConfig(d_model=64, num_heads=8, ffn_dim=64, num_layers=2,
                  num_classes=5, seq_len=16)
params = build_model(cfg, seed=3)
batch = np.random.default_rng(0).standard_normal((4, 16, 13)).astype(np.float32)
logits = forward(params, batch)
loss = cross_entropy(logits, np.array([0, 1, 2, 3]))
backward(loss)
grads = {k: t.grad for k, t in params.items()}
print(f"\nforward+backward: loss {float(loss.data):.4f}, "
      f"{sum(g.size for g in grads.values())} gradient entries populated")

# --- finite-difference verification in float64 -------------------------------
params64 = build_model(cfg, seed=3).astype(np.float64)
check_batch, check_labels = draw_kink_free_batch(params64, 2, seed=1)
err = grad_check(lambda: cross_entropy(forward(params64, check_batch), check_labels),
                 dict(params64.items()), eps=1e-5, num_samples=200, seed=1,
                 min_magnitude=1e-6)
print(f"gradcheck on the 2-layer encoder: max relative error {err:.2e} "
      f"({'OK' if err < 1e-4 else 'BROKEN'})")
