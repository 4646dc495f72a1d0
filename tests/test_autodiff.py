import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hapticauth import autodiff as ad
from hapticauth.autodiff import Tensor, backward, grad_check
from hapticauth.errors import ShapeError
from hapticauth.model import ffn, linear, mhsa

from oracles import layer_norm_rows, matmul_loops


def t64(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad, dtype=np.float64)


def t64s(rng, *shapes):
    return [t64(rng.normal(size=shape)) for shape in shapes]


def relu_probe():
    """ffn inputs whose pre-activation is exactly [-1, 0, 2], with an
    identity w2, x 0 and the layer norm's gamma 1 and beta 0."""
    return (t64(np.zeros((1, 1, 3))), t64(np.zeros((3, 3))), t64(np.array([-1.0, 0.0, 2.0])),
            t64(np.eye(3)), t64(np.zeros(3)), t64(np.ones(3)), t64(np.zeros(3)))


class TestForwardOps:
    def test_matmul_matches_loop_oracle(self):
        # linear is the model's matmul plus a broadcast bias
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        bias = rng.normal(size=2)
        out = linear(t64(a, grad=False), t64(b, grad=False), t64(bias, grad=False)).data
        np.testing.assert_allclose(out, matmul_loops(a, b) + bias, rtol=1e-12)

    def test_matmul_shape_error_names_shapes(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((4, 2)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            linear(a, b, Tensor(np.zeros(2)))

    def test_layer_norm_standardizes(self):
        # the ffn sublayer's sum x + F(x), layer-normalised with gamma 1 and beta 0
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(3, 5, size=(4, 6, 16)).astype(np.float32))
        w1, b1, w2, b2 = (Tensor(rng.normal(size=s).astype(np.float32) / 4)
                          for s in ((16, 8), (8,), (8, 16), (16,)))
        gamma = Tensor(np.ones(16, dtype=np.float32))
        beta = Tensor(np.zeros(16, dtype=np.float32))
        out = ffn(x, w1, b1, w2, b2, gamma, beta).data
        x64 = x.data.astype(np.float64)
        s = x64 + np.maximum(x64 @ w1.data + b1.data, 0) @ w2.data + b2.data
        np.testing.assert_allclose(out, layer_norm_rows(s, gamma.data, beta.data), atol=1e-5)
        assert np.abs(out.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4

    def test_relu_zero_maps_to_zero(self):
        # ffn's pre-activation here is exactly b1, and w2 passes its relu on
        # to the layer norm, which would move with any value but [0, 0, 2]
        out = ffn(*relu_probe()).data
        np.testing.assert_allclose(out, layer_norm_rows([[[0.0, 0.0, 2.0]]], np.ones(3),
                                                        np.zeros(3)), rtol=1e-12)

    def test_mul_rejects_broadcasting(self):
        with pytest.raises(ShapeError, match=r"\(4, 6\).*\(1, 6\)"):
            ad.mul(Tensor(np.ones((4, 6))), Tensor(np.ones((1, 6))))


class TestBackward:
    def test_scaled_sum_gradient(self):
        x = t64(np.arange(6.0).reshape(2, 3))
        loss = ad.tsum(ad.mul(x, t64(np.full((2, 3), 3.5), grad=False)))
        backward(loss)
        np.testing.assert_allclose(x.grad, np.full((2, 3), 3.5))

    def test_relu_subgradient_contract(self):
        # ffn's relu has derivative 0 at a pre-activation of exactly 0; w1
        # is 0, so x's gradient is the residual sum's, which b1 receives
        # through the relu and the identity w2
        x, w1, b1, w2, b2, gamma, beta = relu_probe()
        w_out = t64(np.array([[[1.0, 2.0, 4.0]]]), grad=False)
        backward(ad.tsum(ad.mul(ffn(x, w1, b1, w2, b2, gamma, beta), w_out)))
        assert x.grad[0, 0, 2] != 0
        np.testing.assert_array_equal(b1.grad, [0.0, 0.0, x.grad[0, 0, 2]])

    def test_fanout_accumulation(self):
        x = t64(np.array([1.0, 2.0, 3.0, 4.0]))
        y = ad.mul(x, x)
        backward(ad.tsum(y))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0, 8.0])

    def test_shared_node_visited_once(self):
        # y feeds two consumers; its backward must fire once with the summed grad
        x = t64(np.array([[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]]))
        y = ad.mean(x, axis=0)
        z = ad.mul(y, y)
        backward(ad.tsum(z))
        np.testing.assert_array_equal(x.grad, [[2.0, 3.0, 4.0], [2.0, 3.0, 4.0]])

    def test_gradient_stored_as_handed_over(self):
        # the first gradient becomes .grad uncopied; a second one sums into a new array
        x = t64(np.zeros(3))
        g1, g2 = np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5, 0.5])
        ad._accumulate(x, g1)
        assert x.grad is g1
        ad._accumulate(x, g2)
        assert x.grad is not g1 and x.grad is not g2
        np.testing.assert_array_equal(x.grad, [1.5, 2.5, 3.5])
        np.testing.assert_array_equal(g1, [1.0, 2.0, 3.0])

    def test_grads_accumulate_across_backward_calls(self):
        x = t64(np.ones(3))
        backward(ad.tsum(x))
        backward(ad.tsum(ad.mul(x, t64(np.full(3, 2.0), grad=False))))
        np.testing.assert_array_equal(x.grad, [3.0, 3.0, 3.0])

    def test_second_backward_through_a_graph_raises(self):
        # backward frees each node once it has run; a second pass through
        # one must not silently add nothing
        x = t64(np.arange(3.0))
        y = ad.mul(x, x)
        loss = ad.tsum(y)
        backward(loss)
        with pytest.raises(RuntimeError, match="already backpropagated"):
            backward(loss)
        with pytest.raises(RuntimeError, match="already backpropagated"):
            backward(ad.tsum(ad.mul(y, y)))  # a new graph through the freed y
        np.testing.assert_array_equal(x.grad, [0.0, 2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = t64(np.ones((2, 2)))
        with pytest.raises(ShapeError):
            backward(ad.mul(x, t64(np.ones((2, 2)), grad=False)))

    def test_no_graph_recorded_without_requires_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=False)
        out = ad.tsum(ad.mean(ad.mul(x, Tensor(np.full((2, 2), 2.0))), axis=0))
        assert out._parents == () and out._backward is None


class TestPerOpGradients:
    """Every op's backward against central differences on random small shapes."""

    def check(self, build, tensors, tol=1e-7, seed=0, eps=1e-6):
        err = grad_check(build, tensors, eps=eps, num_samples=200, seed=seed)
        assert err < tol, f"max relative error {err}"

    def test_matmul_batched(self):
        # linear on a 3-D input: one 2-D weight-gradient GEMM over B·L rows
        rng = np.random.default_rng(3)
        x, w, b = t64s(rng, (2, 3, 4), (4, 5), (5,))
        w_out = Tensor(rng.normal(size=(2, 3, 5)), dtype=np.float64)
        self.check(lambda: ad.tsum(ad.mul(linear(x, w, b), w_out)), [x, w, b])

    def test_mul(self):
        rng = np.random.default_rng(5)
        a, b = t64s(rng, (4, 6), (4, 6))
        self.check(lambda: ad.tsum(ad.mul(a, b)), [a, b])

    def test_relu_away_from_kink(self):
        # the ffn sublayer with every pre-activation clear of the relu kink
        for seed in itertools.count(7):
            rng = np.random.default_rng(seed)
            x, w1, b1, w2, b2 = t64s(rng, (2, 3, 4), (4, 6), (6,), (6, 4), (4,))
            if np.abs(x.data @ w1.data + b1.data).min() > 0.05:
                break
        w_out = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64)
        gamma, beta = t64s(rng, (4,), (4,))
        # a step of 1e-6 on this sum of ~12 leaves ~3e-9 of rounding noise,
        # 3e-7 of the smallest gradient; at 1e-5 (no pre-activation lies
        # within it of the kink) the check reads 5e-8
        self.check(lambda: ad.tsum(ad.mul(ffn(x, w1, b1, w2, b2, gamma, beta), w_out)),
                   [x, w1, b1, w2, b2, gamma, beta], eps=1e-5)

    def test_layer_norm(self):
        # the attention sublayer's residual sum and layer norm
        rng = np.random.default_rng(9)
        x, wq, wk, wv, wo, gamma, beta = t64s(rng, (2, 3, 8), *[(8, 8)] * 4, (8,), (8,))
        w_out = Tensor(rng.normal(size=(2, 3, 8)), dtype=np.float64)
        ws = [wq, wk, wv, wo, gamma, beta]
        self.check(lambda: ad.tsum(ad.mul(mhsa(x, *ws, 2), w_out)), [x, *ws], tol=1e-6)

    def test_mean_axis(self):
        rng = np.random.default_rng(10)
        (a,) = t64s(rng, (3, 4, 5))
        w = Tensor(rng.normal(size=(3, 5)), dtype=np.float64)
        self.check(lambda: ad.tsum(ad.mul(ad.mean(a, axis=1), w)), [a])


# every fused op in float64 over drawn shapes, against central differences.
# A checked sum of up to ~200 terms carries up to ~200 * 2^-52 / eps ~ 5e-9
# of rounding noise, so gradients below 1e-2 are not sampled; weights in
# [0.5, 1.5] keep each bias gradient, a sum of them, above that at every
# drawn shape
DRAWN = dict(eps=1e-5, num_samples=60, min_magnitude=1e-2)
dims = st.integers(1, 6)


def weights_out(rng, shape):
    return Tensor(rng.uniform(0.5, 1.5, size=shape), dtype=np.float64)


class TestDrawnShapeGradients:
    @settings(max_examples=15, deadline=None)
    @given(bsz=dims, length=dims, n=dims, m=dims, seed=st.integers(0, 2**16))
    def test_linear(self, bsz, length, n, m, seed):
        rng = np.random.default_rng(seed)
        x, w, b = t64s(rng, (bsz, length, n), (n, m), (m,))
        w_out = weights_out(rng, (bsz, length, m))
        err = grad_check(lambda: ad.tsum(ad.mul(linear(x, w, b), w_out)), [x, w, b], **DRAWN)
        assert err < 1e-6, f"max relative error {err}"

    # d reaches 12, the widest layer norm the drawn checks reach
    @settings(max_examples=15, deadline=None)
    @given(bsz=dims, length=dims, d=st.integers(1, 12), f=dims, seed=st.integers(0, 2**16))
    def test_ffn(self, bsz, length, d, f, seed):
        rng = np.random.default_rng(seed)
        x, w1, b1, w2, b2 = t64s(rng, (bsz, length, d), (d, f), (f,), (f, d), (d,))
        # a difference step of 1e-5 must not carry a pre-activation across 0
        pre = x.data @ w1.data + b1.data
        assume(np.abs(pre).min() > 1e-3)
        # layer norm's curvature grows as 1/std^3: a near-constant row of
        # x + F(x) makes the differences' truncation error, not the
        # backward, the limit (a one-wide row normalises to beta, flat)
        s = x.data + np.maximum(pre, 0) @ w2.data + b2.data
        assume(d == 1 or s.std(axis=-1).min() > 0.1)
        w_out = weights_out(rng, (bsz, length, d))
        gamma, beta = t64s(rng, (d,), (d,))
        err = grad_check(lambda: ad.tsum(ad.mul(ffn(x, w1, b1, w2, b2, gamma, beta), w_out)),
                         [x, w1, b1, w2, b2, gamma, beta], **DRAWN)
        assert err < 1e-6, f"max relative error {err}"


class TestGradCheck:
    def test_quadratic_below_1e9(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.uniform(0.5, 2.0, 40) * rng.choice([-1.0, 1.0], 40),
                   requires_grad=True, dtype=np.float64)
        err = grad_check(lambda: ad.tsum(ad.mul(x, x)), [x], eps=1e-5, num_samples=40)
        assert err < 1e-9

    @pytest.mark.parametrize("num_samples", [0, -1])
    def test_no_samples_is_an_error(self, num_samples):
        x = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        with pytest.raises(ValueError, match="num_samples"):
            grad_check(lambda: ad.tsum(ad.mul(x, x)), [x], num_samples=num_samples)

    def test_softmax_cross_entropy_below_1e6(self):
        from hapticauth.model import cross_entropy
        rng = np.random.default_rng(13)
        logits = t64(rng.normal(size=(6, 5)))
        labels = rng.integers(0, 5, size=6)
        err = grad_check(lambda: cross_entropy(logits, labels), [logits],
                         eps=1e-6, num_samples=30)
        assert err < 1e-6

    def test_full_two_layer_transformer(self):
        # whole-architecture gradient on a 2 x 8 x 13 batch, reduced width
        from hapticauth.model import ModelConfig, build_model, cross_entropy, draw_kink_free_batch, forward
        cfg = ModelConfig(d_model=32, num_heads=4, ffn_dim=32, num_layers=2,
                          num_classes=4, seq_len=8)
        params = build_model(cfg, seed=2).astype(np.float64)
        batch, labels = draw_kink_free_batch(params, 2, seed=1)
        err = grad_check(lambda: cross_entropy(forward(params, batch), labels),
                         dict(params.items()), eps=1e-5, num_samples=250, seed=2)
        assert err < 1e-4

    def test_detects_wrong_gradient(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.uniform(0.5, 1.5, 10), requires_grad=True, dtype=np.float64)

        def broken():
            loss = ad.tsum(ad.mul(x, x))
            # numeric value depends on x but the graph does not see this factor
            return ad.mul(loss, Tensor(1 + 0.5 * float((x.data ** 3).sum()), dtype=np.float64))

        err = grad_check(broken, [x], eps=1e-5, num_samples=10)
        assert err > 1e-2

    @pytest.mark.parametrize("min_magnitude", [0.0, 1e-6])
    @pytest.mark.parametrize("nan_share", [1.0, 0.5])
    def test_nan_gradient_is_an_infinite_error(self, min_magnitude, nan_share):
        # max(worst, nan) keeps worst, and |nan| >= floor is never sampled
        x = Tensor(np.linspace(0.5, 1.5, 10), requires_grad=True, dtype=np.float64)

        def nan_backward():
            loss = ad.tsum(ad.mul(x, x))
            grad = 2.0 * x.data
            grad[:int(nan_share * x.data.size)] = np.nan
            return ad._make(loss.data, (x,), lambda g: ad._accumulate(x, g * grad))

        err = grad_check(nan_backward, [x], eps=1e-5, num_samples=10,
                         min_magnitude=min_magnitude)
        assert err == math.inf

    def test_nan_loss_is_an_infinite_error(self):
        # a NaN relative error, from a loss that turns NaN off the base point
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)
        base = x.data.copy()

        def f():
            loss = ad.tsum(ad.mul(x, x))
            if not np.array_equal(x.data, base):
                loss.data = np.asarray(np.nan)
            return loss

        assert grad_check(f, [x], eps=1e-5, num_samples=2) == math.inf


class TestStepBuffers:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 5000), st.integers(1, 6)), min_size=1, max_size=30))
    def test_pack_never_overlaps_two_live_arrays(self, arrays):
        # array i lives over allocations [i, deaths[i]); two that live at the
        # same time get disjoint, aligned byte ranges inside the slab
        sizes = [size for size, _ in arrays]
        deaths = [min(i + life, len(arrays)) for i, (_, life) in enumerate(arrays)]
        offsets, nbytes = ad._pack(sizes, deaths)
        for i, j in itertools.combinations(range(len(sizes)), 2):
            assert offsets[i] % ad._ALIGN == 0 and offsets[i] + sizes[i] <= nbytes
            if j < deaths[i]:
                assert (offsets[i] + sizes[i] <= offsets[j]
                        or offsets[j] + sizes[j] <= offsets[i]), (i, j)

    def test_replay_never_hands_out_a_live_region(self):
        slab = ad._Slab()

        def step():
            a = ad._empty((256,), np.float32)
            a[:] = 1
            del a  # so the next array is planned over a's bytes
            return ad._empty((256,), np.float32)

        with slab.step("k"):
            step()
        with slab.step("k"):
            held = step()
        assert held.base is not None  # a region of the slab
        held[:] = 7
        with slab.step("k"):
            step()
        assert (held == 7).all()

    def test_other_threads_allocate_as_before(self):
        import threading
        slab = ad._Slab()
        with slab.step("k"):
            ad._empty((64,), np.float32)
        seen = []
        with slab.step("k"):
            worker = threading.Thread(target=lambda: seen.append(ad._empty((64,), np.float32)))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            mine = ad._empty((64,), np.float32)
        assert seen[0].base is None and mine.base is not None
