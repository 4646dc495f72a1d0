import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hapticauth import NormStats, ema_filter, filter_trace, resample, zscore_apply, zscore_fit
from hapticauth.errors import ConfigError, DataError, ShapeError

from conftest import make_trace
from oracles import ema_recurrence, two_pass_stats


class TestEmaFilter:
    def test_constant_input_fixed_point(self):
        x = np.full((50, 3), 2.5, dtype=np.float32)
        for alpha in (0.001, 0.3, 1.0):
            np.testing.assert_array_equal(ema_filter(x, alpha), x)

    def test_alpha_one_identity_exact(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 3, size=(300, 3)).astype(np.float32)
        np.testing.assert_array_equal(ema_filter(x, 1.0), x)

    def test_unit_step_matches_recurrence_and_closed_form(self):
        x = np.ones((1001, 1), dtype=np.float32)
        x[0] = 0.0
        y = ema_filter(x, 0.001)
        np.testing.assert_array_equal(y, ema_recurrence(x, 0.001))
        # frozen from the recurrence oracle; closed form 1 - 0.999**1000 = 0.63230457...
        assert y[1000, 0] == np.float32(0.6323046)
        assert abs(y[1000, 0] - (1 - 0.999**1000)) < 1e-4

    def test_bit_identical_to_recurrence(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 400))
            x = rng.normal(0, 5, size=(n, 3)).astype(np.float32)
            alpha = float(rng.uniform(0.0005, 0.9))
            np.testing.assert_array_equal(ema_filter(x, alpha), ema_recurrence(x, alpha))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), t=st.integers(1, 40), c=st.integers(1, 5),
           alpha=st.sampled_from([1e-46, 1e-45, 1e-38, 1e-20, 1e-7, 0.999999])
           | st.floats(0, 1, exclude_min=True, exclude_max=True))
    def test_bit_identical_to_recurrence_over_drawn_shapes(self, data, t, c, alpha):
        edges = np.float32([0.0, -0.0, 1e-45, -1e-45, 1e-40, 1.1754942e-38, 3.4028235e38,
                            -3.4028235e38, 1e30]).tolist()  # subnormal, tiny and huge
        x = data.draw(arrays(np.float32, (t, c), elements=st.sampled_from(edges)
                             | st.floats(width=32, allow_nan=False, allow_infinity=False)))
        with np.errstate(over="ignore", invalid="ignore"):  # large inputs may overflow to inf and nan
            got, want = ema_filter(x, alpha), ema_recurrence(x, alpha)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_alpha_out_of_range(self):
        x = np.zeros((3, 3), dtype=np.float32)
        for alpha in (0.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                ema_filter(x, alpha)

    def test_bounded_by_running_extrema(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 2, size=(256, 3)).astype(np.float32)
        y = ema_filter(x, 0.05)
        run_min = np.minimum.accumulate(x, axis=0)
        run_max = np.maximum.accumulate(x, axis=0)
        eps = 1e-6 * np.abs(x).max()
        assert (y >= run_min - eps).all()
        assert (y <= run_max + eps).all()

    def test_commutes_with_scaling(self):
        rng = np.random.default_rng(6)
        x = rng.normal(0, 1, size=(200, 3)).astype(np.float32)
        c = np.float32(3.7)
        a = ema_filter(c * x, 0.01)
        b = c * ema_filter(x, 0.01)
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6)

    def test_filter_trace_sets_variant(self):
        tr = make_trace(np.random.default_rng(7), n=64)
        f = filter_trace(tr, 0.001)
        assert f.variant == "filtered"
        assert f.key[:3] == tr.key[:3]
        np.testing.assert_array_equal(f.timestamps, tr.timestamps)
        np.testing.assert_array_equal(f.forces, ema_recurrence(tr.forces, 0.001))


class TestResample:
    def test_identity_when_same_length(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(17, 4)).astype(np.float32)
        np.testing.assert_array_equal(resample(x, 17), x)

    def test_constant(self):
        x = np.full((9, 2), 1.25)
        out = resample(x, 40)
        assert out.shape == (40, 2)
        np.testing.assert_array_equal(out, np.full((40, 2), 1.25))

    def test_linear_ramp(self):
        x = np.arange(5, dtype=np.float64)[:, None]
        np.testing.assert_allclose(resample(x, 3)[:, 0], [0.0, 2.0, 4.0], atol=1e-12)

    def test_endpoints_preserved(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(31, 3))
        for L in (2, 7, 31, 100):
            out = resample(x, L)
            np.testing.assert_allclose(out[0], x[0], atol=1e-12)
            np.testing.assert_allclose(out[-1], x[-1], atol=1e-12)

    def test_bounds_preserved(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(50, 3))
        out = resample(x, 333)
        assert (out.min(axis=0) >= x.min(axis=0) - 1e-12).all()
        assert (out.max(axis=0) <= x.max(axis=0) + 1e-12).all()

    def test_too_short(self):
        with pytest.raises(ShapeError):
            resample(np.zeros((1, 3)), 8)
        with pytest.raises(ConfigError):
            resample(np.zeros((5, 3)), 1)


class TestZscore:
    def test_all_zero_sequence_clamps_std(self):
        stats = zscore_fit([np.zeros((10, 13), dtype=np.float32)])
        np.testing.assert_array_equal(stats.mean, np.zeros(13, dtype=np.float32))
        np.testing.assert_array_equal(stats.std, np.full(13, 1e-8, dtype=np.float32))

    def test_two_point_channel(self):
        seq = np.zeros((2, 13), dtype=np.float32)
        seq[0, 0], seq[1, 0] = 1.0, 3.0
        stats = zscore_fit([seq])
        assert stats.mean[0] == pytest.approx(2.0)
        assert stats.std[0] == pytest.approx(1.0)  # population std

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(11)
        seqs = [rng.normal(3.0, 2.5, size=(int(rng.integers(4, 40)), 13)).astype(np.float32)
                for _ in range(12)]
        stats = zscore_fit(seqs)
        mean, std = two_pass_stats(seqs)
        np.testing.assert_allclose(stats.mean, mean, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(stats.std, std, rtol=1e-4, atol=1e-5)

    def test_apply_centers_own_data(self):
        rng = np.random.default_rng(12)
        seq = rng.normal(5.0, 3.0, size=(64, 13)).astype(np.float32)
        stats = zscore_fit([seq])
        out = zscore_apply(seq, stats)
        assert np.abs(out.mean(axis=0)).max() < 1e-5

    def test_identity_stats(self):
        seq = np.random.default_rng(13).normal(size=(8, 13)).astype(np.float32)
        stats = NormStats(mean=np.zeros(13), std=np.ones(13))
        np.testing.assert_array_equal(zscore_apply(seq, stats), seq)

    def test_pooled_normalization_invariant(self):
        rng = np.random.default_rng(15)
        seqs = [rng.normal(-2.0, 0.7, size=(50, 13)).astype(np.float32) for _ in range(8)]
        stats = zscore_fit(seqs)
        pooled = np.concatenate([zscore_apply(s, stats) for s in seqs])
        assert np.abs(pooled.mean(axis=0)).max() < 1e-5
        assert np.abs(pooled.std(axis=0) - 1.0).max() < 1e-3

    def test_errors(self):
        with pytest.raises(DataError):
            zscore_fit([])
        stats = zscore_fit([np.zeros((4, 13), dtype=np.float32)])
        with pytest.raises(ShapeError):
            zscore_apply(np.zeros((4, 12), dtype=np.float32), stats)
