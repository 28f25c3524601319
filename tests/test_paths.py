import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathqv as pq
from pathqv.paths import fgn_autocov


class TestBrownian:
    def test_starts_at_zero_with_right_increment_count(self):
        w = pq.gen_brownian(1, 4, 1.0, 1)
        assert w.samples.shape == (17, 1)
        assert w.samples[0, 0] == 0.0
        assert np.all(np.isfinite(w.samples))

    def test_increment_variance_within_five_se(self):
        # chi-square oracle: sample variance of n iid N(0, s2) has SE s2*sqrt(2/n)
        for seed in (0, 1, 2):
            M, T = 12, 1.0
            w = pq.gen_brownian(seed, M, T)
            inc = np.diff(w.scalar())
            n = len(inc)
            s2 = T / 2**M
            se = s2 * math.sqrt(2.0 / n)
            assert abs(inc.var(ddof=0) - s2) < 5 * se

    def test_deterministic_for_fixed_seed(self):
        a = pq.gen_brownian(1, 6, 1.0, 2)
        b = pq.gen_brownian(1, 6, 1.0, 2)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("M,d", [(10, 1), (14, 3)])
    def test_in_place_draw_matches_three_step_formula(self, M, d):
        # the stream and the summation order of draw, scale, cumsum into a
        # separate increment array, which the in-place generator must keep
        rng = np.random.default_rng(11)
        inc = rng.standard_normal((2**M, d)) * math.sqrt(2.0 / 2**M)
        expect = np.vstack([np.zeros((1, d)), np.cumsum(inc, axis=0)])
        w = pq.gen_brownian(11, M, 2.0, d)
        assert w.samples.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("bad", [dict(M=3), dict(T=0.0), dict(T=-1.0), dict(d=0)])
    def test_parameter_errors(self, bad):
        kwargs = dict(seed=0, M=6, T=1.0, d=1)
        kwargs.update(bad)
        with pytest.raises(pq.ParameterError):
            pq.gen_brownian(kwargs["seed"], kwargs["M"], kwargs["T"], kwargs["d"])


class TestFbm:
    def test_half_hurst_increment_covariance_is_brownian(self):
        cov = fgn_autocov(0.5, np.arange(0, 10))
        assert cov[0] == 1.0
        assert np.all(cov[1:] == 0.0)

    def test_high_hurst_qv_vanishes(self):
        # zero-QV oracle: direct summation of squared increments, 100 seeds
        qvs = [
            float(np.sum(np.diff(pq.gen_fbm(s, 14, 1.0, 0.75).scalar()) ** 2))
            for s in range(100)
        ]
        assert np.mean(qvs) < 0.05
        assert max(qvs) < 0.05

    def test_reproducible(self):
        a = pq.gen_fbm(9, 8, 1.0, 0.3)
        b = pq.gen_fbm(9, 8, 1.0, 0.3)
        assert np.array_equal(a.samples, b.samples)
        assert a.meta.params["cholesky_fallback"] == 0.0

    @pytest.mark.parametrize("H", [0.0, 1.0, -0.2, 1.5])
    def test_hurst_range(self, H):
        with pytest.raises(pq.ParameterError):
            pq.gen_fbm(0, 8, 1.0, H)

    def test_increment_autocov_matches_theory(self):
        # empirical lag-1 autocovariance over seeds against the fGn formula
        H, M = 0.75, 10
        dt = 2.0**-M
        lag1 = []
        for s in range(200):
            inc = np.diff(pq.gen_fbm(s, M, 1.0, H).scalar())
            lag1.append(np.mean(inc[1:] * inc[:-1]))
        expect = fgn_autocov(H, [1])[0] * dt ** (2 * H)
        assert abs(np.mean(lag1) - expect) < 5 * np.std(lag1) / math.sqrt(len(lag1))


def _fbm_three_temporaries(seed, M, T, H):
    """gen_fbm written with an uncached spectrum and a separate draw, scale and
    sum: the stream and the float operations the generator must reproduce."""
    n = 2**M
    gamma = fgn_autocov(H, np.arange(n + 1))
    eig = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    scale = np.sqrt(np.clip(eig, 0.0, None) / (2 * n))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    fgn = np.fft.fft(scale * z).real[:n]
    return np.concatenate([[0.0], np.cumsum(fgn * (T / n) ** H)])


class TestFbmInPlaceDraw:
    @pytest.mark.parametrize("H", [0.1, 0.5, 0.75, 0.95])
    def test_matches_three_temporary_formula(self, H):
        for seed, T in ((3, 1.0), (4, 2.5)):
            path = pq.gen_fbm(seed, 12, T, H)
            assert path.samples[:, 0].tobytes() == _fbm_three_temporaries(seed, 12, T, H).tobytes()
            assert path.meta.params["cholesky_fallback"] == 0.0

    def test_mixed_matches_sum_of_components(self):
        m = pq.gen_mixed(8, 12, 1.0, 0.7, 0.5)
        bm = pq.gen_brownian(pq.derive_subseed(8, "mixed-bm"), 12, 1.0, 1)
        fbm = pq.gen_fbm(pq.derive_subseed(8, "mixed-fbm"), 12, 1.0, 0.7)
        assert m.samples.tobytes() == (bm.samples + 0.5 * fbm.samples).tobytes()


class TestMasterLevelBound:
    def test_generators_refuse_before_allocating(self):
        # at M=64 a generator without the bound fails in numpy before it
        # allocates anything, so a broken check cannot exhaust memory here
        with pytest.raises(pq.ParameterError, match=f"4..{pq.paths.MAX_LEVEL}"):
            pq.gen_brownian(0, 64, 1.0)
        with pytest.raises(pq.ParameterError, match=f"4..{pq.paths.MAX_LEVEL}"):
            pq.gen_fbm(0, 64, 1.0, 0.7)

    def test_sampled_path_refuses_level_beyond_bound(self):
        with pytest.raises(pq.ParameterError, match=f"4..{pq.paths.MAX_LEVEL}"):
            pq.SampledPath(1.0, pq.paths.MAX_LEVEL + 1, 1, np.zeros(17), pq.PathMeta("custom"))


class TestMixed:
    def test_delta_zero_equals_brownian_subseed(self):
        m = pq.gen_mixed(5, 8, 1.0, 0.75, 0.0)
        b = pq.gen_brownian(pq.derive_subseed(5, "mixed-bm"), 8, 1.0, 1)
        assert np.array_equal(m.samples, b.samples)

    def test_qv_stays_brownian(self):
        # QV oracle by direct summation: [B + dB^H] = [B] for H > 1/2
        qvs = [
            float(np.sum(np.diff(pq.gen_mixed(s, 14, 1.0, 0.75, 1.0).scalar()) ** 2))
            for s in range(100)
        ]
        assert abs(np.mean(qvs) - 1.0) < 0.1

    def test_same_seed_identical(self):
        a = pq.gen_mixed(3, 8, 1.0, 0.8, 0.5)
        b = pq.gen_mixed(3, 8, 1.0, 0.8, 0.5)
        assert np.array_equal(a.samples, b.samples)

    def test_low_hurst_rejected(self):
        with pytest.raises(pq.ParameterError):
            pq.gen_mixed(0, 8, 1.0, 0.5, 1.0)


class TestDeterministic:
    def test_constant(self):
        p = pq.gen_deterministic("constant", {"c": 3.0}, 6, 1.0)
        assert np.all(p.samples == 3.0)

    def test_linear_exact_grid_values(self):
        M = 8
        p = pq.gen_deterministic("linear", {"slope": 1.0}, M, 1.0)
        assert np.array_equal(p.scalar(), np.arange(2**M + 1) / 2**M)

    def test_takagi_holder_estimate(self):
        # the regression is its own oracle, cross-checked at two resolutions
        for M in (12, 14):
            h = pq.estimate_holder(pq.gen_deterministic("takagi", {}, M, 1.0))
            assert 0.8 < h.alpha_hat <= 1.0
            assert h.fit_r2 > 0.9

    def test_weierstrass_parameter_validation(self):
        with pytest.raises(pq.ParameterError):
            pq.gen_deterministic("weierstrass", {"a": 0.5, "b": 4}, 8, 1.0)
        with pytest.raises(pq.ParameterError):
            pq.gen_deterministic("weierstrass", {"a": 0.2, "b": 3}, 8, 1.0)

    def test_unknown_kind(self):
        with pytest.raises(pq.ParameterError):
            pq.gen_deterministic("sawtooth", {}, 8, 1.0)


class TestEstimateHolder:
    def test_linear_is_lipschitz(self):
        h = pq.estimate_holder(pq.gen_deterministic("linear", {"slope": 2.0}, 10, 1.0))
        assert 0.95 <= h.alpha_hat <= 1.0
        assert not h.degenerate

    def test_brownian_range(self):
        # Monte Carlo oracle: estimates concentrate near 1/2 minus log factors
        alphas = np.array(
            [pq.estimate_holder(pq.gen_brownian(s, 16, 1.0)).alpha_hat for s in range(100)]
        )
        assert np.mean((alphas > 0.35) & (alphas < 0.55)) >= 0.9

    def test_fbm_range(self):
        alphas = [
            pq.estimate_holder(pq.gen_fbm(s, 16, 1.0, 0.75)).alpha_hat for s in range(20)
        ]
        assert all(0.6 < a < 0.85 for a in alphas)

    def test_constant_degenerate(self):
        h = pq.estimate_holder(pq.gen_deterministic("constant", {"c": 1.0}, 8, 1.0))
        assert h.degenerate and h.alpha_hat == 1.0

    def test_needs_level_eight(self):
        with pytest.raises(pq.ParameterError):
            pq.estimate_holder(pq.gen_brownian(0, 6, 1.0))


@given(seed=st.integers(0, 2**63 - 1), M=st.integers(4, 8), d=st.integers(1, 3))
@settings(max_examples=25)
def test_generation_is_pure(seed, M, d):
    a = pq.gen_brownian(seed, M, 1.0, d)
    b = pq.gen_brownian(seed, M, 1.0, d)
    assert np.array_equal(a.samples, b.samples)
    assert np.all(a.samples[0] == 0.0)


@given(seed=st.integers(0, 2**32 - 1), tag=st.text(min_size=0, max_size=20))
def test_subseed_stable_and_in_range(seed, tag):
    s1 = pq.derive_subseed(seed, tag)
    assert s1 == pq.derive_subseed(seed, tag)
    assert 0 <= s1 < 2**64


def test_master_grid_times_are_exact_dyadics():
    p = pq.gen_brownian(0, 6, 1.0)
    assert p.times[32] == 0.5
    assert p.times[-1] == 1.0
