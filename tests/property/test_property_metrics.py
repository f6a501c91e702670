"""Hypothesis properties of the metric references."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.metrics.autocorrelation import (
    series_autocorrelation,
    spatial_autocorrelation,
)
from repro.metrics.correlation import pearson
from repro.metrics.error_stats import error_pdf, error_stats
from repro.metrics.properties import entropy
from repro.metrics.reductions import dot
from repro.metrics.rate_distortion import rate_distortion
from repro.metrics.ssim import SsimConfig, ssim3d

SETTINGS = settings(max_examples=30, deadline=None)

fields = hnp.arrays(
    dtype=np.float32,
    shape=st.tuples(
        st.integers(4, 8), st.integers(4, 9), st.integers(4, 10)
    ),
    elements=st.floats(-1e3, 1e3, width=32),
)

pairs = st.tuples(fields, st.integers(0, 2**31 - 1))


def perturb(field: np.ndarray, seed: int, scale: float = 0.1) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (
        field + rng.normal(scale=scale, size=field.shape).astype(np.float32)
    ).astype(np.float32)


class TestErrorStatsProperties:
    @SETTINGS
    @given(pairs)
    def test_min_le_avg_le_max(self, pair):
        field, seed = pair
        stats = error_stats(field, perturb(field, seed))
        assert stats.min_err <= stats.avg_err <= stats.max_err
        assert stats.avg_abs_err >= abs(stats.avg_err) - 1e-12
        assert stats.max_abs_err == max(abs(stats.min_err), abs(stats.max_err))

    @SETTINGS
    @given(pairs)
    def test_antisymmetric_in_arguments(self, pair):
        field, seed = pair
        dec = perturb(field, seed)
        fwd = error_stats(field, dec)
        rev = error_stats(dec, field)
        assert fwd.max_err == -rev.min_err
        assert fwd.avg_err == -rev.avg_err

    @SETTINGS
    @given(pairs)
    def test_pdf_normalised(self, pair):
        field, seed = pair
        pdf = error_pdf(field, perturb(field, seed), bins=64)
        assert math.isclose(pdf.integral(), 1.0, rel_tol=1e-6)


class TestRateDistortionProperties:
    @SETTINGS
    @given(pairs)
    def test_mse_nonnegative_and_consistent(self, pair):
        field, seed = pair
        rd = rate_distortion(field, perturb(field, seed))
        assert rd.mse >= 0
        assert rd.rmse == math.sqrt(rd.mse)

    @SETTINGS
    @given(fields)
    def test_lossless_extremes(self, field):
        rd = rate_distortion(field, field.copy())
        assert rd.mse == 0.0
        assert rd.psnr == math.inf or math.isnan(rd.psnr)

    @SETTINGS
    @given(pairs, st.floats(1.5, 4.0))
    def test_scaling_noise_lowers_psnr(self, pair, factor):
        field, seed = pair
        small = perturb(field, seed, scale=0.05)
        big = field + (small - field) * np.float32(factor)
        rd_small = rate_distortion(field, small)
        rd_big = rate_distortion(field, big)
        if math.isfinite(rd_small.psnr) and math.isfinite(rd_big.psnr):
            assert rd_big.psnr < rd_small.psnr + 1e-9


class TestSsimProperties:
    @SETTINGS
    @given(fields)
    def test_self_similarity_is_one(self, field):
        # tolerance covers the cancellation in var/cov moments for
        # near-constant fields at large magnitudes
        result = ssim3d(field, field.copy(), SsimConfig(window=4))
        assert math.isclose(result.ssim, 1.0, abs_tol=1e-6)

    @SETTINGS
    @given(pairs)
    def test_bounded_above(self, pair):
        field, seed = pair
        result = ssim3d(field, perturb(field, seed), SsimConfig(window=4))
        assert result.max_window_ssim <= 1.0 + 1e-9
        assert result.min_window_ssim <= result.ssim <= result.max_window_ssim

    @SETTINGS
    @given(pairs)
    def test_symmetric_under_swap(self, pair):
        """With a fixed dynamic range, SSIM(a,b) == SSIM(b,a)."""
        field, seed = pair
        dec = perturb(field, seed)
        cfg = SsimConfig(window=4, dynamic_range=10.0)
        assert math.isclose(
            ssim3d(field, dec, cfg).ssim, ssim3d(dec, field, cfg).ssim,
            rel_tol=1e-9, abs_tol=1e-12,
        )


class TestAutocorrelationProperties:
    @SETTINGS
    @given(fields)
    def test_lag_zero_one_and_bounded(self, field):
        # Eq. 2 normalises the valid-region cross-sum by the *global*
        # variance, so the estimator is bounded by n/ne(tau) (Cauchy-
        # Schwarz), not by 1 — a spike field with a tiny valid region
        # legitimately exceeds 1 at large lags.
        ac = spatial_autocorrelation(field.astype(np.float64), 3)
        assert ac[0] == 1.0
        assert np.all(np.isfinite(ac))
        n = field.size
        for tau in range(1, 4):
            ne = (field.shape[0] - tau) * (field.shape[1] - tau) * (
                field.shape[2] - tau
            )
            assert abs(ac[tau]) <= n / ne + 1e-6

    @SETTINGS
    @given(hnp.arrays(np.float64, st.integers(20, 200),
                      elements=st.floats(-100, 100)))
    def test_series_bounded(self, series):
        ac = series_autocorrelation(series, 5)
        assert ac[0] == 1.0
        assert np.all(np.abs(ac) <= 1.0 + 1e-9)
        # the BLAS-free reduction behind the direct estimator agrees with
        # the exactly rounded sum within the recursive-summation bound
        for k in (0, 1, 5):
            a, b = series[: series.size - k], series[k:]
            exact = math.fsum(a * b)
            bound = a.size * 2.3e-16 * math.fsum(np.abs(a * b))
            assert abs(dot(a, b) - exact) <= bound

    @SETTINGS
    @given(fields, st.floats(0.1, 10.0), st.floats(-50.0, 50.0))
    def test_affine_invariance(self, field, scale, shift):
        e = field.astype(np.float64)
        a = spatial_autocorrelation(e, 2)
        b = spatial_autocorrelation(scale * e + shift, 2)
        if e.var() > 1e-12:
            assert np.allclose(a, b, atol=1e-6)


class TestPearsonEntropyProperties:
    @SETTINGS
    @given(fields, st.floats(0.5, 3.0), st.floats(-10.0, 10.0))
    def test_pearson_affine_invariant(self, field, scale, shift):
        # needs genuine variation: float32 rounding can make a constant
        # field's std "nonzero" yet leave the scaled copy exactly constant
        if field.std() <= 1e-3 * (1.0 + float(np.abs(field).max())):
            return
        rho = pearson(field, np.float32(scale) * field + np.float32(shift))
        assert math.isclose(rho, 1.0, abs_tol=1e-3)

    @SETTINGS
    @given(pairs)
    def test_pearson_bounded(self, pair):
        field, seed = pair
        rho = pearson(field, perturb(field, seed))
        if not math.isnan(rho):
            assert -1.0 - 1e-9 <= rho <= 1.0 + 1e-9

    @SETTINGS
    @given(fields, st.integers(2, 64))
    def test_entropy_bounds(self, field, bins):
        h = entropy(field, bins=bins)
        assert 0.0 <= h <= math.log2(bins) + 1e-9
