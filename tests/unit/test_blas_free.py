"""No assessment path may reach BLAS.

OpenBLAS runs ``np.dot`` and friends on its own thread pool; inside a
process or thread pool those threads compete with the other workers for
the same cores.  Every dot-product reduction therefore goes through
:func:`repro.metrics.reductions.dot`.  These tests make the BLAS entry
points raise and run a full-metric assessment through each path.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.config.defaults import default_config
from repro.core.compare import compare_data
from repro.core.streaming import StreamingChecker
from repro.kernels.pattern3 import Pattern3Config
from repro.metrics.autocorrelation import series_autocorrelation
from repro.metrics.correlation import pearson
from repro.telemetry.tracer import Tracer

BLAS_ENTRY_POINTS = ("dot", "vdot", "inner", "matmul")


@pytest.fixture
def no_blas(monkeypatch):
    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"numpy.{name} called on the assessment path")

        return call

    for name in BLAS_ENTRY_POINTS:
        monkeypatch.setattr(np, name, forbidden(name))


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(21)
    orig = rng.normal(3.0, 1.0, size=(12, 14, 16)).astype(np.float32)
    dec = (orig + rng.normal(scale=0.01, size=orig.shape)).astype(np.float32)
    return orig, dec


@pytest.mark.parametrize("tiling", ["off", 4], ids=["whole", "tiled"])
def test_compare_data_is_blas_free(no_blas, pair, tiling):
    config = replace(default_config(), tiling=tiling)
    tracer = Tracer()
    report = compare_data(
        *pair, config=config, with_baselines=False, tracer=tracer
    )
    tiled = any("tiling_slab" in s.attrs for s in tracer.spans)
    assert tiled == (tiling != "off")
    assert report.auxiliary["pearson"] == pytest.approx(pearson(*pair), rel=1e-9)
    assert np.all(np.isfinite(report.pattern2.autocorrelation))


def test_streaming_update_is_blas_free(no_blas, pair):
    orig, dec = pair
    L = float(orig.max() - orig.min())
    checker = StreamingChecker(
        orig.shape[1:], max_lag=3, ssim=Pattern3Config(window=4, dynamic_range=L)
    )
    for z0 in range(0, orig.shape[0], 5):
        checker.update(orig[z0 : z0 + 5], dec[z0 : z0 + 5])
    result = checker.finalize()
    e = dec.astype(np.float64) - orig.astype(np.float64)
    assert result.pattern1.mse == pytest.approx(float(np.mean(e * e)), rel=1e-9)
    assert math.isfinite(result.ssim)


def test_series_autocorrelation_direct_is_blas_free(no_blas):
    e = np.random.default_rng(5).standard_normal(3000)
    direct = series_autocorrelation(e, 6, method="direct")
    fft = series_autocorrelation(e, 6, method="fft")
    np.testing.assert_allclose(direct, fft, rtol=1e-9, atol=1e-12)
