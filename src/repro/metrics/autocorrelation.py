"""Pattern-2 reference metric: autocorrelation of compression errors.

Two flavours, both offered by Z-checker:

* :func:`spatial_autocorrelation` — the paper's Eq. (2): at spatial gap
  τ, correlate each error value with its τ-distant neighbours along the
  three axes (averaged), over the common valid region, normalised by the
  error field's variance.  White-noise-like errors give values ≈ 0 for
  all τ ≥ 1.
* :func:`series_autocorrelation` — the classical 1-D autocorrelation of
  the flattened error sequence (what Z-checker plots per-lag).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.metrics.reductions import dot

__all__ = ["spatial_autocorrelation", "series_autocorrelation"]


def spatial_autocorrelation(error: np.ndarray, max_lag: int = 10) -> np.ndarray:
    """Spatial autocorrelation AC(τ) for τ = 0..max_lag (paper Eq. 2).

    ``AC(0)`` is 1 by definition.  For τ ≥ 1::

        AC(τ) = Σ_{valid} (1/3)(e-μ)·[(e_z+τ - μ) + (e_y+τ - μ) + (e_x+τ - μ)]
                / n_e / σ²

    where the valid region excludes the last τ planes along *every* axis
    (``n_e = (h-τ)(w-τ)(l-τ)``) and σ² is the variance of the whole error
    field.  A constant error field has undefined correlation; we return
    zeros for τ ≥ 1 in that case (no structure to correlate).
    """
    e = np.asarray(error, dtype=np.float64)
    if e.ndim != 3:
        raise ShapeError(f"expected a 3-D error field, got shape {e.shape}")
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    if max_lag >= min(e.shape):
        raise ShapeError(
            f"max_lag {max_lag} must be smaller than the smallest extent "
            f"of {e.shape}"
        )
    mu = e.mean()
    var = e.var()
    c = e - mu
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    if var == 0.0:
        out[1:] = 0.0
        return out
    nz, ny, nx = e.shape
    # valid-region sizes for every lag at once (hoisted out of the loop)
    taus = np.arange(1, max_lag + 1)
    ne = (nz - taus) * (ny - taus) * (nx - taus)
    for i, tau in enumerate(taus):
        core = c[: nz - tau, : ny - tau, : nx - tau]
        shift_z = c[tau:, : ny - tau, : nx - tau]
        shift_y = c[: nz - tau, tau:, : nx - tau]
        shift_x = c[: nz - tau, : ny - tau, tau:]
        # dot products over strided views: no shifted-copy temporaries;
        # only the final three-way add differs from the naive grouping
        # (verified within 1e-12 relative in tests)
        acc = (
            dot(core, shift_z) + dot(core, shift_y) + dot(core, shift_x)
        ) / 3.0
        out[i + 1] = acc / ne[i] / var
    return out


#: below this size the per-lag dot products beat the FFT's setup cost
_FFT_MIN_SIZE = 4096
#: with only a few lags, O(n·lags) direct work is already cheap
_FFT_MIN_LAGS = 4

_SERIES_METHODS = ("auto", "fft", "direct")


def _series_direct(c: np.ndarray, n: int, var: float, max_lag: int) -> np.ndarray:
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for k in range(1, max_lag + 1):
        out[k] = dot(c[:-k], c[k:]) / (n * var)
    return out


def _series_fft(c: np.ndarray, n: int, var: float, max_lag: int) -> np.ndarray:
    """All lags in one rfft/irfft round trip (Wiener–Khinchin).

    Zero-padding to at least ``n + max_lag`` turns the circular
    correlation into the linear one the direct estimator computes, so
    the two agree to FP tolerance; the padded length is rounded up to a
    power of two for the fastest transform.
    """
    nfft = 1 << (n + max_lag - 1).bit_length()
    f = np.fft.rfft(c, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[: max_lag + 1]
    out = acov / (n * var)
    out[0] = 1.0  # exact by definition, not up to FFT round-off
    return out


def series_autocorrelation(
    error: np.ndarray, max_lag: int = 10, method: str = "auto"
) -> np.ndarray:
    """Classical autocorrelation of the flattened error sequence.

    Uses the biased estimator ``ρ(k) = Σ_t (e_t-μ)(e_{t+k}-μ) / (n σ²)``
    (the convention of most statistics texts and of Z-checker's plots).

    ``method`` selects the implementation, mirroring ``SsimConfig.method``:
    ``"direct"`` is the per-lag dot-product oracle (O(n·lags)),
    ``"fft"`` computes every lag from one rfft/irfft round trip
    (O(n log n)), and ``"auto"`` picks the FFT once the series is long
    enough for its setup cost to pay off.  Both agree to FP tolerance
    (property-tested).
    """
    if method not in _SERIES_METHODS:
        raise ValueError(
            f"method must be one of {_SERIES_METHODS}, got {method!r}"
        )
    e = np.asarray(error, dtype=np.float64).ravel()
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    if max_lag >= e.size:
        raise ShapeError(f"max_lag {max_lag} must be < series length {e.size}")
    mu = e.mean()
    var = e.var()
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    if var == 0.0:
        out[1:] = 0.0
        return out
    c = e - mu
    n = e.size
    if method == "auto":
        method = (
            "fft"
            if n >= _FFT_MIN_SIZE and max_lag >= _FFT_MIN_LAGS
            else "direct"
        )
    if method == "fft":
        return _series_fft(c, n, var, max_lag)
    return _series_direct(c, n, var, max_lag)
