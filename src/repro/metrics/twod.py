"""2-D variants of the pattern metrics.

The paper notes its 3-D designs "can be easily extended to other
dimensions (including 1D, 2D, and 4D)"; this module provides the 2-D
extension for the metrics whose definitions are dimension-specific
(slice-of-simulation and image-like data): SSIM, derivatives, and
spatial autocorrelation.  The N-D-agnostic metrics (error statistics,
rate-distortion, PDFs, Pearson) already accept any shape.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.metrics.derivatives import DerivativeComparison, field_comparison
from repro.metrics.ssim import SsimConfig, SsimResult, local_ssim, window_positions

__all__ = [
    "box_sums_2d",
    "ssim2d",
    "gradient_magnitude_2d",
    "derivative_metrics_2d",
    "spatial_autocorrelation_2d",
]


def box_sums_2d(a: np.ndarray, window: int, step: int = 1) -> np.ndarray:
    """Sliding-window sums of a 2-D array via a summed-area table."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"box_sums_2d expects a 2-D array, got {a.shape}")
    ny, nx = a.shape
    sat = np.zeros((ny + 1, nx + 1), dtype=np.float64)
    sat[1:, 1:] = a.cumsum(axis=0).cumsum(axis=1)
    py = window_positions(ny, window, step)
    px = window_positions(nx, window, step)
    iy = np.arange(py) * step
    ix = np.arange(px) * step
    y0, y1 = iy[:, None], iy[:, None] + window
    x0, x1 = ix[None, :], ix[None, :] + window
    return sat[y1, x1] - sat[y0, x1] - sat[y1, x0] + sat[y0, x0]


def ssim2d(
    orig: np.ndarray, dec: np.ndarray, config: SsimConfig | None = None
) -> SsimResult:
    """2-D windowed SSIM (image-plane variant of :func:`ssim3d`)."""
    config = config or SsimConfig()
    orig = np.asarray(orig)
    dec = np.asarray(dec)
    if orig.shape != dec.shape:
        raise ShapeError(f"shape mismatch: {orig.shape} vs {dec.shape}")
    if orig.ndim != 2:
        raise ShapeError(f"ssim2d expects 2-D fields, got {orig.shape}")
    config.validate(orig.shape)

    o = orig.astype(np.float64)
    d = dec.astype(np.float64)
    L = (
        float(config.dynamic_range)
        if config.dynamic_range is not None
        else float(o.max() - o.min())
    )
    if L <= 0.0:
        L = 1.0
    c1 = (config.k1 * L) ** 2
    c2 = (config.k2 * L) ** 2
    w, step = config.window, config.step
    volume = float(w**2)

    local = local_ssim(
        box_sums_2d(o, w, step),
        box_sums_2d(d, w, step),
        box_sums_2d(o * o, w, step),
        box_sums_2d(d * d, w, step),
        box_sums_2d(o * d, w, step),
        volume,
        c1,
        c2,
    )
    return SsimResult(
        ssim=float(local.mean()),
        min_window_ssim=float(local.min()),
        max_window_ssim=float(local.max()),
        n_windows=int(local.size),
    )


def gradient_magnitude_2d(f: np.ndarray) -> np.ndarray:
    """2-D central-difference gradient magnitude (interior)."""
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2:
        raise ShapeError(f"expected a 2-D field, got {f.shape}")
    if min(f.shape) < 3:
        raise ShapeError(f"extents {f.shape} too small for the stencil")
    dy = (f[2:, 1:-1] - f[:-2, 1:-1]) / 2.0
    dx = (f[1:-1, 2:] - f[1:-1, :-2]) / 2.0
    return np.sqrt(dx * dx + dy * dy)


def derivative_metrics_2d(
    orig: np.ndarray, dec: np.ndarray
) -> DerivativeComparison:
    """2-D derivative-field comparison (first order)."""
    orig = np.asarray(orig)
    dec = np.asarray(dec)
    if orig.shape != dec.shape:
        raise ShapeError(f"shape mismatch: {orig.shape} vs {dec.shape}")
    return field_comparison(
        gradient_magnitude_2d(orig), gradient_magnitude_2d(dec)
    )


def spatial_autocorrelation_2d(error: np.ndarray, max_lag: int = 10) -> np.ndarray:
    """2-D analogue of the paper's Eq. (2): AC(τ) averaged over the two
    axis directions, over the common valid region."""
    e = np.asarray(error, dtype=np.float64)
    if e.ndim != 2:
        raise ShapeError(f"expected a 2-D error field, got {e.shape}")
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    if max_lag >= min(e.shape):
        raise ShapeError(f"max_lag {max_lag} must be < min extent of {e.shape}")
    mu = e.mean()
    var = e.var()
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    if var == 0.0:
        out[1:] = 0.0
        return out
    c = e - mu
    ny, nx = e.shape
    for tau in range(1, max_lag + 1):
        core = c[: ny - tau, : nx - tau]
        sy = c[tau:, : nx - tau]
        sx = c[: ny - tau, tau:]
        ne = (ny - tau) * (nx - tau)
        out[tau] = float(np.sum(core * (sy + sx))) / 2.0 / ne / var
    return out
