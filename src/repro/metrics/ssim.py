"""Pattern-3 reference metric: 3-D windowed SSIM.

A small cubic window scans both fields with a fixed stride (paper Fig. 5);
at each position the local SSIM

    ssim = ((2 μ₁μ₂ + C₁)(2 σ₁₂ + C₂)) / ((μ₁² + μ₂² + C₁)(σ₁² + σ₂² + C₂))

is computed from the window means/variances/covariance, and the final
score is the mean over all window positions.  ``C₁ = (K₁ L)²`` and
``C₂ = (K₂ L)²`` with the conventional ``K₁ = 0.01``, ``K₂ = 0.03`` and
``L`` the dynamic range of the original field.

The reference implementation uses 3-D summed-area tables (inclusive
prefix sums) so that every window statistic costs O(1) — this also keeps
the single-core CI budget manageable for realistic field sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError

__all__ = [
    "SsimConfig",
    "SsimResult",
    "ssim3d",
    "ssim3d_naive",
    "box_sums",
    "local_ssim",
    "window_positions",
]


@dataclass(frozen=True)
class SsimConfig:
    """SSIM window geometry and stabilisation constants.

    The paper's evaluation uses ``window=8`` per side and ``step=1``.
    """

    window: int = 8
    step: int = 1
    k1: float = 0.01
    k2: float = 0.03
    #: dynamic range; ``None`` means max(orig) - min(orig)
    dynamic_range: float | None = None
    #: ``"sliding"`` uses summed-area tables (O(N) per statistic,
    #: independent of window size); ``"naive"`` recomputes every window
    #: explicitly (O(N·w³)) and serves as the cross-check oracle.
    method: str = "sliding"

    def validate(self, shape: tuple[int, ...]) -> None:
        if self.window < 1:
            raise ValueError("SSIM window must be >= 1")
        if self.step < 1:
            raise ValueError("SSIM step must be >= 1")
        if self.method not in ("sliding", "naive"):
            raise ValueError(
                f"SSIM method must be 'sliding' or 'naive', got {self.method!r}"
            )
        if any(n < self.window for n in shape):
            raise ShapeError(
                f"field extents {shape} smaller than SSIM window {self.window}"
            )


@dataclass(frozen=True)
class SsimResult:
    """Mean SSIM plus distribution info over windows."""

    ssim: float
    min_window_ssim: float
    max_window_ssim: float
    n_windows: int


def window_positions(n: int, window: int, step: int) -> int:
    """Number of valid window origins along an axis of extent ``n``."""
    if n < window:
        return 0
    return (n - window) // step + 1


def _window_sums_axis0(a: np.ndarray, out: np.ndarray, window: int, step: int) -> None:
    """Window sums along axis 0 of ``a`` into ``out`` through a prefix ring.

    The inclusive prefix sum ``P[k] = P[k-1] + a[k]`` is built one plane
    at a time into a ring of the last ``window + 1`` planes, and each
    window is emitted as ``out[i] = P[i*step + w - 1] - P[i*step - 1]``
    (no lower term for the first) as soon as its last plane arrives.
    ``add.accumulate`` is sequential, so the planes hold exactly the bits
    ``np.cumsum(axis=0)`` gives; every add streams whole rows instead of
    walking one strided column per remaining index, and no full-size
    prefix array is ever allocated.
    """
    p = out.shape[0]
    depth = window + 1
    ring = np.empty((depth,) + a.shape[1:])
    for k in range((p - 1) * step + window):
        prefix = ring[k % depth]
        if k == 0:
            prefix[...] = a[0]
        else:
            np.add(ring[(k - 1) % depth], a[k], out=prefix)
        i, r = divmod(k - window + 1, step)
        if i == 0 and r == 0:
            out[0] = prefix
        elif i > 0 and r == 0:
            np.subtract(prefix, ring[(k - window) % depth], out=out[i])


def box_sums(a: np.ndarray, window: int, step: int) -> np.ndarray:
    """Sliding-window sums of a 3-D array via cascaded axis prefix sums.

    Returns an array of shape ``(pz, py, px)`` where ``p* =
    window_positions(n*, window, step)``; entry ``[i,j,k]`` is the sum of
    the ``window³`` cube whose origin is ``(i*step, j*step, k*step)``.
    One prefix sum + one subtraction per axis, with the array shrinking
    to the window-position grid after each — cheaper than an 8-corner
    summed-area-table gather and still O(N) independent of window size.

    z and y go through :func:`_window_sums_axis0` (plane by plane, then
    row by row); x, the contiguous axis, is an in-place ``cumsum`` plus
    one strided subtraction.  The result is bit-identical to a float64
    ``cumsum`` + difference per axis, and ``a`` is never written.
    """
    if a.ndim != 3:
        raise ShapeError(f"box_sums expects a 3-D array, got {a.shape}")
    _, ny, nx = a.shape
    pz, py, px = (window_positions(n, window, step) for n in a.shape)
    if min(pz, py, px) == 0:
        return np.zeros((pz, py, px))
    zs = np.empty((pz, ny, nx))
    _window_sums_axis0(a, zs, window, step)
    ys = np.empty((pz, py, nx))
    _window_sums_axis0(zs.transpose(1, 0, 2), ys.transpose(1, 0, 2), window, step)
    del zs
    np.cumsum(ys, axis=2, out=ys)
    xs = np.empty((pz, py, px))
    xs[..., 0] = ys[..., window - 1]
    np.subtract(
        ys[..., window - 1 + step : window - 1 + step * px : step],
        ys[..., step - 1 : step * (px - 1) : step],
        out=xs[..., 1:],
    )
    return xs


def local_ssim(
    s1: np.ndarray,
    s2: np.ndarray,
    sq1: np.ndarray,
    sq2: np.ndarray,
    s12: np.ndarray,
    volume: float,
    c1: float,
    c2: float,
) -> np.ndarray:
    """Per-window SSIM from the five window sums, computed in place.

    ``s1``/``s2`` are the window sums of ``o``/``d``, ``sq1``/``sq2`` of
    ``o²``/``d²`` and ``s12`` of ``o·d`` (equal shapes, float64).  All
    five are overwritten; two more window-grid temporaries are allocated
    and one of them is returned.  The operation order is that of

        mu = s / volume;  var = max(sq / volume - mu*mu, 0)
        cov = s12 / volume - mu1*mu2
        ((2*mu1*mu2 + c1) * (2*cov + c2))
            / ((mu1*mu1 + mu2*mu2 + c1) * (var1 + var2 + c2))

    so the result is bit-identical to evaluating that expression.
    """
    mu1, mu2 = s1, s2
    mu1 /= volume
    mu2 /= volume
    den = np.multiply(mu1, mu1)
    tmp = np.multiply(mu2, mu2)
    var1, var2, cov = sq1, sq2, s12
    var1 /= volume
    var1 -= den
    np.maximum(var1, 0.0, out=var1)
    var2 /= volume
    var2 -= tmp
    np.maximum(var2, 0.0, out=var2)
    den += tmp
    den += c1
    np.multiply(mu1, mu2, out=tmp)
    cov /= volume
    cov -= tmp
    var1 += var2
    var1 += c2
    den *= var1
    num = tmp
    np.multiply(mu1, 2, out=num)
    num *= mu2
    num += c1
    cov *= 2
    cov += c2
    num *= cov
    num /= den
    return num


def _prepare(
    orig: np.ndarray, dec: np.ndarray, config: SsimConfig
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Shared validation + constant derivation for both SSIM paths."""
    orig = np.asarray(orig)
    dec = np.asarray(dec)
    if orig.shape != dec.shape:
        raise ShapeError(
            f"original {orig.shape} and decompressed {dec.shape} shapes differ"
        )
    if orig.ndim != 3:
        raise ShapeError(f"ssim3d expects 3-D fields, got {orig.shape}")
    config.validate(orig.shape)

    o = orig.astype(np.float64)
    d = dec.astype(np.float64)
    if config.dynamic_range is not None:
        L = float(config.dynamic_range)
    else:
        L = float(o.max() - o.min())
    if L <= 0.0:
        # Degenerate constant field: SSIM is only meaningful through the
        # stabilisation constants; use a unit range so identical inputs
        # still score exactly 1.
        L = 1.0
    c1 = (config.k1 * L) ** 2
    c2 = (config.k2 * L) ** 2
    return o, d, c1, c2


def ssim3d_naive(
    orig: np.ndarray, dec: np.ndarray, config: SsimConfig | None = None
) -> SsimResult:
    """Oracle 3-D SSIM: every window's statistics recomputed explicitly.

    O(N·w³) — each window position re-reads its full cube.  Kept as the
    independent cross-check for the sliding-sum fast path; use only on
    small fields.
    """
    config = config or SsimConfig()
    o, d, c1, c2 = _prepare(orig, dec, config)
    w, step = config.window, config.step
    nz, ny, nx = o.shape
    pz = window_positions(nz, w, step)
    py = window_positions(ny, w, step)
    px = window_positions(nx, w, step)

    total = 0.0
    count = 0
    vmin, vmax = float("inf"), float("-inf")
    for i in range(pz):
        z0 = i * step
        for j in range(py):
            y0 = j * step
            for k in range(px):
                x0 = k * step
                wo = o[z0 : z0 + w, y0 : y0 + w, x0 : x0 + w]
                wd = d[z0 : z0 + w, y0 : y0 + w, x0 : x0 + w]
                mu1 = float(wo.mean())
                mu2 = float(wd.mean())
                var1 = float(((wo - mu1) ** 2).mean())
                var2 = float(((wd - mu2) ** 2).mean())
                cov = float(((wo - mu1) * (wd - mu2)).mean())
                local = ((2.0 * mu1 * mu2 + c1) * (2.0 * cov + c2)) / (
                    (mu1 * mu1 + mu2 * mu2 + c1) * (var1 + var2 + c2)
                )
                total += local
                count += 1
                vmin = min(vmin, local)
                vmax = max(vmax, local)
    if count == 0:
        raise ShapeError("no complete SSIM window fits the data")
    return SsimResult(
        ssim=total / count,
        min_window_ssim=vmin,
        max_window_ssim=vmax,
        n_windows=count,
    )


def ssim3d(
    orig: np.ndarray, dec: np.ndarray, config: SsimConfig | None = None
) -> SsimResult:
    """Reference 3-D SSIM between an original/decompressed pair.

    Dispatches on ``config.method``: the default ``"sliding"`` path uses
    summed-area tables; ``"naive"`` delegates to :func:`ssim3d_naive`.
    """
    config = config or SsimConfig()
    if config.method == "naive":
        return ssim3d_naive(orig, dec, config)
    o, d, c1, c2 = _prepare(orig, dec, config)
    w, step = config.window, config.step
    volume = float(w**3)
    local = local_ssim(
        box_sums(o, w, step),
        box_sums(d, w, step),
        box_sums(o * o, w, step),
        box_sums(d * d, w, step),
        box_sums(o * d, w, step),
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
