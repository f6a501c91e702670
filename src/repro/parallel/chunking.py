"""Z-slab parallelism for one huge field.

A single field too large (or too urgent) for one serial pass is split
into contiguous z-slabs; each worker produces the *same* mergeable
accumulators :class:`repro.core.streaming.StreamingChecker` carries —
pattern-1 partial sums, raw lagged autocorrelation cross-products (each
slab reads a ``max_lag``-deep trailing halo so every (z, z+τ) pair is
counted exactly once), and sliding-sum SSIM window statistics for the
window origins the slab owns.  The merge is the associative grid-level
reduce, so the result equals the serial streaming/batch answers to FP
tolerance (asserted in tests).

Each slab converts only its own window (slab + halo) to float64, so a
job touches O(slab) memory whatever the field size — which is what lets
the process executor ship a slab as a :class:`SharedField` handle plus
two integers and have the worker read its share of the published pages
directly.  Because serial, thread and process execution all run this
identical per-slab code in the identical order at the same slab count,
their merged results are *bit-identical* (property-tested).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.errors import CheckerError, ShapeError
from repro.core.streaming import StreamingResult
from repro.kernels.pattern1 import result_from_sums
from repro.kernels.pattern3 import Pattern3Config
from repro.metrics.ssim import box_sums, local_ssim, window_positions

__all__ = ["z_chunks", "parallel_stream_field"]


def z_chunks(nz: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``nz`` slices into up to ``n_chunks`` balanced ``[z0, z1)`` slabs."""
    if nz < 1:
        raise ShapeError(f"nz must be >= 1, got {nz}")
    n_chunks = max(1, min(n_chunks, nz))
    base, rem = divmod(nz, n_chunks)
    out = []
    z0 = 0
    for i in range(n_chunks):
        z1 = z0 + base + (1 if i < rem else 0)
        out.append((z0, z1))
        z0 = z1
    return out


def _slab_partials(
    orig: np.ndarray,
    dec: np.ndarray,
    z0: int,
    z1: int,
    max_lag: int,
    ssim: Pattern3Config | None,
    pwr_floor: float,
) -> dict:
    """All mergeable accumulators for one slab (plus its trailing halo).

    ``orig``/``dec`` are the whole fields in their native dtype; only the
    ``[z0, hi)`` window this slab actually reads — its own slices, the
    autocorrelation halo, and the tail of any SSIM window it owns — is
    converted to float64 here, inside the worker.
    """
    nz, ny, nx = orig.shape

    hi_ext = min(z1 + max_lag, nz) if max_lag >= 1 else z1
    origins: list[int] = []
    if ssim is not None:
        w, step = ssim.window, ssim.step
        origins = [k for k in range(0, nz - w + 1, step) if z0 <= k < z1]
        if origins:
            hi_ext = max(hi_ext, origins[-1] + w)

    o64 = orig[z0:hi_ext].astype(np.float64)
    d64 = dec[z0:hi_ext].astype(np.float64)
    m = z1 - z0
    o = o64[:m]
    d = d64[:m]
    e = d - o

    p: dict = {
        "n": e.size,
        "min_e": float(e.min()),
        "max_e": float(e.max()),
        "sum_e": float(e.sum()),
        "sum_abs_e": float(np.abs(e).sum()),
        "sum_sq_e": float((e * e).sum()),
        "min_o": float(o.min()),
        "max_o": float(o.max()),
        "sum_o": float(o.sum()),
        "sum_sq_o": float((o * o).sum()),
        "min_r": math.inf,
        "max_r": -math.inf,
        "sum_r": 0.0,
        "cnt_r": 0.0,
    }
    mask = np.abs(o) > pwr_floor
    if mask.any():
        r = e[mask] / o[mask]
        p["min_r"] = float(r.min())
        p["max_r"] = float(r.max())
        p["sum_r"] = float(r.sum())
        p["cnt_r"] = float(r.size)

    # -- autocorrelation raw sums (slab + max_lag trailing halo) ----------
    p["ac_ab"] = np.zeros(max_lag + 1)
    p["ac_a"] = np.zeros(max_lag + 1)
    p["ac_b"] = np.zeros(max_lag + 1)
    p["ac_n"] = np.zeros(max_lag + 1, dtype=np.int64)
    if max_lag >= 1:
        halo = min(z1 + max_lag, nz) - z0
        eh = d64[:halo] - o64[:halo]
        for tau in range(1, max_lag + 1):
            hi = min(z1, nz - tau)  # core slices this slab owns at lag tau
            if z0 >= hi:
                continue
            depth = hi - z0
            core = eh[:depth, : ny - tau, : nx - tau]
            shift_z = eh[tau : depth + tau, : ny - tau, : nx - tau]
            shift_y = eh[:depth, tau:, : nx - tau]
            shift_x = eh[:depth, : ny - tau, tau:]
            b = shift_z + shift_y + shift_x
            p["ac_ab"][tau] = float((core * b).sum())
            p["ac_a"][tau] = float(core.sum())
            p["ac_b"][tau] = float(b.sum())
            p["ac_n"][tau] = core.size

    # -- SSIM windows whose z-origin lies in this slab --------------------
    p["ssim_total"] = 0.0
    p["ssim_count"] = 0
    if origins:
        w, step = ssim.window, ssim.step
        lo, hi = origins[0], origins[-1] + w
        ol, dl = o64[lo - z0 : hi - z0], d64[lo - z0 : hi - z0]
        L = float(ssim.dynamic_range)
        c1 = (ssim.k1 * L) ** 2
        c2 = (ssim.k2 * L) ** 2
        local = local_ssim(
            box_sums(ol, w, step),
            box_sums(dl, w, step),
            box_sums(ol * ol, w, step),
            box_sums(dl * dl, w, step),
            box_sums(ol * dl, w, step),
            float(w**3),
            c1,
            c2,
        )
        p["ssim_total"] = float(local.sum())
        p["ssim_count"] = int(local.size)
    return p


def _slab_job(orig_handle, dec_handle, z0, z1, max_lag, ssim, pwr_floor):
    """Process-worker job: attach to the published field, do one slab."""
    orig = orig_handle.attach()
    dec = dec_handle.attach()
    partials = _slab_partials(orig, dec, z0, z1, max_lag, ssim, pwr_floor)
    orig = dec = None  # noqa: F841 — release the views before unmapping
    orig_handle.close()
    dec_handle.close()
    return partials


def _process_slab_partials(orig, dec, slabs, max_lag, ssim, pwr_floor, workers):
    """Fan slabs over the spawn pool; both fields published exactly once."""
    from repro.parallel.executor import _get_pool
    from repro.parallel.shm import shared_fields

    pool = _get_pool(workers)
    with shared_fields([orig, dec]) as (orig_handle, dec_handle):
        futures = [
            pool.submit(
                _slab_job, orig_handle, dec_handle, z0, z1, max_lag, ssim,
                pwr_floor,
            )
            for z0, z1 in slabs
        ]
        return [fut.result() for fut in futures]


def parallel_stream_field(
    orig: np.ndarray,
    dec: np.ndarray,
    max_lag: int = 10,
    ssim: Pattern3Config | None = None,
    pwr_floor: float = 0.0,
    workers: int | None = None,
    executor: str | None = None,
) -> StreamingResult:
    """Assess one huge field by fanning z-slabs across a worker pool.

    The parallel counterpart of driving one
    :class:`~repro.core.streaming.StreamingChecker` over the whole field:
    same accumulators, merged associatively.  Like streaming, SSIM needs
    an explicit ``dynamic_range`` (a slab cannot know the global range).

    ``executor`` selects the pool kind (``"thread"`` default,
    ``"process"`` for shared-memory worker processes, ``"serial"`` for an
    in-process slab loop — the bit-identical reference for the parallel
    modes at the same ``workers`` count).
    """
    from repro.parallel.executor import auto_workers, resolve_executor

    orig = np.asarray(orig)
    dec = np.asarray(dec)
    if orig.shape != dec.shape:
        raise ShapeError(f"shape mismatch: {orig.shape} vs {dec.shape}")
    if orig.ndim != 3:
        raise ShapeError(f"parallel_stream_field expects 3-D fields, got {orig.shape}")
    nz, ny, nx = orig.shape
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    if max_lag >= min(ny, nx):
        raise ShapeError(
            f"max_lag {max_lag} must be < min plane extent {min(ny, nx)}"
        )
    if ssim is not None:
        if ssim.dynamic_range is None:
            raise CheckerError(
                "slab-parallel SSIM needs an explicit dynamic_range (a "
                "slab cannot see the global value range)"
            )
        if (
            window_positions(ny, ssim.window, ssim.step) == 0
            or window_positions(nx, ssim.window, ssim.step) == 0
        ):
            raise ShapeError("plane too small for the SSIM window")

    executor = resolve_executor(executor)
    workers = workers or auto_workers(
        nz, executor=executor, task_nbytes=orig.nbytes + dec.nbytes
    )
    slabs = z_chunks(nz, workers)

    def run(slab):
        z0, z1 = slab
        return _slab_partials(orig, dec, z0, z1, max_lag, ssim, pwr_floor)

    if len(slabs) == 1 or executor == "serial":
        parts = [run(s) for s in slabs]
    elif executor == "process":
        parts = _process_slab_partials(
            orig, dec, slabs, max_lag, ssim, pwr_floor, workers
        )
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, slabs))

    # -- grid-level merge (associative, same as the multi-GPU merge) ------
    n = sum(p["n"] for p in parts)
    pattern1 = result_from_sums(
        n,
        min(p["min_e"] for p in parts),
        max(p["max_e"] for p in parts),
        sum(p["sum_e"] for p in parts),
        sum(p["sum_abs_e"] for p in parts),
        sum(p["sum_sq_e"] for p in parts),
        min(p["min_o"] for p in parts),
        max(p["max_o"] for p in parts),
        sum(p["sum_o"] for p in parts),
        sum(p["sum_sq_o"] for p in parts),
        min(p["min_r"] for p in parts),
        max(p["max_r"] for p in parts),
        sum(p["sum_r"] for p in parts),
        sum(p["cnt_r"] for p in parts),
        None,
        None,
    )
    pattern1.extras["parallel_slabs"] = len(slabs)

    ac = None
    if max_lag >= 1:
        sum_e = sum(p["sum_e"] for p in parts)
        sum_sq_e = sum(p["sum_sq_e"] for p in parts)
        mu = sum_e / n
        var = max(sum_sq_e / n - mu * mu, 0.0)
        ac = np.empty(max_lag + 1)
        ac[0] = 1.0
        if var == 0.0:
            ac[1:] = 0.0
        else:
            for tau in range(1, max_lag + 1):
                ne = int(sum(int(p["ac_n"][tau]) for p in parts))
                if ne == 0:
                    ac[tau] = 0.0
                    continue
                ab = sum(p["ac_ab"][tau] for p in parts)
                a = sum(p["ac_a"][tau] for p in parts)
                b = sum(p["ac_b"][tau] for p in parts)
                centered = ab - mu * b - 3.0 * mu * a + 3.0 * ne * mu * mu
                ac[tau] = centered / 3.0 / ne / var

    ssim_value = None
    if ssim is not None:
        count = sum(p["ssim_count"] for p in parts)
        if count == 0:
            raise CheckerError("field too shallow for one full SSIM window")
        ssim_value = sum(p["ssim_total"] for p in parts) / count

    return StreamingResult(
        pattern1=pattern1, ssim=ssim_value, autocorrelation=ac
    )
