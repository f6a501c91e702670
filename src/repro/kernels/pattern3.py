"""Pattern-3 kernel: sliding-window SSIM with a shared-memory FIFO
(paper Algorithm 3, Fig. 8).

Decomposition: one thread block owns a band of window rows — 32 lanes
along x (warp shuffles share the ghost regions between windows along x),
``YROWS`` data rows along y (cross-warp shared-memory reductions build the
y-extent of each window), and the full z extent.  As the block walks the
z-axis it pushes each slice's partial window reductions (window sums of
``o``, ``d``, ``o²``, ``d²``, ``o·d``) into a shared-memory **FIFO ring**
keyed by ``k % wsize``; whenever a window's last slice arrives, the ring
is collapsed into the full 3-D window statistics and the local SSIM is
emitted.  Each z-slice is therefore read from global memory exactly once
— the data-sharing property the paper's Section III-C3 highlights.

The functional execution mirrors this dataflow: a per-slice 2-D window
reduction (the vectorised equivalent of the x-shuffles + y-smem stage)
feeds a real :class:`~repro.gpusim.memory.SmemFifo`, and local SSIMs are
produced only from FIFO reductions.  Results equal the independent
:func:`repro.metrics.ssim.ssim3d` reference (asserted in tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ShapeError
from repro.gpusim.counters import KernelStats
from repro.gpusim.memory import SmemFifo
from repro.metrics.ssim import (
    SsimConfig,
    SsimResult,
    box_sums,
    local_ssim,
    window_positions,
)
from repro.metrics.twod import box_sums_2d

__all__ = [
    "Pattern3Config",
    "Pattern3Result",
    "plan_pattern3",
    "execute_pattern3",
    "LANES",
    "YROWS",
]

#: warp lanes along x (fixed by hardware)
LANES = 32
#: data rows along y held by one thread block
YROWS = 12
#: per-window accumulators staged through the FIFO:
#: sum(o), sum(d), sum(o²), sum(d²), sum(o·d)
N_WINDOW_ACCUMS = 5
#: register demand: window accumulators for both fields, FIFO indices,
#: masks — 29 regs/thread × 384 threads = 11136 ≈ the paper's "11k
#: Regs/TB" (Table II)
REGS_PER_THREAD = 29

#: per staged element: products o², d², o·d plus running adds
OPS_SLICE_STAGE = 10
#: per finished window: FIFO collapse (w slices × 5 accums × 2 reads)
#: plus the SSIM mix ("calw")
OPS_WINDOW_FINAL_BASE = 22
#: calibrated issue-efficiency inflation for the sliding-window kernel —
#: the serial z-chain, per-slice block syncs, and strided shared-memory
#: access dominate; fitted once against Fig. 11(c)'s measured 497-758
#: MB/s and reused everywhere.
P3_STALL_FACTOR = 125.0
#: extra *compute* fraction per redundant z re-read when the FIFO buffer
#: is disabled (moZC).  The re-reads themselves pipeline into the same
#: stall slots, so only a small fraction of the redundant slice-stage work
#: surfaces as extra time — calibrated against the paper's ~50% FIFO gain
#: (Fig. 12c: 1.42-1.63×).
P3_NOFIFO_RECOMPUTE = 0.18


@dataclass(frozen=True)
class Pattern3Config:
    """SSIM window geometry for the GPU kernel (paper defaults: 8 / 1).

    ``yrows`` is the kernel-geometry knob the autotuner explores: the
    number of data rows one thread block holds along y.  More rows mean
    more windows per block (less inter-block ghost re-reading) but a
    bigger FIFO and register footprint (less concurrency).
    """

    window: int = 8
    step: int = 1
    k1: float = 0.01
    k2: float = 0.03
    dynamic_range: float | None = None
    yrows: int = YROWS

    def validate(self, shape: tuple[int, int, int]) -> None:
        SsimConfig(self.window, self.step, self.k1, self.k2).validate(shape)
        if self.window > LANES:
            raise ShapeError(
                f"SSIM window {self.window} exceeds the warp width {LANES}"
            )
        if not 2 <= self.yrows <= 32:
            raise ShapeError(
                f"yrows must be within [2, 32] (block = 32 x yrows threads), "
                f"got {self.yrows}"
            )
        if self.window > self.yrows:
            raise ShapeError(
                f"SSIM window {self.window} exceeds the block row count "
                f"{self.yrows}"
            )

    @property
    def xnum(self) -> int:
        """Windows processed per warp span (paper: warpSize - wsize + step)."""
        return LANES - self.window + self.step

    @property
    def ynum(self) -> int:
        """Window rows processed per thread block."""
        return self.yrows - self.window + self.step

    @property
    def ssim_config(self) -> SsimConfig:
        return SsimConfig(
            window=self.window,
            step=self.step,
            k1=self.k1,
            k2=self.k2,
            dynamic_range=self.dynamic_range,
        )

    @property
    def smem_per_block(self) -> int:
        """FIFO footprint: xnum × ynum × wsize × 5 accums × 4 B."""
        return self.xnum * self.ynum * self.window * N_WINDOW_ACCUMS * 4


@dataclass
class Pattern3Result:
    """SSIM output of one kernel launch."""

    ssim: float
    min_window_ssim: float
    max_window_ssim: float
    n_windows: int
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict[str, float]:
        return {"ssim": self.ssim}

    @property
    def as_ssim_result(self) -> SsimResult:
        return SsimResult(
            ssim=self.ssim,
            min_window_ssim=self.min_window_ssim,
            max_window_ssim=self.max_window_ssim,
            n_windows=self.n_windows,
        )


def _shape3d(shape: tuple[int, ...]) -> tuple[int, int, int]:
    if len(shape) != 3 or min(shape) < 1:
        raise ShapeError(f"pattern kernels expect 3-D shapes, got {shape}")
    return shape  # type: ignore[return-value]


def plan_pattern3(
    shape: tuple[int, int, int],
    config: Pattern3Config | None = None,
    fifo: bool = True,
) -> KernelStats:
    """Closed-form event counts for the pattern-3 kernel.

    ``fifo=False`` models the moZC ablation: without the ring buffer every
    z-slice is re-read (and its slice-stage partials recomputed) once per
    overlapping window along z — ``window / step`` times.
    """
    config = config or Pattern3Config()
    nz, ny, nx = _shape3d(shape)
    config.validate((nz, ny, nx))
    n = nz * ny * nx
    py = window_positions(ny, config.window, config.step)
    px = window_positions(nx, config.window, config.step)
    pz = window_positions(nz, config.window, config.step)
    n_windows = pz * py * px
    grid = max(1, math.ceil(py / config.ynum))
    spans_x = max(1, math.ceil(px / config.xnum))
    iters = spans_x * nz

    # re-read factor without the FIFO: each slice participates in
    # window/step overlapping windows along z
    z_reuse = 1 if fifo else max(1, config.window // config.step)

    # every slice pass reads LANES × yrows points per span per block
    elements_staged = grid * nz * spans_x * LANES * config.yrows
    read_bytes = 2 * elements_staged * z_reuse * 4  # both fields

    # redundant re-reads pipeline into existing stall slots; only a small
    # fraction of the recomputed slice-stage work surfaces as time
    recompute = 1.0 + P3_NOFIFO_RECOMPUTE * (z_reuse - 1)
    slice_ops = 2 * elements_staged * OPS_SLICE_STAGE * recompute
    # x-sharing shuffles: (window-1) strided shuffles × 5 accums per
    # thread per slice pass
    shuffles = int(
        elements_staged * (config.window - 1) * N_WINDOW_ACCUMS * recompute
    )
    final_ops = n_windows * (
        config.window * N_WINDOW_ACCUMS * 2 + OPS_WINDOW_FINAL_BASE
    )
    fifo_traffic = (
        grid * nz * spans_x * config.xnum * config.ynum * N_WINDOW_ACCUMS * 4
    )

    return KernelStats(
        name="cuZC.pattern3" if fifo else "moZC.pattern3",
        launches=1 if fifo else 2,
        grid_syncs=1 if fifo else 0,
        global_read_bytes=read_bytes,
        global_write_bytes=n_windows * 4 + 64,
        shared_bytes=fifo_traffic * (2 if fifo else 1),
        shuffle_ops=shuffles,
        flops=int((slice_ops + final_ops) * P3_STALL_FACTOR),
        atomic_ops=0,
        grid_blocks=grid,
        threads_per_block=LANES * config.yrows,
        regs_per_thread=REGS_PER_THREAD,
        smem_per_block=config.smem_per_block if fifo else config.smem_per_block // 2,
        iters_per_thread=iters,
        meta={
            "pattern": 3,
            "chain_length": iters,
            "fifo": fifo,
            "n_windows": n_windows,
        },
    )


# ---------------------------------------------------------------------------
# functional execution
# ---------------------------------------------------------------------------


def _execute_fused(workspace, config: Pattern3Config) -> Pattern3Result:
    """Sliding-sum SSIM over the workspace's cached element products.

    The summed-volume tables make every window statistic O(1) regardless
    of window size, and the ``o²``/``d²``/``o·d`` products are read from
    the shared workspace instead of being rebuilt per slice.
    """
    w, step = config.window, config.step
    if config.dynamic_range is not None:
        L = float(config.dynamic_range)
    else:
        m = workspace.moments
        L = m["max_o"] - m["min_o"]
    if L <= 0.0:
        L = 1.0
    c1 = (config.k1 * L) ** 2
    c2 = (config.k2 * L) ** 2
    volume = float(w**3)

    s1 = box_sums(workspace.o64, w, step)
    if s1.size == 0:
        raise ShapeError("no complete SSIM window fits the data")
    local = local_ssim(
        s1,
        box_sums(workspace.d64, w, step),
        box_sums(workspace.o_sq, w, step),
        box_sums(workspace.d_sq, w, step),
        box_sums(workspace.od, w, step),
        volume,
        c1,
        c2,
    )
    return Pattern3Result(
        ssim=float(local.mean()),
        min_window_ssim=float(local.min()),
        max_window_ssim=float(local.max()),
        n_windows=int(local.size),
    )


def execute_pattern3(
    orig: np.ndarray,
    dec: np.ndarray,
    config: Pattern3Config | None = None,
    workspace=None,
) -> tuple[Pattern3Result, KernelStats]:
    """Functional FIFO-buffered SSIM kernel.

    With a :class:`~repro.core.workspace.MetricWorkspace`, the sliding-sum
    fast path replaces the per-slice FIFO walk (same result, asserted in
    tests); the modelled :func:`plan_pattern3` cost is unchanged.
    """
    config = config or Pattern3Config()
    if workspace is not None:
        nz, ny, nx = _shape3d(workspace.shape)
        config.validate((nz, ny, nx))
        return _execute_fused(workspace, config), plan_pattern3(
            workspace.shape, config
        )
    orig = np.asarray(orig)
    dec = np.asarray(dec)
    if orig.shape != dec.shape:
        raise ShapeError(f"shape mismatch: {orig.shape} vs {dec.shape}")
    nz, ny, nx = _shape3d(orig.shape)
    config.validate((nz, ny, nx))
    o64 = orig.astype(np.float64)
    d64 = dec.astype(np.float64)

    w, step = config.window, config.step
    if config.dynamic_range is not None:
        L = float(config.dynamic_range)
    else:
        L = float(o64.max() - o64.min())
    if L <= 0.0:
        L = 1.0
    c1 = (config.k1 * L) ** 2
    c2 = (config.k2 * L) ** 2
    volume = float(w**3)

    py = window_positions(ny, w, step)
    px = window_positions(nx, w, step)
    fifo = SmemFifo(depth=w, slot_shape=(N_WINDOW_ACCUMS, py, px))

    total = 0.0
    count = 0
    vmin, vmax = math.inf, -math.inf
    for k in range(nz):  # the kernel's z walk (Algorithm 3, ln. 6)
        o = o64[k]
        d = d64[k]
        slot = np.stack(
            [
                box_sums_2d(o, w, step),
                box_sums_2d(d, w, step),
                box_sums_2d(o * o, w, step),
                box_sums_2d(d * d, w, step),
                box_sums_2d(o * d, w, step),
            ]
        )
        fifo.push(k, slot)
        # a window ends at slice k iff k >= w-1 and its origin is on-step
        if k >= w - 1 and (k - w + 1) % step == 0:
            local = local_ssim(*fifo.reduce(), volume, c1, c2)
            total += float(local.sum())
            count += local.size
            vmin = min(vmin, float(local.min()))
            vmax = max(vmax, float(local.max()))

    if count == 0:
        raise ShapeError("no complete SSIM window fits the data")
    result = Pattern3Result(
        ssim=total / count,
        min_window_ssim=vmin,
        max_window_ssim=vmax,
        n_windows=count,
    )
    return result, plan_pattern3(orig.shape, config)
