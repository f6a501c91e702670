"""Streaming (chunked) assessment with bounded memory.

The paper's introduction motivates GPU-side assessment with instrument
pipelines whose acquisition rates (e.g. 250 GB/s on LCLS-II) forbid
staging full datasets.  :class:`StreamingChecker` assesses an
original/decompressed stream fed as consecutive z-chunks, holding only a
small carry buffer of trailing slices:

* **pattern-1 metrics** — exact: the fused reductions are associative,
  so chunk accumulators merge like the multi-GPU merge;
* **SSIM** — exact, via the same slice-FIFO the pattern-3 kernel uses;
  streaming requires a fixed ``dynamic_range`` in the
  :class:`~repro.kernels.pattern3.Pattern3Config` (the global range is
  unknowable mid-stream);
* **autocorrelation** — exact: raw lagged cross-products accumulate
  per-chunk (a pair at lag τ becomes valid exactly when its τ-later
  slice arrives) and the mean-centring correction is applied once at
  :meth:`finalize`.

The pattern-1 and autocorrelation accumulation is shared with the tiled
executor: both feed consecutive z-blocks into one
:class:`~repro.engine.tiling.TileAccumulator`, so the chunk-merge maths
lives in exactly one place.  Equality with the batch kernels is asserted
in tests for arbitrary chunkings.
"""

from __future__ import annotations

import numpy as np

from repro.engine.tiling import TileAccumulator
from repro.errors import CheckerError, ShapeError
from repro.gpusim.memory import SmemFifo
from repro.kernels.pattern1 import Pattern1Result, result_from_sums
from repro.kernels.pattern3 import Pattern3Config, N_WINDOW_ACCUMS
from repro.metrics.ssim import local_ssim, window_positions
from repro.metrics.twod import box_sums_2d
from repro.telemetry.tracer import NULL_TRACER, Tracer

__all__ = ["StreamingChecker", "StreamingResult"]


class StreamingResult:
    """Finalised streaming assessment (subset of a full report)."""

    def __init__(self, pattern1: Pattern1Result, ssim: float | None,
                 autocorrelation: np.ndarray | None):
        self.pattern1 = pattern1
        self.ssim = ssim
        self.autocorrelation = autocorrelation

    def scalars(self) -> dict[str, float]:
        out = self.pattern1.as_dict()
        if self.ssim is not None:
            out["ssim"] = self.ssim
        return out


class StreamingChecker:
    """Incremental assessment of z-chunked original/decompressed streams.

    Parameters
    ----------
    plane_shape:
        (ny, nx) of every incoming slice.
    max_lag:
        Autocorrelation lags to track (0 disables).
    ssim:
        Pattern-3 configuration; must carry an explicit
        ``dynamic_range``.  ``None`` disables streaming SSIM.
    pwr_floor:
        Pointwise-relative-error exclusion threshold (pattern 1).
    """

    def __init__(
        self,
        plane_shape: tuple[int, int],
        max_lag: int = 10,
        ssim: Pattern3Config | None = None,
        pwr_floor: float = 0.0,
        tracer: Tracer | None = None,
    ):
        if len(plane_shape) != 2 or min(plane_shape) < 1:
            raise ShapeError(f"plane_shape must be (ny, nx), got {plane_shape}")
        if max_lag < 0:
            raise ValueError("max_lag must be >= 0")
        if max_lag >= min(plane_shape):
            raise ShapeError(
                f"max_lag {max_lag} must be < min plane extent {min(plane_shape)}"
            )
        if ssim is not None and ssim.dynamic_range is None:
            raise CheckerError(
                "streaming SSIM needs an explicit dynamic_range (the global "
                "value range is unknown mid-stream)"
            )
        self.ny, self.nx = plane_shape
        self.max_lag = max_lag
        self.ssim_config = ssim
        self.pwr_floor = pwr_floor
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._chunk_index = 0

        # pattern-1 + autocorrelation accumulation (including the rolling
        # carry of the last max_lag error slices) is the tiled executor's
        # accumulator, fed caller-sized chunks instead of slabs
        self._acc = TileAccumulator(
            plane_shape, max_lag=max_lag, pwr_floor=pwr_floor
        )

        # -- streaming SSIM -------------------------------------------------
        self._z = 0
        if ssim is not None:
            ssim.validate((max(ssim.window, 1), self.ny, self.nx))
            py = window_positions(self.ny, ssim.window, ssim.step)
            px = window_positions(self.nx, ssim.window, ssim.step)
            if py == 0 or px == 0:
                raise ShapeError("plane too small for the SSIM window")
            self._fifo = SmemFifo(
                depth=ssim.window, slot_shape=(N_WINDOW_ACCUMS, py, px)
            )
            self._ssim_total = 0.0
            self._ssim_count = 0
        self._finalized = False

    @classmethod
    def from_config(
        cls,
        plane_shape: tuple[int, int],
        config=None,
        tracer: Tracer | None = None,
    ) -> "StreamingChecker":
        """Build a streaming checker from a :class:`CheckerConfig`.

        The metric selection is routed through the execution planner
        (validating the configuration once): autocorrelation streams only
        when the plan schedules pattern 2, SSIM only when it schedules
        pattern 3.
        """
        from repro.engine.plan import build_plan

        plan = build_plan(config)
        config = plan.config
        patterns = plan.patterns
        return cls(
            plane_shape,
            max_lag=config.pattern2.max_lag if 2 in patterns else 0,
            ssim=config.pattern3 if 3 in patterns else None,
            pwr_floor=config.pattern1.pwr_floor,
            tracer=tracer,
        )

    # -- feeding -------------------------------------------------------------

    def update(self, orig_chunk: np.ndarray, dec_chunk: np.ndarray) -> None:
        """Feed the next z-chunk (shape ``(cz, ny, nx)``, any cz >= 1)."""
        if self._finalized:
            raise CheckerError("stream already finalised")
        orig_chunk = np.asarray(orig_chunk)
        dec_chunk = np.asarray(dec_chunk)
        if orig_chunk.shape != dec_chunk.shape:
            raise ShapeError(
                f"chunk shapes differ: {orig_chunk.shape} vs {dec_chunk.shape}"
            )
        if orig_chunk.ndim != 3 or orig_chunk.shape[1:] != (self.ny, self.nx):
            raise ShapeError(
                f"chunks must be (cz, {self.ny}, {self.nx}), got "
                f"{orig_chunk.shape}"
            )
        with self.tracer.span(
            f"chunk{self._chunk_index}", category="step",
            bytes=orig_chunk.nbytes + dec_chunk.nbytes,
            z0=self._z, cz=orig_chunk.shape[0],
        ):
            o64 = orig_chunk.astype(np.float64)
            d64 = dec_chunk.astype(np.float64)
            z0 = self._z
            self._acc.add_block(o64, d64, d64 - o64)
            if self.ssim_config is not None:
                for i in range(o64.shape[0]):
                    self._ingest_ssim_slice(z0 + i, o64[i], d64[i])
            self._z = self._acc.z
        self._chunk_index += 1

    @property
    def _carry(self) -> np.ndarray:
        """The rolling error-slice carry (one entry per tracked lag)."""
        carry = self._acc._carry
        if carry is None:
            return np.zeros((0, self.ny, self.nx))
        return carry

    def _ingest_ssim_slice(self, k: int, o: np.ndarray, d: np.ndarray) -> None:
        cfg = self.ssim_config
        slot = np.stack(
            [
                box_sums_2d(o, cfg.window, cfg.step),
                box_sums_2d(d, cfg.window, cfg.step),
                box_sums_2d(o * o, cfg.window, cfg.step),
                box_sums_2d(d * d, cfg.window, cfg.step),
                box_sums_2d(o * d, cfg.window, cfg.step),
            ]
        )
        self._fifo.push(k, slot)
        if k >= cfg.window - 1 and (k - cfg.window + 1) % cfg.step == 0:
            self._reduce_ssim_window()

    def _reduce_ssim_window(self) -> None:
        cfg = self.ssim_config
        L = float(cfg.dynamic_range)
        c1 = (cfg.k1 * L) ** 2
        c2 = (cfg.k2 * L) ** 2
        volume = float(cfg.window**3)
        local = local_ssim(*self._fifo.reduce(), volume, c1, c2)
        self._ssim_total += float(local.sum())
        self._ssim_count += local.size

    # -- checkpoint/resume -----------------------------------------------------

    def state_dict(self) -> dict:
        """Exact mid-stream state (accumulator, SSIM FIFO, cursors).

        Restoring this snapshot onto a same-configuration checker and
        feeding the remaining chunks is bit-identical to feeding the
        whole stream uninterrupted — the resumable audit's contract,
        property-tested in ``tests/property/test_property_audit.py``.
        """
        state = {
            "acc": self._acc.state_dict(),
            "z": self._z,
            "chunk_index": self._chunk_index,
            "finalized": self._finalized,
        }
        if self.ssim_config is not None:
            state["ssim"] = {
                "total": self._ssim_total,
                "count": self._ssim_count,
                "fifo": self._fifo.state_dict(),
            }
        return state

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (same configuration)."""
        if bool(state.get("finalized")):
            raise CheckerError("cannot restore a finalised stream state")
        has_ssim = "ssim" in state and state["ssim"] is not None
        if has_ssim != (self.ssim_config is not None):
            raise CheckerError(
                "stream state and checker disagree on SSIM configuration"
            )
        self._acc.load_state(state["acc"])
        self._z = int(state["z"])
        self._chunk_index = int(state["chunk_index"])
        if has_ssim:
            self._ssim_total = float(state["ssim"]["total"])
            self._ssim_count = int(state["ssim"]["count"])
            self._fifo.load_state(state["ssim"]["fifo"])

    # -- finishing -------------------------------------------------------------

    def finalize(self) -> StreamingResult:
        """Close the stream and compute the final metric values."""
        if self._acc.n == 0:
            raise CheckerError("no data was streamed")
        self._finalized = True
        with self.tracer.span(
            "finalize", category="step", slices=self._z, elements=self._acc.n
        ):
            return self._finalize_result()

    def _finalize_result(self) -> StreamingResult:
        a = self._acc
        pattern1 = result_from_sums(
            a.n,
            a.min_e,
            a.max_e,
            a.sum_e,
            a.sum_abs_e,
            a.sum_sq_e,
            a.min_o,
            a.max_o,
            a.sum_o,
            a.sum_sq_o,
            a.min_r,
            a.max_r,
            a.sum_r,
            a.cnt_r,
            None,
            None,
        )
        pattern1.extras.update(
            pwr_count=a.cnt_r, sum_pwr=a.sum_r, streamed=True
        )

        ac = a.finalize_autocorr() if self.max_lag >= 1 else None

        ssim = None
        if self.ssim_config is not None:
            if self._ssim_count == 0:
                raise CheckerError(
                    "stream ended before one full SSIM window arrived"
                )
            ssim = self._ssim_total / self._ssim_count
        return StreamingResult(pattern1=pattern1, ssim=ssim,
                               autocorrelation=ac)
