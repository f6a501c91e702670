import numpy as np
import pytest

from repro.core.workspace import MetricWorkspace
from repro.errors import ShapeError
from repro.kernels.pattern3 import (
    LANES,
    YROWS,
    Pattern3Config,
    _execute_fused,
    execute_pattern3,
    plan_pattern3,
)
from repro.metrics.ssim import SsimConfig, ssim3d


class TestPattern3Config:
    def test_paper_defaults(self):
        cfg = Pattern3Config()
        assert cfg.window == 8
        assert cfg.step == 1
        assert cfg.xnum == LANES - 8 + 1 == 25
        assert cfg.ynum == YROWS - 8 + 1 == 5

    def test_smem_formula(self):
        cfg = Pattern3Config()
        assert cfg.smem_per_block == 25 * 5 * 8 * 5 * 4 == 20000

    def test_window_exceeding_warp_rejected(self):
        with pytest.raises(ShapeError):
            Pattern3Config(window=33).validate((40, 40, 40))

    def test_window_exceeding_rows_rejected(self):
        with pytest.raises(ShapeError):
            Pattern3Config(window=13).validate((40, 40, 40))


class TestPlanPattern3:
    def test_table2_resources(self):
        """Paper Table II: 11k Regs/TB, ~16KB SMem/TB for pattern 3."""
        stats = plan_pattern3((100, 500, 500))
        assert stats.regs_per_block == 11136  # "11k"
        assert 15_000 <= stats.smem_per_block <= 21_000  # "16KB"

    def test_iters_trend_matches_paper(self):
        """Table II: NYX (8.7k) > SCALE (3.4k) > Miranda (2.9k) >
        Hurricane (1.8k)."""
        hur = plan_pattern3((100, 500, 500)).iters_per_thread
        nyx = plan_pattern3((512, 512, 512)).iters_per_thread
        scale = plan_pattern3((98, 1200, 1200)).iters_per_thread
        mira = plan_pattern3((256, 384, 384)).iters_per_thread
        assert nyx > scale > mira > hur

    def test_chain_length_is_z_walk(self):
        stats = plan_pattern3((512, 512, 512))
        assert stats.meta["chain_length"] == stats.iters_per_thread

    def test_fifo_reads_each_slice_once(self):
        """The FIFO's defining property: global traffic is independent of
        the window size (one read per staged element)."""
        with_fifo = plan_pattern3((64, 64, 64), fifo=True)
        without = plan_pattern3((64, 64, 64), fifo=False)
        assert without.global_read_bytes == pytest.approx(
            8 * with_fifo.global_read_bytes, rel=1e-12
        )

    def test_nofifo_recompute_overhead(self):
        with_fifo = plan_pattern3((64, 64, 64), fifo=True)
        without = plan_pattern3((64, 64, 64), fifo=False)
        assert without.flops > with_fifo.flops
        # but far below the 8x a naive model would charge (the paper
        # measures only ~1.5x end-to-end)
        assert without.flops < 2.5 * with_fifo.flops

    def test_step_reduces_window_count(self):
        dense = plan_pattern3((64, 64, 64), Pattern3Config(window=8, step=1))
        strided = plan_pattern3((64, 64, 64), Pattern3Config(window=8, step=2))
        assert strided.meta["n_windows"] < dense.meta["n_windows"]


class TestExecutePattern3:
    def test_matches_reference(self, banded_pair):
        orig, dec = banded_pair
        result, _ = execute_pattern3(orig, dec, Pattern3Config(window=8, step=1))
        ref = ssim3d(orig, dec, SsimConfig(window=8, step=1))
        assert result.ssim == pytest.approx(ref.ssim, rel=1e-12)
        assert result.n_windows == ref.n_windows
        assert result.min_window_ssim == pytest.approx(ref.min_window_ssim, rel=1e-10)
        assert result.max_window_ssim == pytest.approx(ref.max_window_ssim, rel=1e-10)

    @pytest.mark.parametrize("window,step", [(4, 1), (6, 2), (8, 3), (5, 5)])
    def test_window_step_combinations(self, noisy_pair, window, step):
        orig, dec = noisy_pair
        result, _ = execute_pattern3(
            orig, dec, Pattern3Config(window=window, step=step)
        )
        ref = ssim3d(orig, dec, SsimConfig(window=window, step=step))
        assert result.ssim == pytest.approx(ref.ssim, rel=1e-12)
        assert result.n_windows == ref.n_windows

    def test_identical_inputs_score_one(self, smooth_field):
        result, _ = execute_pattern3(
            smooth_field, smooth_field, Pattern3Config(window=6)
        )
        assert result.ssim == pytest.approx(1.0)

    def test_explicit_dynamic_range(self, noisy_pair):
        orig, dec = noisy_pair
        result, _ = execute_pattern3(
            orig, dec, Pattern3Config(window=6, dynamic_range=100.0)
        )
        ref = ssim3d(orig, dec, SsimConfig(window=6, dynamic_range=100.0))
        assert result.ssim == pytest.approx(ref.ssim, rel=1e-12)

    def test_window_larger_than_z_raises(self, rng):
        orig = rng.normal(size=(4, 20, 20)).astype(np.float32)
        with pytest.raises(ShapeError):
            execute_pattern3(orig, orig, Pattern3Config(window=8))

    def test_as_dict(self, noisy_pair):
        result, _ = execute_pattern3(*noisy_pair, Pattern3Config(window=6))
        assert set(result.as_dict()) == {"ssim"}


class TestFusedPath:
    def test_leaves_workspace_unchanged(self, noisy_pair):
        ws = MetricWorkspace(*noisy_pair)
        keys = ("o64", "d64", "o_sq", "d_sq", "od")
        before = {k: getattr(ws, k).copy() for k in keys}
        moments = dict(ws.moments)
        _execute_fused(ws, Pattern3Config(window=6, step=1))
        for k in keys:
            assert np.array_equal(getattr(ws, k), before[k]), k
        assert ws.moments == moments

    def test_fused_equals_reference_bitwise(self, noisy_pair):
        cfg = Pattern3Config(window=6, step=2)
        fused = _execute_fused(MetricWorkspace(*noisy_pair), cfg)
        ref = ssim3d(*noisy_pair, cfg.ssim_config)
        assert fused.as_ssim_result == ref
