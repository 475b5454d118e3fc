"""Tests for the TPA-SCD GPU execution engine (Algorithm 2 emulation)."""

import numpy as np
import pytest

import repro
from repro.core.tpa_scd import TpaScd, TpaScdKernelFactory, scaled_wave_size
from repro.gpu import (
    GTX_TITAN_X,
    QUADRO_M4000,
    GpuDevice,
    GpuOutOfMemoryError,
    GpuTimingModel,
    TpaScdEngine,
    block_tree_dots,
)
from repro.objectives import solve_exact
from repro.perf.timing import EpochWorkload
from repro.solvers import SequentialSCD
from repro.solvers.base import ScdSolver
from repro.solvers.kernels import gather_chunk


class TestBlockTreeDots:
    def test_matches_dot_product(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(500).astype(np.float32)
        gathered = rng.standard_normal(500).astype(np.float32)
        seg_ptr = np.array([0, 120, 120, 500])
        dots = block_tree_dots(vals, gathered, seg_ptr, n_threads=64)
        expected = [
            float(np.dot(vals[a:b].astype(np.float64), gathered[a:b].astype(np.float64)))
            for a, b in zip(seg_ptr[:-1], seg_ptr[1:])
        ]
        assert np.allclose(dots, expected, rtol=1e-4, atol=1e-4)

    def test_empty_wave(self):
        out = block_tree_dots(
            np.zeros(0, np.float32), np.zeros(0, np.float32), np.array([0]), 32
        )
        assert out.shape == (0,)

    def test_empty_segment_gives_zero(self):
        vals = np.ones(3, np.float32)
        dots = block_tree_dots(vals, vals, np.array([0, 0, 3]), 8)
        assert dots[0] == 0.0
        assert dots[1] == pytest.approx(3.0)

    def test_segment_longer_than_threads(self):
        """Strided accumulation must handle nnz >> n_threads."""
        vals = np.ones(1000, np.float32)
        dots = block_tree_dots(vals, vals, np.array([0, 1000]), n_threads=4)
        assert dots[0] == pytest.approx(1000.0)

    def test_float64_mode_is_exact(self):
        rng = np.random.default_rng(1)
        vals = rng.standard_normal(100)
        gathered = rng.standard_normal(100)
        dots = block_tree_dots(vals, gathered, np.array([0, 100]), 16, dtype=np.float64)
        assert dots[0] == pytest.approx(float(vals @ gathered), rel=1e-12)

    def test_reduction_order_is_tree_not_sequential(self):
        """fp32 tree reduction rounds differently from a sequential sum —
        the emulation must reproduce the *tree* order."""
        rng = np.random.default_rng(2)
        vals = (rng.standard_normal(64) * 1e3).astype(np.float32)
        ones = np.ones(64, np.float32)
        dots = block_tree_dots(vals, ones, np.array([0, 64]), n_threads=64)
        # with 64 lanes and 64 elements each lane holds one value: the
        # result is the pairwise tree sum
        tree = vals.copy()
        v = 32
        while v:
            tree[:v] += tree[v : 2 * v]
            v //= 2
        assert dots[0] == tree[0]


class TestTpaScdEngine:
    def test_validation(self):
        arr = np.array([0, 1])
        with pytest.raises(ValueError, match="wave_size"):
            TpaScdEngine(arr, np.array([0]), np.ones(1), wave_size=0, n_threads=32)
        with pytest.raises(ValueError, match="power of two"):
            TpaScdEngine(arr, np.array([0]), np.ones(1), wave_size=1, n_threads=3)

    @pytest.mark.parametrize("formulation", ["primal", "dual"])
    def test_front_doors_reject_wave_size_zero(self, ridge_sparse, formulation):
        """An explicit 0 is invalid — only ``None`` means the device default."""
        with pytest.raises(ValueError, match="wave_size must be >= 1"):
            TpaScd(formulation, wave_size=0).solve(ridge_sparse, 1)
        with pytest.raises(ValueError, match="wave_size must be >= 1"):
            repro.train(
                ridge_sparse, "tpa-scd", formulation=formulation,
                n_epochs=1, wave_size=0,
            )

    def test_wave_size_none_is_the_device_default(self, ridge_sparse):
        default = TpaScd(seed=1).solve(ridge_sparse, 2)
        explicit = TpaScd(
            wave_size=GTX_TITAN_X.resident_blocks, seed=1
        ).solve(ridge_sparse, 2)
        assert np.array_equal(default.weights, explicit.weights)

    def test_wave_one_matches_sequential_fp64(self, ridge_sparse):
        """With no staleness and float64 arithmetic, TPA-SCD is exactly
        Algorithm 1 (up to reduction rounding, eliminated by fp64)."""
        factory = TpaScdKernelFactory(
            GpuDevice(GTX_TITAN_X), wave_size=1, dtype=np.float64
        )
        tpa = ScdSolver(factory, "primal", seed=0).solve(ridge_sparse, 5)
        seq = SequentialSCD("primal", seed=0).solve(ridge_sparse, 5)
        assert np.allclose(tpa.weights, seq.weights, atol=1e-10)

    def test_wave_one_dual_matches_sequential_fp64(self, ridge_sparse):
        factory = TpaScdKernelFactory(
            GpuDevice(GTX_TITAN_X), wave_size=1, dtype=np.float64
        )
        tpa = ScdSolver(factory, "dual", seed=0).solve(ridge_sparse, 5)
        seq = SequentialSCD("dual", seed=0).solve(ridge_sparse, 5)
        assert np.allclose(tpa.weights, seq.weights, atol=1e-10)

    def test_fp32_converges_close_to_sequential(self, ridge_sparse):
        tpa = TpaScd("primal", wave_size=2, seed=0).solve(ridge_sparse, 10)
        seq = SequentialSCD("primal", seed=0).solve(ridge_sparse, 10)
        # both reach small gaps; fp32 floors higher but still tiny
        assert tpa.history.final_gap() < 1e-5
        assert seq.history.final_gap() < tpa.history.final_gap() + 1e-5

    def test_moderate_wave_still_converges(self, ridge_sparse):
        tpa = TpaScd("primal", wave_size=8, seed=0).solve(ridge_sparse, 15)
        assert tpa.history.final_gap() < 1e-5

    def test_converges_to_exact_solution(self, ridge_small):
        factory = TpaScdKernelFactory(
            GpuDevice(GTX_TITAN_X), wave_size=1, dtype=np.float64
        )
        res = ScdSolver(factory, "primal", seed=0).solve(ridge_small, 150)
        sol = solve_exact(ridge_small)
        assert np.allclose(res.weights, sol.beta, atol=1e-6)

    def test_weights_are_float32_by_default(self, ridge_sparse):
        res = TpaScd("primal", wave_size=2).solve(ridge_sparse, 2)
        assert res.weights.dtype == np.float32

    def test_oom_gate(self, ridge_sparse):
        factory = TpaScdKernelFactory(
            GpuDevice(GTX_TITAN_X),
            simulated_dataset_nbytes=40 * 2**30,
        )
        with pytest.raises(GpuOutOfMemoryError):
            factory.bind_dual(
                ridge_sparse.dataset.csr,
                ridge_sparse.y,
                ridge_sparse.n,
                ridge_sparse.lam,
            )

    def test_rebinding_resets_memory(self, ridge_sparse):
        factory = TpaScdKernelFactory(GpuDevice(GTX_TITAN_X))
        for _ in range(3):  # no leak across binds
            factory.bind_primal(
                ridge_sparse.dataset.csc,
                ridge_sparse.y,
                ridge_sparse.n,
                ridge_sparse.lam,
            )

    def test_atomicity_shared_vector_consistency(self, ridge_sparse):
        """GPU atomics never lose updates: w stays consistent with beta."""
        factory = TpaScdKernelFactory(
            GpuDevice(GTX_TITAN_X), wave_size=16, dtype=np.float64
        )
        res = ScdSolver(factory, "primal", seed=0).solve(ridge_sparse, 5)
        w_expected = ridge_sparse.dataset.csc.matvec(res.weights.astype(np.float64))
        assert np.allclose(res.shared, w_expected, atol=1e-9)


class TestScaledWave:
    def test_preserves_fraction(self):
        wave = scaled_wave_size(GTX_TITAN_X, 1000, 100_000)
        frac_paper = GTX_TITAN_X.resident_blocks / 100_000
        assert wave == pytest.approx(frac_paper * 1000, abs=1)

    def test_minimum_one(self):
        assert scaled_wave_size(QUADRO_M4000, 10, 10_000_000) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            scaled_wave_size(QUADRO_M4000, 0, 100)


class TestGpuTiming:
    def test_bandwidth_ordering(self):
        wl = EpochWorkload(n_coords=100_000, nnz=10_000_000, shared_len=100_000)
        t_m4000 = GpuTimingModel(QUADRO_M4000).epoch_seconds(wl)
        t_titanx = GpuTimingModel(GTX_TITAN_X).epoch_seconds(wl)
        assert t_titanx < t_m4000

    def test_monotone_in_nnz(self):
        small = EpochWorkload(n_coords=10, nnz=1_000, shared_len=10)
        big = EpochWorkload(n_coords=10, nnz=1_000_000, shared_len=10)
        model = GpuTimingModel(GTX_TITAN_X)
        assert model.epoch_seconds(big) > model.epoch_seconds(small)

    def test_component_label(self):
        assert GpuTimingModel(GTX_TITAN_X).component == "compute_gpu"

    def test_paper_speedup_band(self):
        """The calibrated models must land in the published speedup bands:
        M4000 ~10-14x, Titan X ~25-35x over single-thread CPU (webspam)."""
        from repro.core.scale import WEBSPAM_PAPER
        from repro.cpu import SequentialCpuTiming

        wl = WEBSPAM_PAPER.worker_workload("dual", 1.0, 1.0)
        t_cpu = SequentialCpuTiming().epoch_seconds(wl)
        s_m4000 = t_cpu / GpuTimingModel(QUADRO_M4000).epoch_seconds(wl)
        s_titanx = t_cpu / GpuTimingModel(GTX_TITAN_X).epoch_seconds(wl)
        assert 8 <= s_m4000 <= 16
        assert 22 <= s_titanx <= 40
