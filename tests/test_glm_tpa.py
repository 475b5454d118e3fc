"""Tests for the generalized GLM TPA engine and its GPU solvers."""

import numpy as np
import pytest

from repro.core import TpaElasticNet, TpaSvm
from repro.core.tpa_scd import TpaScdKernelFactory
from repro.data import make_webspam_like
from repro.gpu import (
    GTX_TITAN_X,
    ElasticNetPrimalRule,
    GlmTpaEngine,
    GpuDevice,
    KernelProfile,
    RidgeDualRule,
    RidgePrimalRule,
    SvmDualRule,
)
from repro.objectives import (
    ElasticNetProblem,
    RidgeProblem,
    SvmProblem,
    solve_exact,
)
from repro.solvers import ElasticNetCD, SequentialSCD, SvmSdca
from repro.solvers.base import ScdSolver


@pytest.fixture
def svm_sparse():
    return make_webspam_like(200, 400, nnz_per_example=12, seed=6)


class TestEngineValidation:
    def _arrays(self, ridge_sparse):
        csc = ridge_sparse.dataset.csc
        return csc.indptr, csc.indices, csc.data

    def test_bad_wave(self, ridge_sparse):
        indptr, indices, data = self._arrays(ridge_sparse)
        rule = RidgePrimalRule(
            ridge_sparse.dataset.csc.col_norms_sq(), ridge_sparse.n, ridge_sparse.lam
        )
        with pytest.raises(ValueError, match="wave_size"):
            GlmTpaEngine(
                indptr, indices, data, rule=rule, wave_size=0, n_threads=32,
                y=ridge_sparse.y,
            )

    def test_front_doors_reject_wave_size_zero(self, small_dense, svm_sparse):
        """An explicit 0 is invalid — only ``None`` means the device default."""
        with pytest.raises(ValueError, match="wave_size must be >= 1"):
            TpaElasticNet(wave_size=0).solve(ElasticNetProblem(small_dense, 0.05), 1)
        with pytest.raises(ValueError, match="wave_size must be >= 1"):
            TpaSvm(wave_size=0).solve(SvmProblem(svm_sparse, lam=1e-2), 1)

    def test_bad_threads(self, ridge_sparse):
        indptr, indices, data = self._arrays(ridge_sparse)
        rule = RidgePrimalRule(
            ridge_sparse.dataset.csc.col_norms_sq(), ridge_sparse.n, ridge_sparse.lam
        )
        with pytest.raises(ValueError, match="power of two"):
            GlmTpaEngine(
                indptr, indices, data, rule=rule, wave_size=1, n_threads=6,
                y=ridge_sparse.y,
            )

    def test_residual_rule_requires_y(self, ridge_sparse):
        indptr, indices, data = self._arrays(ridge_sparse)
        rule = RidgePrimalRule(
            ridge_sparse.dataset.csc.col_norms_sq(), ridge_sparse.n, ridge_sparse.lam
        )
        with pytest.raises(ValueError, match="label vector"):
            GlmTpaEngine(indptr, indices, data, rule=rule, wave_size=1, n_threads=32)

    def test_bad_needs(self, ridge_sparse):
        indptr, indices, data = self._arrays(ridge_sparse)

        class Odd:
            needs = "everything"

            def deltas(self, c, d, w):
                return d

            def shared_scale(self, c):
                return 1.0

        with pytest.raises(ValueError, match="residual|shared"):
            GlmTpaEngine(indptr, indices, data, rule=Odd(), wave_size=1, n_threads=32)


class TestRidgeRuleEquivalence:
    """The generalized engine with ridge rules == the specialized engine."""

    def test_primal_matches_tpa_scd(self, ridge_sparse):
        csc = ridge_sparse.dataset.csc
        rule = RidgePrimalRule(
            csc.col_norms_sq(), ridge_sparse.n, ridge_sparse.lam, dtype=np.float64
        )
        engine = GlmTpaEngine(
            csc.indptr, csc.indices, csc.data, rule=rule, wave_size=4,
            n_threads=64, dtype=np.float64, y=ridge_sparse.y,
        )
        beta = np.zeros(ridge_sparse.m)
        w = np.zeros(ridge_sparse.n)
        rng = np.random.default_rng(0)
        perm = rng.permutation(ridge_sparse.m)
        engine.run_epoch(beta, w, perm, rng)

        fac = TpaScdKernelFactory(
            GpuDevice(GTX_TITAN_X), wave_size=4, n_threads=64, dtype=np.float64
        )
        bound = fac.bind_primal(
            csc, ridge_sparse.y, ridge_sparse.n, ridge_sparse.lam
        )
        beta2 = np.zeros(ridge_sparse.m)
        w2 = np.zeros(ridge_sparse.n)
        bound.run_epoch(beta2, w2, perm, rng)
        assert np.allclose(beta, beta2, atol=1e-12)
        assert np.allclose(w, w2, atol=1e-12)

    def test_dual_matches_sequential_at_wave1(self, ridge_sparse):
        csr = ridge_sparse.dataset.csr
        rule = RidgeDualRule(
            ridge_sparse.y, csr.row_norms_sq(), ridge_sparse.n, ridge_sparse.lam,
            dtype=np.float64,
        )
        engine = GlmTpaEngine(
            csr.indptr, csr.indices, csr.data, rule=rule, wave_size=1,
            n_threads=64, dtype=np.float64,
        )
        alpha = np.zeros(ridge_sparse.n)
        wbar = np.zeros(ridge_sparse.m)
        rng = np.random.default_rng(1)
        perm = rng.permutation(ridge_sparse.n)
        engine.run_epoch(alpha, wbar, perm, rng)

        seq = SequentialSCD("dual", seed=123)
        bound = seq._bind(ridge_sparse)
        alpha2 = np.zeros(ridge_sparse.n)
        wbar2 = np.zeros(ridge_sparse.m)
        bound.run_epoch(alpha2, wbar2, perm, rng)
        assert np.allclose(alpha, alpha2, atol=1e-12)

    def test_elasticnet_l1zero_equals_ridge_rule(self, ridge_sparse):
        """l1_ratio = 0: the elastic-net rule IS the ridge update."""
        csc = ridge_sparse.dataset.csc
        norms = csc.col_norms_sq()
        enet = ElasticNetPrimalRule(
            norms, ridge_sparse.n, ridge_sparse.lam, 0.0, dtype=np.float64
        )
        ridge = RidgePrimalRule(
            norms, ridge_sparse.n, ridge_sparse.lam, dtype=np.float64
        )
        rng = np.random.default_rng(2)
        coords = np.arange(10)
        dots = rng.standard_normal(10)
        weights = rng.standard_normal(10)
        assert np.allclose(
            enet.deltas(coords, dots, weights),
            ridge.deltas(coords, dots, weights),
            atol=1e-12,
        )


class TestTpaElasticNet:
    def test_converges_and_matches_cpu(self, small_dense):
        enp = ElasticNetProblem(small_dense, 0.05, l1_ratio=0.5)
        beta_gpu, h_gpu = TpaElasticNet(wave_size=1, seed=0, dtype=np.float64).solve(
            enp, 80, monitor_every=40
        )
        beta_cpu, _ = ElasticNetCD(seed=0).solve(enp, 80, monitor_every=40)
        assert h_gpu.final_gap() < 1e-8
        assert np.allclose(beta_gpu, beta_cpu, atol=1e-8)

    def test_fp32_converges(self, small_dense):
        enp = ElasticNetProblem(small_dense, 0.05, l1_ratio=0.5)
        beta, h = TpaElasticNet(wave_size=2, seed=0).solve(enp, 60, monitor_every=30)
        assert h.final_gap() < 1e-4

    def test_sparsifies(self, small_dense):
        enp = ElasticNetProblem(small_dense, 0.3, l1_ratio=0.95)
        beta, h = TpaElasticNet(wave_size=1, seed=0).solve(enp, 60, monitor_every=30)
        assert np.count_nonzero(beta) < small_dense.n_features

    def test_sim_time_positive(self, small_dense):
        enp = ElasticNetProblem(small_dense, 0.05)
        _, h = TpaElasticNet(wave_size=1, seed=0).solve(enp, 3)
        assert h.sim_times[-1] > 0

    def test_validation(self, small_dense):
        enp = ElasticNetProblem(small_dense, 0.05)
        with pytest.raises(ValueError, match="n_epochs"):
            TpaElasticNet().solve(enp, -1)


class TestTpaSvm:
    def test_converges_and_tracks_cpu(self, svm_sparse):
        svm = SvmProblem(svm_sparse, lam=1e-2)
        w_gpu, a_gpu, h_gpu = TpaSvm(wave_size=2, seed=0).solve(
            svm, 25, monitor_every=5
        )
        assert h_gpu.final_gap() < 1e-6
        w_cpu, a_cpu, h_cpu = SvmSdca(seed=0).solve(svm, 25, monitor_every=5)
        # same accuracy on the training set
        acc_gpu = float(np.mean(svm.predict(w_gpu) == svm_sparse.y))
        acc_cpu = float(np.mean(svm.predict(w_cpu) == svm_sparse.y))
        assert abs(acc_gpu - acc_cpu) < 0.05

    def test_alpha_in_box(self, svm_sparse):
        svm = SvmProblem(svm_sparse, lam=1e-2)
        _, alpha, _ = TpaSvm(wave_size=2, seed=0).solve(svm, 5)
        assert np.all(alpha >= 0.0) and np.all(alpha <= 1.0)

    def test_sdca_invariant_held_to_fp32(self, svm_sparse):
        svm = SvmProblem(svm_sparse, lam=1e-2)
        w, alpha, _ = TpaSvm(wave_size=1, seed=0, dtype=np.float64).solve(svm, 5)
        assert np.allclose(w, svm.weights_from_alpha(alpha), atol=1e-9)

    def test_profiler_integration(self, svm_sparse):
        svm = SvmProblem(svm_sparse, lam=1e-2)
        prof = KernelProfile()
        TpaSvm(wave_size=4, seed=0, profiler=prof).solve(svm, 2)
        assert prof.blocks == 2 * svm.n
        assert prof.nnz_processed > 0

    def test_early_stop(self, svm_sparse):
        svm = SvmProblem(svm_sparse, lam=1e-2)
        _, _, h = TpaSvm(wave_size=1, seed=0).solve(
            svm, 200, monitor_every=1, target_gap=1e-3
        )
        assert h.records[-1].epoch < 200
