"""Tests for the GLM rules on the TPA engine and the GPU GLM solvers."""

import numpy as np
import pytest

from repro.core import TpaElasticNet, TpaSvm
from repro.core.tpa_scd import TpaScdKernelFactory
from repro.data import make_webspam_like
from repro.gpu import (
    GTX_TITAN_X,
    ElasticNetPrimalRule,
    GpuDevice,
    RidgeDualRule,
    RidgePrimalRule,
    SvmDualRule,
    TpaScdEngine,
)
from repro.objectives import (
    ElasticNetProblem,
    RidgeProblem,
    SvmProblem,
    solve_exact,
)
from repro.obs import Tracer
from repro.solvers import ElasticNetCD, SequentialSCD, SvmSdca
from repro.solvers.base import ScdSolver

from .test_plan_runtime import WAVE_COUNTERS, bruteforce_wave_counters


@pytest.fixture
def svm_sparse():
    return make_webspam_like(200, 400, nnz_per_example=12, seed=6)


class TestEngineValidation:
    def _arrays(self, ridge_sparse):
        csc = ridge_sparse.dataset.csc
        return csc.indptr, csc.indices, csc.data

    def test_bad_wave(self, ridge_sparse):
        indptr, indices, data = self._arrays(ridge_sparse)
        with pytest.raises(ValueError, match="wave_size"):
            TpaScdEngine(indptr, indices, data, wave_size=0, n_threads=32)

    def test_front_doors_reject_wave_size_zero(self, small_dense, svm_sparse):
        """An explicit 0 is invalid — only ``None`` means the device default."""
        with pytest.raises(ValueError, match="wave_size must be >= 1"):
            TpaElasticNet(wave_size=0).solve(ElasticNetProblem(small_dense, 0.05), 1)
        with pytest.raises(ValueError, match="wave_size must be >= 1"):
            TpaSvm(wave_size=0).solve(SvmProblem(svm_sparse, lam=1e-2), 1)

    def test_bad_threads(self, ridge_sparse):
        indptr, indices, data = self._arrays(ridge_sparse)
        with pytest.raises(ValueError, match="power of two"):
            TpaScdEngine(indptr, indices, data, wave_size=1, n_threads=6)

    def test_residual_rule_requires_y(self, ridge_sparse):
        indptr, indices, data = self._arrays(ridge_sparse)
        rule = RidgePrimalRule(
            ridge_sparse.dataset.csc.col_norms_sq(), ridge_sparse.n, ridge_sparse.lam
        )
        engine = TpaScdEngine(indptr, indices, data, wave_size=1, n_threads=32)
        beta = np.zeros(ridge_sparse.m, np.float32)
        w = np.zeros(ridge_sparse.n, np.float32)
        with pytest.raises(ValueError, match="label vector"):
            engine.run_epoch(rule, beta, w, np.arange(ridge_sparse.m))

    def test_bad_needs(self, ridge_sparse):
        indptr, indices, data = self._arrays(ridge_sparse)

        class Odd:
            needs = "everything"

            def deltas(self, c, d, w):
                return d

            def shared_scale(self, c):
                return 1.0

        engine = TpaScdEngine(indptr, indices, data, wave_size=1, n_threads=32)
        beta = np.zeros(ridge_sparse.m, np.float32)
        w = np.zeros(ridge_sparse.n, np.float32)
        with pytest.raises(ValueError, match="residual|shared"):
            engine.run_epoch(Odd(), beta, w, np.arange(ridge_sparse.m))


class TestRidgeRuleEquivalence:
    """The generalized engine with ridge rules == the specialized engine."""

    def test_primal_matches_tpa_scd(self, ridge_sparse):
        csc = ridge_sparse.dataset.csc
        rule = RidgePrimalRule(
            csc.col_norms_sq(), ridge_sparse.n, ridge_sparse.lam, dtype=np.float64
        )
        engine = TpaScdEngine(
            csc.indptr, csc.indices, csc.data, wave_size=4, n_threads=64,
            dtype=np.float64,
        )
        beta = np.zeros(ridge_sparse.m)
        w = np.zeros(ridge_sparse.n)
        rng = np.random.default_rng(0)
        perm = rng.permutation(ridge_sparse.m)
        engine.run_epoch(rule, beta, w, perm, y=ridge_sparse.y)

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
        engine = TpaScdEngine(
            csr.indptr, csr.indices, csr.data, wave_size=1, n_threads=64,
            dtype=np.float64,
        )
        alpha = np.zeros(ridge_sparse.n)
        wbar = np.zeros(ridge_sparse.m)
        rng = np.random.default_rng(1)
        perm = rng.permutation(ridge_sparse.n)
        engine.run_epoch(rule, alpha, wbar, perm)

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
        gpu = TpaElasticNet(wave_size=1, seed=0, dtype=np.float64).solve(
            enp, 80, monitor_every=40
        )
        cpu = ElasticNetCD(seed=0).solve(enp, 80, monitor_every=40)
        assert gpu.history.final_gap() < 1e-8
        assert np.allclose(gpu.weights, cpu.weights, atol=1e-8)

    def test_fp32_converges(self, small_dense):
        enp = ElasticNetProblem(small_dense, 0.05, l1_ratio=0.5)
        h = TpaElasticNet(wave_size=2, seed=0).solve(enp, 60, monitor_every=30).history
        assert h.final_gap() < 1e-4

    def test_sparsifies(self, small_dense):
        enp = ElasticNetProblem(small_dense, 0.3, l1_ratio=0.95)
        beta = TpaElasticNet(wave_size=1, seed=0).solve(
            enp, 60, monitor_every=30
        ).weights
        assert np.count_nonzero(beta) < small_dense.n_features

    def test_sim_time_positive(self, small_dense):
        enp = ElasticNetProblem(small_dense, 0.05)
        h = TpaElasticNet(wave_size=1, seed=0).solve(enp, 3).history
        assert h.sim_times[-1] > 0

    def test_validation(self, small_dense):
        enp = ElasticNetProblem(small_dense, 0.05)
        with pytest.raises(ValueError, match="n_epochs"):
            TpaElasticNet().solve(enp, -1)


class TestTpaSvm:
    def test_converges_and_tracks_cpu(self, svm_sparse):
        svm = SvmProblem(svm_sparse, lam=1e-2)
        gpu = TpaSvm(wave_size=2, seed=0).solve(svm, 25, monitor_every=5)
        assert gpu.history.final_gap() < 1e-6
        cpu = SvmSdca(seed=0).solve(svm, 25, monitor_every=5)
        # same accuracy on the training set
        acc_gpu = float(np.mean(svm.predict(gpu.weights) == svm_sparse.y))
        acc_cpu = float(np.mean(svm.predict(cpu.weights) == svm_sparse.y))
        assert abs(acc_gpu - acc_cpu) < 0.05

    def test_alpha_in_box(self, svm_sparse):
        svm = SvmProblem(svm_sparse, lam=1e-2)
        alpha = TpaSvm(wave_size=2, seed=0).solve(svm, 5).alpha
        assert np.all(alpha >= 0.0) and np.all(alpha <= 1.0)

    def test_sdca_invariant_held_to_fp32(self, svm_sparse):
        svm = SvmProblem(svm_sparse, lam=1e-2)
        res = TpaSvm(wave_size=1, seed=0, dtype=np.float64).solve(svm, 5)
        assert np.allclose(res.weights, svm.weights_from_alpha(res.alpha), atol=1e-9)

    def test_profiler_integration(self, svm_sparse, monkeypatch, request):
        """A traced run's wave counters are what per-wave gathers of the
        epochs it ran show, on the compiled loop and on the reference."""
        svm = SvmProblem(svm_sparse, lam=1e-2)
        csr = svm.dataset.csr
        perms = []
        run_epoch = TpaScdEngine.run_epoch

        def recording(engine, rule, weights, shared, perm, **kw):
            perms.append(perm.copy())
            return run_epoch(engine, rule, weights, shared, perm, **kw)

        monkeypatch.setattr(TpaScdEngine, "run_epoch", recording)
        runs = {}
        for loop in ("native", "numpy"):
            if loop == "numpy":
                request.getfixturevalue("no_compiler")
            perms.clear()
            solver = TpaSvm(wave_size=4, n_threads=8, seed=0)
            res = solver.solve(svm, 2, tracer=Tracer())
            runs[loop] = {name: res.metrics.counter(name) for name in WAVE_COUNTERS}
            assert len(perms) == 2
            assert runs[loop] == bruteforce_wave_counters(
                csr.indptr, csr.indices, csr.data, perms, 4, 8
            )
            assert runs[loop]["gpu.blocks"] == 2 * svm.n
        assert runs["native"] == runs["numpy"]

    def test_early_stop(self, svm_sparse):
        svm = SvmProblem(svm_sparse, lam=1e-2)
        h = TpaSvm(wave_size=1, seed=0).solve(
            svm, 200, monitor_every=1, target_gap=1e-3
        ).history
        assert h.records[-1].epoch < 200
