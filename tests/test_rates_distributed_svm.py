"""Tests for convergence-rate estimation and the distributed SVM engine."""

import numpy as np
import pytest

from repro.core import DistributedSCD, DistributedSvm
from repro.data import make_webspam_like
from repro.metrics import ConvergenceHistory, ConvergenceRecord, linear_rate, slowdown_factor
from repro.objectives import RidgeProblem, SvmProblem
from repro.solvers import SvmSdca
from repro.solvers.scd import SequentialKernelFactory


def _geometric_history(rate: float, n: int = 12) -> ConvergenceHistory:
    h = ConvergenceHistory()
    for e in range(n):
        h.append(
            ConvergenceRecord(
                epoch=e, gap=float(np.exp(-rate * e)), objective=0.0,
                sim_time=float(e), wall_time=0.0, updates=0,
            )
        )
    return h


class TestLinearRate:
    def test_recovers_exact_rate(self):
        assert linear_rate(_geometric_history(0.7)) == pytest.approx(0.7, rel=1e-9)

    def test_ignores_float_plateau(self):
        h = _geometric_history(2.0, n=8)
        # append a machine-precision plateau that would bias the fit
        for e in range(8, 14):
            h.append(
                ConvergenceRecord(
                    epoch=e, gap=1e-16, objective=0.0, sim_time=float(e),
                    wall_time=0.0, updates=0,
                )
            )
        assert linear_rate(h, gap_floor=1e-14) == pytest.approx(2.0, rel=1e-6)

    def test_nan_when_insufficient_points(self):
        h = _geometric_history(1.0, n=2)
        assert np.isnan(linear_rate(h))

    def test_slowdown_factor(self):
        fast = _geometric_history(1.0)
        slow = _geometric_history(0.25)
        assert slowdown_factor(fast, slow) == pytest.approx(4.0, rel=1e-9)

    def test_fig3_claim_quantified(self, ridge_sparse):
        """The linear slow-down of Fig. 3, measured: rate(K=4) ~ rate(1)/4."""
        runs = {}
        for k in (1, 4):
            runs[k] = DistributedSCD(
                SequentialKernelFactory(),
                "dual",
                n_workers=k,
                aggregation="averaging",
                seed=3,
            ).solve(ridge_sparse, 10 * k, monitor_every=2).history
        factor = slowdown_factor(runs[1], runs[4])
        # "approximately linear": ~4x, widened for the tiny fixture's
        # slower tail (the rate fit averages over the whole trajectory)
        assert 2.0 < factor < 12.0


@pytest.fixture(scope="module")
def svm_problem():
    ds = make_webspam_like(300, 600, nnz_per_example=15, seed=6)
    return SvmProblem(ds, lam=1e-2)


class TestDistributedSvm:
    def test_k1_matches_single_node_order(self, svm_problem):
        res = DistributedSvm(n_workers=1, seed=0).solve(svm_problem, 10)
        h = res.history
        h_single = SvmSdca(seed=0).solve(svm_problem, 10).history
        assert h.final_gap() < 1e-4
        assert h.final_gap() < h_single.final_gap() * 1e3 + 1e-9

    @pytest.mark.parametrize("k", [2, 4])
    def test_converges(self, svm_problem, k):
        res = DistributedSvm(n_workers=k, seed=3).solve(svm_problem, 12 * k)
        assert res.history.final_gap() < 1e-4

    def test_primal_dual_consistency(self, svm_problem):
        """w must remain the SDCA image of the aggregated alphas."""
        res = DistributedSvm(n_workers=4, seed=3).solve(svm_problem, 8)
        assert np.allclose(
            res.weights, svm_problem.weights_from_alpha(res.alpha), atol=1e-10
        )

    def test_alpha_in_box(self, svm_problem):
        alpha = DistributedSvm(n_workers=4, seed=3).solve(svm_problem, 8).alpha
        assert np.all(alpha >= -1e-12) and np.all(alpha <= 1 + 1e-12)

    def test_slowdown_with_k(self, svm_problem):
        gaps = {}
        for k in (1, 4):
            res = DistributedSvm(n_workers=k, seed=3).solve(svm_problem, 6)
            gaps[k] = res.history.final_gap()
        assert gaps[1] <= gaps[4]

    def test_sigma_prime_accelerates(self, svm_problem):
        h1 = DistributedSvm(n_workers=4, sigma_prime=1.0, seed=3).solve(
            svm_problem, 8
        ).history
        h2 = DistributedSvm(n_workers=4, sigma_prime=2.0, seed=3).solve(
            svm_problem, 8
        ).history
        assert h2.final_gap() < h1.final_gap()

    def test_ledger_populated(self, svm_problem):
        from repro.core.scale import CRITEO_PAPER

        ledger = DistributedSvm(
            n_workers=4, seed=3, paper_scale=CRITEO_PAPER
        ).solve(svm_problem, 2).ledger
        assert ledger.get("compute_host") > 0
        assert ledger.get("comm_network") > 0

    def test_early_stop(self, svm_problem):
        res = DistributedSvm(n_workers=2, seed=3).solve(
            svm_problem, 200, monitor_every=1, target_gap=1e-3
        )
        assert res.history.records[-1].epoch < 200

    def test_validation(self, svm_problem):
        with pytest.raises(ValueError, match="n_workers"):
            DistributedSvm(n_workers=0)
        with pytest.raises(ValueError, match="sigma_prime"):
            DistributedSvm(sigma_prime=0.0)
        with pytest.raises(ValueError, match="n_epochs"):
            DistributedSvm().solve(svm_problem, -1)
