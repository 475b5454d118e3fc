"""Tests for the logistic-regression SDCA extension."""

import numpy as np
import pytest
from scipy.optimize import brentq, minimize

from repro.data import make_webspam_like
from repro.objectives import LogisticProblem, logistic_step
from repro.solvers import LogisticSdca


@pytest.fixture(scope="module")
def logit_data():
    return make_webspam_like(150, 300, nnz_per_example=10, seed=6)


@pytest.fixture(scope="module")
def logit_problem(logit_data):
    return LogisticProblem(logit_data, lam=1e-2)


class TestLogisticProblem:
    def test_labels_validated(self, small_dense):
        with pytest.raises(ValueError, match="-1"):
            LogisticProblem(small_dense, lam=0.1)

    def test_lambda_validated(self, logit_data):
        with pytest.raises(ValueError, match="lambda"):
            LogisticProblem(logit_data, lam=0.0)

    def test_weak_duality(self, logit_problem):
        rng = np.random.default_rng(0)
        alpha = rng.uniform(0.05, 0.95, logit_problem.n)
        w = rng.standard_normal(logit_problem.m) * 0.1
        assert logit_problem.primal_objective(w) >= logit_problem.dual_objective(alpha)

    def test_gap_nonnegative(self, logit_problem):
        rng = np.random.default_rng(1)
        alpha = rng.uniform(0.05, 0.95, logit_problem.n)
        assert logit_problem.duality_gap(alpha) >= -1e-12

    def test_alpha_box_enforced(self, logit_problem):
        with pytest.raises(ValueError, match="box"):
            logit_problem.dual_objective(np.full(logit_problem.n, 1.5))

    def test_primal_matches_direct_minimization(self, logit_data):
        """The SDCA optimum must agree with direct numerical minimization
        of the primal (scipy BFGS as an oracle, tiny feature space)."""
        # shrink to a small dense problem for the oracle
        from repro.data import Dataset
        from repro.sparse import from_dense_csr

        rng = np.random.default_rng(3)
        dense = rng.standard_normal((60, 8))
        y = np.where(rng.random(60) < 0.5, -1.0, 1.0)
        ds = Dataset(matrix=from_dense_csr(dense), y=y)
        problem = LogisticProblem(ds, lam=0.1)

        def primal(w):
            return problem.primal_objective(w)

        oracle = minimize(primal, np.zeros(8), method="BFGS", tol=1e-12)
        res = LogisticSdca(seed=0).solve(problem, 200, monitor_every=50)
        w_sdca, h = res.weights, res.history
        assert problem.primal_objective(w_sdca) == pytest.approx(
            oracle.fun, rel=1e-6
        )
        assert np.allclose(w_sdca, oracle.x, atol=1e-4)

    def test_coordinate_solve_matches_brentq(self, logit_problem):
        """The safeguarded bisection must agree with scipy's brentq."""
        rng = np.random.default_rng(2)
        norms = logit_problem.dataset.csr.row_norms_sq()
        for i in (0, 7, 33):
            alpha_i = float(rng.uniform(0.1, 0.9))
            margin = float(rng.standard_normal())
            q = norms[i] / (logit_problem.lam * logit_problem.n)
            m = logit_problem.y[i] * margin

            def g(a):
                return np.log((1 - a) / a) - m - q * (a - alpha_i)

            expected = brentq(g, 1e-12, 1 - 1e-12, xtol=1e-12)
            got = logistic_step(
                logit_problem.y[i], alpha_i, margin, float(norms[i]),
                logit_problem.lam * logit_problem.n,
            )
            assert got == pytest.approx(expected, abs=1e-8)

    def test_zero_norm_row_closed_form(self, logit_data):
        from repro.data import Dataset
        from repro.sparse import from_dense_csr

        dense = logit_data.csr.to_dense().copy()
        dense[0, :] = 0.0
        ds = Dataset(matrix=from_dense_csr(dense), y=logit_data.y)
        p = LogisticProblem(ds, lam=1e-2)
        # m = 0 -> sigmoid(0) = 0.5 regardless of the current alpha
        assert logistic_step(p.y[0], 0.9, 0.0, 0.0, p.lam * p.n) == pytest.approx(0.5)

    def test_predict_proba_in_unit_interval(self, logit_problem):
        rng = np.random.default_rng(4)
        w = rng.standard_normal(logit_problem.m)
        proba = logit_problem.predict_proba(w)
        assert np.all(proba >= 0) and np.all(proba <= 1)


class TestLogisticSdca:
    def test_gap_converges(self, logit_problem):
        h = LogisticSdca(seed=0).solve(logit_problem, 25, monitor_every=5).history
        assert h.final_gap() < 1e-8

    def test_dual_monotone(self, logit_problem):
        h = LogisticSdca(seed=0).solve(logit_problem, 10, monitor_every=1).history
        assert np.all(np.diff(h.objectives) >= -1e-10)

    def test_sdca_invariant(self, logit_problem):
        res = LogisticSdca(seed=0).solve(logit_problem, 5)
        w, alpha = res.weights, res.alpha
        assert np.allclose(w, logit_problem.weights_from_alpha(alpha), atol=1e-10)

    def test_alpha_interior(self, logit_problem):
        alpha = LogisticSdca(seed=0).solve(logit_problem, 10).alpha
        assert np.all(alpha > 0) and np.all(alpha < 1)

    def test_accuracy_beats_chance(self, logit_problem, logit_data):
        w = LogisticSdca(seed=0).solve(logit_problem, 15).weights
        acc = float(np.mean(logit_problem.predict(w) == logit_data.y))
        assert acc > 0.75

    def test_early_stop(self, logit_problem):
        h = LogisticSdca(seed=0).solve(
            logit_problem, 500, monitor_every=1, target_gap=1e-4
        ).history
        assert h.records[-1].epoch < 500

    def test_deterministic(self, logit_problem):
        w1 = LogisticSdca(seed=5).solve(logit_problem, 4).weights
        w2 = LogisticSdca(seed=5).solve(logit_problem, 4).weights
        assert np.array_equal(w1, w2)

    def test_validation(self, logit_problem):
        with pytest.raises(ValueError, match="n_epochs"):
            LogisticSdca().solve(logit_problem, -1)
