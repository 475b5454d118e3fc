"""Tests for the SVM/SDCA extension."""

import numpy as np
import pytest

from repro.data import Dataset, make_webspam_like
from repro.objectives import SvmProblem, hinge_step
from repro.solvers import SvmSdca
from repro.sparse import from_dense_csr


@pytest.fixture
def svm_data():
    return make_webspam_like(150, 300, nnz_per_example=10, seed=6)


@pytest.fixture
def svm_problem(svm_data):
    return SvmProblem(svm_data, lam=1e-2)


class TestSvmProblem:
    def test_labels_validated(self, small_dense):
        with pytest.raises(ValueError, match="-1"):
            SvmProblem(small_dense, lam=0.1)  # continuous labels

    def test_lambda_validated(self, svm_data):
        with pytest.raises(ValueError, match="lambda"):
            SvmProblem(svm_data, lam=0.0)

    def test_weak_duality(self, svm_problem):
        rng = np.random.default_rng(0)
        alpha = rng.random(svm_problem.n)
        w = rng.standard_normal(svm_problem.m) * 0.1
        assert svm_problem.primal_objective(w) >= svm_problem.dual_objective(alpha)

    def test_gap_nonnegative(self, svm_problem):
        rng = np.random.default_rng(1)
        alpha = rng.random(svm_problem.n)
        assert svm_problem.duality_gap(alpha) >= 0

    def test_alpha_box_enforced(self, svm_problem):
        with pytest.raises(ValueError, match="box"):
            svm_problem.dual_objective(np.full(svm_problem.n, 2.0))

    def test_zero_alpha_gap_is_one(self, svm_problem):
        """At alpha = 0: w = 0, P = 1 (all margins violated), D = 0."""
        assert svm_problem.duality_gap(np.zeros(svm_problem.n)) == pytest.approx(1.0)

    def test_coordinate_delta_respects_box(self, svm_problem):
        # huge positive margin -> wants alpha below 0 -> clipped at 0
        p = svm_problem
        new = hinge_step(p.y[0], 0.0, 100.0 * p.y[0], 1.0, p.lam * p.n)
        assert new == 0.0

    def test_coordinate_delta_increases_dual(self, svm_problem):
        p = svm_problem
        rng = np.random.default_rng(2)
        alpha = rng.random(p.n) * 0.5
        w = p.weights_from_alpha(alpha)
        dense = p.dataset.csr.to_dense()
        i = 7
        moved = alpha.copy()
        moved[i] = hinge_step(
            p.y[i], float(alpha[i]), float(dense[i] @ w), float(dense[i] @ dense[i]),
            p.lam * p.n,
        )
        assert p.dual_objective(moved) >= p.dual_objective(alpha) - 1e-12

    def test_zero_norm_row_maximizer(self, svm_data):
        dense = svm_data.csr.to_dense().copy()
        dense[0, :] = 0.0
        ds = Dataset(matrix=from_dense_csr(dense), y=svm_data.y)
        p = SvmProblem(ds, lam=1e-2)
        assert hinge_step(p.y[0], 0.2, 0.0, 0.0, p.lam * p.n) == 1.0


class TestSvmSdca:
    def test_gap_converges(self, svm_problem):
        res = SvmSdca(seed=0).solve(svm_problem, 30, monitor_every=10)
        w, alpha, hist = res.weights, res.alpha, res.history
        assert hist.final_gap() < 1e-4

    def test_sdca_invariant(self, svm_problem):
        """The maintained w must equal the alpha mapping exactly."""
        res = SvmSdca(seed=0).solve(svm_problem, 5)
        w, alpha = res.weights, res.alpha
        assert np.allclose(w, svm_problem.weights_from_alpha(alpha), atol=1e-10)

    def test_alpha_in_box(self, svm_problem):
        alpha = SvmSdca(seed=0).solve(svm_problem, 10).alpha
        assert np.all(alpha >= -1e-12) and np.all(alpha <= 1 + 1e-12)

    def test_dual_objective_monotone(self, svm_problem):
        hist = SvmSdca(seed=0).solve(svm_problem, 12, monitor_every=2).history
        objs = hist.objectives
        assert np.all(np.diff(objs) >= -1e-12)

    def test_training_accuracy_beats_chance(self, svm_problem, svm_data):
        w = SvmSdca(seed=0).solve(svm_problem, 20).weights
        acc = float(np.mean(svm_problem.predict(w) == svm_data.y))
        assert acc > 0.7

    def test_early_stop(self, svm_problem):
        hist = SvmSdca(seed=0).solve(
            svm_problem, 500, monitor_every=1, target_gap=1e-3
        ).history
        assert hist.records[-1].epoch < 500

    def test_support_vectors_recorded(self, svm_problem):
        res = SvmSdca(seed=0).solve(svm_problem, 5)
        alpha, hist = res.alpha, res.history
        assert hist.records[-1].extras["support_vectors"] == np.count_nonzero(alpha)

    def test_deterministic(self, svm_problem):
        w1 = SvmSdca(seed=9).solve(svm_problem, 5).weights
        w2 = SvmSdca(seed=9).solve(svm_problem, 5).weights
        assert np.array_equal(w1, w2)

    def test_validation(self, svm_problem):
        with pytest.raises(ValueError, match="n_epochs"):
            SvmSdca().solve(svm_problem, -1)
