"""Tests for the SGD / Hogwild solvers (refs [3] and [12])."""

import numpy as np
import pytest

from repro.objectives import solve_exact
from repro.solvers import SequentialSCD
from repro.solvers.sgd import SgdSolver


class TestSgd:
    def test_converges_towards_optimum(self, ridge_sparse):
        res = SgdSolver(seed=0).solve(ridge_sparse, 40)
        assert res.history.final_gap() < 1e-3

    def test_approaches_exact_solution(self, ridge_small):
        res = SgdSolver(seed=0).solve(ridge_small, 300)
        sol = solve_exact(ridge_small)
        rel = np.linalg.norm(res.weights - sol.beta) / np.linalg.norm(sol.beta)
        assert rel < 0.05  # noise ball, not exact

    def test_scd_dominates_sgd(self, ridge_sparse):
        """The reason the paper builds on SCD: linear rate vs noise ball."""
        sgd = SgdSolver(seed=0).solve(ridge_sparse, 30)
        scd = SequentialSCD("primal", seed=0).solve(ridge_sparse, 30)
        assert scd.history.final_gap() < sgd.history.final_gap() / 1e3

    def test_shared_vector_consistent(self, ridge_sparse):
        res = SgdSolver(seed=0).solve(ridge_sparse, 5)
        expected = ridge_sparse.dataset.csc.matvec(res.weights)
        assert np.allclose(res.shared, expected, atol=1e-10)

    def test_step_size_decays(self, ridge_sparse):
        res = SgdSolver(seed=0).solve(ridge_sparse, 10, monitor_every=1)
        etas = [r.extras["eta"] for r in res.history.records[1:]]
        assert all(b < a for a, b in zip(etas, etas[1:]))

    def test_deterministic(self, ridge_sparse):
        a = SgdSolver(seed=3).solve(ridge_sparse, 5)
        b = SgdSolver(seed=3).solve(ridge_sparse, 5)
        assert np.array_equal(a.weights, b.weights)

    def test_custom_t0(self, ridge_sparse):
        res = SgdSolver(t0=1e4, seed=0).solve(ridge_sparse, 5, monitor_every=5)
        assert res.history.final_gap() < res.history.gaps[0]

    def test_validation(self, ridge_sparse):
        with pytest.raises(ValueError, match="n_threads"):
            SgdSolver(n_threads=0)
        with pytest.raises(ValueError, match="n_epochs"):
            SgdSolver().solve(ridge_sparse, -1)


class TestHogwild:
    def test_tracks_sequential_sgd_per_epoch(self, ridge_sparse):
        """Hogwild's headline: sparse problems lose almost nothing to the
        lock-free execution."""
        seq = SgdSolver(seed=0).solve(ridge_sparse, 20)
        hog = SgdSolver(n_threads=16, seed=0).solve(ridge_sparse, 20)
        assert hog.history.final_gap() < 10 * seq.history.final_gap() + 1e-9

    def test_faster_in_model_time(self, ridge_sparse):
        seq = SgdSolver(seed=0).solve(ridge_sparse, 5)
        hog = SgdSolver(n_threads=16, seed=0).solve(ridge_sparse, 5)
        assert hog.history.sim_times[-1] < seq.history.sim_times[-1]

    def test_name(self):
        assert "Hogwild" in SgdSolver(n_threads=8).name
        assert SgdSolver().name == "SGD"
