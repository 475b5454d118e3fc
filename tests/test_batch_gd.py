"""Tests for the batch gradient-descent baseline (Section I motivation)."""

import numpy as np
import pytest

from repro.objectives import solve_exact
from repro.solvers import SequentialSCD
from repro.solvers.batch_gd import BatchGD, power_iteration_lipschitz


class TestPowerIteration:
    def test_matches_dense_eigenvalue(self, ridge_small):
        dense = ridge_small.dataset.csr.to_dense()
        gram = dense.T @ dense / ridge_small.n + ridge_small.lam * np.eye(
            ridge_small.m
        )
        expected = float(np.linalg.eigvalsh(gram)[-1])
        got = power_iteration_lipschitz(ridge_small, iters=200)
        assert got == pytest.approx(expected, rel=1e-6)

    def test_at_least_lambda(self, ridge_sparse):
        assert power_iteration_lipschitz(ridge_sparse) >= ridge_sparse.lam


class TestBatchGD:
    def test_converges_to_exact(self, ridge_small):
        res = BatchGD().solve(ridge_small, 3000, monitor_every=500)
        sol = solve_exact(ridge_small)
        assert np.allclose(res.weights, sol.beta, atol=1e-5)

    def test_objective_monotone(self, ridge_small):
        res = BatchGD().solve(ridge_small, 50, monitor_every=1)
        objs = res.history.objectives
        assert np.all(np.diff(objs) <= 1e-12)

    def test_nesterov_faster_than_plain(self, ridge_sparse):
        plain = BatchGD().solve(ridge_sparse, 60)
        nest = BatchGD(accelerated=True).solve(ridge_sparse, 60)
        assert nest.history.final_gap() < plain.history.final_gap()

    def test_scd_beats_plain_gd_per_epoch(self, ridge_sparse):
        """The paper's introduction claim, per-epoch cost-fair."""
        gd = BatchGD().solve(ridge_sparse, 20)
        scd = SequentialSCD("primal", seed=0).solve(ridge_sparse, 20)
        assert scd.history.final_gap() < gd.history.final_gap() / 10

    def test_custom_step_size(self, ridge_sparse):
        res = BatchGD(step_size=1e-3).solve(ridge_sparse, 5, monitor_every=1)
        assert res.history.records[-1].extras["step_size"] == pytest.approx(1e-3)

    def test_too_large_step_diverges(self, ridge_sparse):
        lip = power_iteration_lipschitz(ridge_sparse)
        with np.errstate(over="ignore", invalid="ignore"):
            res = BatchGD(step_size=10.0 / ridge_sparse.lam).solve(
                ridge_sparse, 30
            )
        assert not res.history.final_gap() < res.history.gaps[0]

    def test_shared_vector_consistent(self, ridge_sparse):
        res = BatchGD().solve(ridge_sparse, 10)
        expected = ridge_sparse.dataset.csc.matvec(res.weights)
        assert np.allclose(res.shared, expected, atol=1e-10)

    def test_target_gap_early_stop(self, ridge_sparse):
        res = BatchGD(accelerated=True).solve(
            ridge_sparse, 5000, monitor_every=5, target_gap=1e-6
        )
        assert res.history.records[-1].epoch < 5000

    def test_validation(self, ridge_sparse):
        with pytest.raises(ValueError, match="n_epochs"):
            BatchGD().solve(ridge_sparse, -1)
        with pytest.raises(ValueError, match="monitor_every"):
            BatchGD().solve(ridge_sparse, 1, monitor_every=0)
