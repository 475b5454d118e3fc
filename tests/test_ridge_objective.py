"""Tests for the ridge objectives, duality gap and exact solver (Section II)."""

import numpy as np
import pytest

from repro.data import make_dense_gaussian
from repro.objectives import (
    RidgeProblem,
    dual_coordinate_delta,
    primal_coordinate_delta,
    solve_exact,
)


class TestExactSolution:
    def test_strong_duality(self, ridge_small):
        sol = solve_exact(ridge_small)
        assert sol.primal_value == pytest.approx(sol.dual_value, rel=1e-10)

    def test_primal_and_dual_methods_agree(self, ridge_small):
        a = solve_exact(ridge_small, method="primal")
        b = solve_exact(ridge_small, method="dual")
        assert np.allclose(a.beta, b.beta, atol=1e-8)
        assert np.allclose(a.alpha, b.alpha, atol=1e-8)

    def test_unknown_method(self, ridge_small):
        with pytest.raises(ValueError, match="method"):
            solve_exact(ridge_small, method="magic")

    def test_optimality_mappings_hold(self, ridge_small):
        sol = solve_exact(ridge_small)
        p = ridge_small
        # Eq. 5: beta* = A^T alpha* / lam
        assert np.allclose(sol.beta, p.beta_from_alpha(sol.alpha), atol=1e-8)
        # Eq. 6: alpha* = (y - A beta*)/N
        assert np.allclose(sol.alpha, p.alpha_from_beta(sol.beta), atol=1e-8)

    def test_gap_zero_at_optimum(self, ridge_small):
        sol = solve_exact(ridge_small)
        assert ridge_small.primal_gap(sol.beta) < 1e-10
        assert ridge_small.dual_gap(sol.alpha) < 1e-10

    def test_gradient_vanishes_at_optimum(self, ridge_small):
        sol = solve_exact(ridge_small)
        dense = ridge_small.dataset.csr.to_dense()
        grad = (
            dense.T @ (dense @ sol.beta - ridge_small.y) / ridge_small.n
            + ridge_small.lam * sol.beta
        )
        assert np.abs(grad).max() < 1e-10


class TestObjectives:
    def test_primal_objective_formula(self, ridge_small):
        rng = np.random.default_rng(0)
        beta = rng.standard_normal(ridge_small.m)
        dense = ridge_small.dataset.csr.to_dense()
        expected = (
            np.linalg.norm(dense @ beta - ridge_small.y) ** 2 / (2 * ridge_small.n)
            + ridge_small.lam / 2 * np.linalg.norm(beta) ** 2
        )
        assert ridge_small.primal_objective(beta) == pytest.approx(expected)

    def test_dual_objective_formula(self, ridge_small):
        rng = np.random.default_rng(1)
        alpha = rng.standard_normal(ridge_small.n)
        dense = ridge_small.dataset.csr.to_dense()
        n, lam = ridge_small.n, ridge_small.lam
        expected = (
            -n / 2 * np.linalg.norm(alpha) ** 2
            - np.linalg.norm(dense.T @ alpha) ** 2 / (2 * lam)
            + alpha @ ridge_small.y
        )
        assert ridge_small.dual_objective(alpha) == pytest.approx(expected)

    def test_weak_duality(self, ridge_small):
        rng = np.random.default_rng(2)
        beta = rng.standard_normal(ridge_small.m)
        alpha = rng.standard_normal(ridge_small.n) * 0.01
        assert ridge_small.primal_objective(beta) >= ridge_small.dual_objective(alpha)

    def test_shared_vector_shortcut(self, ridge_small):
        rng = np.random.default_rng(3)
        beta = rng.standard_normal(ridge_small.m)
        w = ridge_small.shared_vector(beta)
        assert ridge_small.primal_objective(beta, w) == pytest.approx(
            ridge_small.primal_objective(beta)
        )

    def test_gap_positive_away_from_optimum(self, ridge_small):
        rng = np.random.default_rng(4)
        beta = rng.standard_normal(ridge_small.m)
        assert ridge_small.primal_gap(beta) > 0

    def test_lambda_validated(self, small_dense):
        with pytest.raises(ValueError, match="positive"):
            RidgeProblem(small_dense, lam=0.0)

    def test_optimality_residuals_small_at_optimum(self, ridge_small):
        sol = solve_exact(ridge_small)
        r5, r6 = ridge_small.optimality_residuals(sol.beta, sol.alpha)
        assert r5 < 1e-8 and r6 < 1e-8

    def test_optimality_residuals_large_for_garbage(self, ridge_small):
        rng = np.random.default_rng(5)
        r5, r6 = ridge_small.optimality_residuals(
            rng.standard_normal(ridge_small.m), rng.standard_normal(ridge_small.n)
        )
        assert r5 > 0.1 or r6 > 0.1


class TestCoordinateDeltas:
    def test_primal_delta_minimizes_1d(self, ridge_small):
        """The closed-form step must be the exact 1-D minimizer (Eq. 2)."""
        p = ridge_small
        dense = p.dataset.csr.to_dense()
        rng = np.random.default_rng(6)
        beta = rng.standard_normal(p.m) * 0.1
        w = dense @ beta
        m = 3
        a_m = dense[:, m]
        delta = primal_coordinate_delta(
            float((p.y - w) @ a_m), float(a_m @ a_m), float(beta[m]), p.n, p.lam
        )
        base = beta.copy()
        base[m] += delta
        f0 = p.primal_objective(base)
        for eps in (-1e-4, 1e-4):
            pert = beta.copy()
            pert[m] += delta + eps
            assert p.primal_objective(pert) >= f0 - 1e-12

    def test_dual_delta_maximizes_1d(self, ridge_small):
        """The closed-form dual step must be the exact 1-D maximizer (Eq. 4)."""
        p = ridge_small
        dense = p.dataset.csr.to_dense()
        rng = np.random.default_rng(7)
        alpha = rng.standard_normal(p.n) * 0.01
        wbar = dense.T @ alpha
        i = 5
        a_i = dense[i]
        delta = dual_coordinate_delta(
            float(wbar @ a_i), float(a_i @ a_i), float(alpha[i]), float(p.y[i]), p.n, p.lam
        )
        base = alpha.copy()
        base[i] += delta
        d0 = p.dual_objective(base)
        for eps in (-1e-4, 1e-4):
            pert = alpha.copy()
            pert[i] += delta + eps
            assert p.dual_objective(pert) <= d0 + 1e-12

    def test_delta_zero_at_optimum(self, ridge_small):
        sol = solve_exact(ridge_small)
        p = ridge_small
        dense = p.dataset.csr.to_dense()
        w = dense @ sol.beta
        for m in range(0, p.m, 4):
            a_m = dense[:, m]
            delta = primal_coordinate_delta(
                float((p.y - w) @ a_m),
                float(a_m @ a_m),
                float(sol.beta[m]),
                p.n,
                p.lam,
            )
            assert abs(delta) < 1e-9


class TestDualGapAndObjective:
    """The dual ``gap_and_objective`` forms ``D(alpha)`` once, with the
    bits of ``dual_gap`` and ``dual_objective`` called apart."""

    def test_bits_of_the_two_call_formula(self, ridge_sparse):
        from repro.objectives.ridge import gap_and_objective

        rng = np.random.default_rng(8)
        for scale in (1e-3, 1.0, 1e3):
            alpha = rng.standard_normal(ridge_sparse.n) * scale
            wbar = ridge_sparse.dual_shared_vector(alpha)
            want = (
                ridge_sparse.dual_gap(alpha, wbar),
                ridge_sparse.dual_objective(alpha, wbar),
            )
            got = gap_and_objective(ridge_sparse, alpha, "dual")
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_one_dual_objective_per_dual_monitor(self, ridge_sparse, monkeypatch):
        from repro.api import train
        from repro.objectives import ridge
        from repro.objectives.ridge import gap_and_objective

        calls = {"dual_objective": 0, "monitor": 0}
        dual_objective, monitor = RidgeProblem.dual_objective, ridge.gap_and_objective

        def count_dual(*args, **kwargs):
            calls["dual_objective"] += 1
            return dual_objective(*args, **kwargs)

        monkeypatch.setattr(RidgeProblem, "dual_objective", count_dual)
        gap_and_objective(ridge_sparse, np.ones(ridge_sparse.n), "dual")
        assert calls["dual_objective"] == 1
        calls["dual_objective"] = 0

        def count_monitor(*args):
            calls["monitor"] += 1
            return monitor(*args)

        from repro.solvers import base

        monkeypatch.setattr(base, "gap_and_objective", count_monitor)
        train(ridge_sparse, "seq", formulation="dual", n_epochs=4, seed=1)
        assert calls["monitor"] >= 4
        assert calls["dual_objective"] == calls["monitor"]
