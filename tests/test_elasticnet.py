"""Tests for the elastic-net extension (objective + coordinate solver)."""

import numpy as np
import pytest

from repro.data import make_dense_gaussian
from repro.objectives import (
    ElasticNetProblem,
    RidgeProblem,
    elastic_net_delta,
    soft_threshold,
    solve_exact,
)
from repro.solvers import ElasticNetCD


class TestSoftThreshold:
    def test_shrinks_towards_zero(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-3.0, 1.0) == -2.0

    def test_kills_small_values(self):
        assert soft_threshold(0.5, 1.0) == 0.0
        assert soft_threshold(-0.5, 1.0) == 0.0

    def test_zero_threshold_is_identity(self):
        assert soft_threshold(1.7, 0.0) == 1.7


class TestElasticNetProblem:
    def test_validation(self, small_dense):
        with pytest.raises(ValueError, match="lambda"):
            ElasticNetProblem(small_dense, 0.0)
        with pytest.raises(ValueError, match="l1_ratio"):
            ElasticNetProblem(small_dense, 0.1, l1_ratio=1.5)

    def test_objective_formula(self, small_dense):
        p = ElasticNetProblem(small_dense, 0.1, l1_ratio=0.3)
        rng = np.random.default_rng(0)
        beta = rng.standard_normal(p.m)
        dense = small_dense.csr.to_dense()
        expected = (
            np.linalg.norm(dense @ beta - p.y) ** 2 / (2 * p.n)
            + 0.1 * (0.3 * np.abs(beta).sum() + 0.35 * beta @ beta)
        )
        assert p.objective(beta) == pytest.approx(expected)

    def test_coordinate_delta_minimizes_1d(self, small_dense):
        p = ElasticNetProblem(small_dense, 0.1, l1_ratio=0.6)
        dense = small_dense.csr.to_dense()
        rng = np.random.default_rng(1)
        beta = rng.standard_normal(p.m) * 0.2
        w = dense @ beta
        m = 4
        a_m = dense[:, m]
        delta = elastic_net_delta(
            float(beta[m]), float((p.y - w) @ a_m), float(a_m @ a_m),
            p.n, p.lam, p.l1_ratio,
        )
        moved = beta.copy()
        moved[m] += delta
        f0 = p.objective(moved)
        for eps in (-1e-4, 1e-4, -1e-2, 1e-2):
            pert = beta.copy()
            pert[m] += delta + eps
            assert p.objective(pert) >= f0 - 1e-12


class TestElasticNetCD:
    def test_objective_monotone(self, small_dense):
        p = ElasticNetProblem(small_dense, 0.05, l1_ratio=0.5)
        hist = ElasticNetCD(seed=0).solve(p, 20, monitor_every=2).history
        objs = hist.objectives
        assert np.all(np.diff(objs) <= 1e-12)

    def test_kkt_converges(self, small_dense):
        p = ElasticNetProblem(small_dense, 0.05, l1_ratio=0.5)
        hist = ElasticNetCD(seed=0).solve(p, 100, monitor_every=20).history
        assert hist.final_gap() < 1e-8

    def test_ridge_limit_matches_exact(self, small_dense):
        """l1_ratio = 0 must reproduce the closed-form ridge optimum."""
        lam = 0.05
        p = ElasticNetProblem(small_dense, lam, l1_ratio=0.0)
        beta = ElasticNetCD(seed=0).solve(p, 150, monitor_every=50).weights
        exact = solve_exact(RidgeProblem(small_dense, lam))
        assert np.allclose(beta, exact.beta, atol=1e-8)

    def test_lasso_sparsifies(self):
        data = make_dense_gaussian(100, 40, noise=0.05, seed=5)
        dense_count = []
        for l1_ratio in (0.0, 0.95):
            p = ElasticNetProblem(data, 0.2, l1_ratio=l1_ratio)
            beta = ElasticNetCD(seed=0).solve(p, 80, monitor_every=80).weights
            dense_count.append(np.count_nonzero(beta))
        assert dense_count[1] < dense_count[0]

    def test_early_stop_on_tol(self, small_dense):
        p = ElasticNetProblem(small_dense, 0.05, l1_ratio=0.5)
        hist = ElasticNetCD(seed=0).solve(
            p, 500, monitor_every=1, target_gap=1e-6
        ).history
        assert hist.records[-1].epoch < 500

    def test_nnz_recorded(self, small_dense):
        p = ElasticNetProblem(small_dense, 0.05, l1_ratio=0.9)
        res = ElasticNetCD(seed=0).solve(p, 10)
        beta, hist = res.weights, res.history
        assert hist.records[-1].extras["nnz_beta"] == np.count_nonzero(beta)

    def test_validation(self, small_dense):
        p = ElasticNetProblem(small_dense, 0.05)
        with pytest.raises(ValueError, match="n_epochs"):
            ElasticNetCD().solve(p, -1)
        with pytest.raises(ValueError, match="monitor_every"):
            ElasticNetCD().solve(p, 1, monitor_every=0)
