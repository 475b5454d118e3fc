"""Property-based tests for the GLM coordinate rules and ring collectives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import SimCommunicator
from repro.gpu.engine import (
    ElasticNetPrimalRule,
    RidgeDualRule,
    RidgePrimalRule,
    SvmDualRule,
)
from repro.objectives import soft_threshold

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
positive = st.floats(min_value=1e-3, max_value=50, allow_nan=False)


@given(finite, st.floats(min_value=0, max_value=50, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_soft_threshold_properties(z, t):
    s = soft_threshold(z, t)
    # shrinkage: |S(z,t)| <= |z| and moves towards zero by at most t
    assert abs(s) <= abs(z) + 1e-12
    assert abs(z - s) <= t + 1e-12
    # sign preserved or zero
    assert s == 0.0 or np.sign(s) == np.sign(z)


@given(
    st.integers(1, 20),
    st.integers(0, 2**31 - 1),
    st.sampled_from([0.0, 0.3, 0.7, 1.0]),
)
@settings(max_examples=60, deadline=None)
def test_elasticnet_rule_moves_to_1d_minimizer(n_coords, seed, l1_ratio):
    """The vectorized GPU rule must land each coordinate at the exact 1-D
    minimizer of the surrogate quadratic + penalty."""
    rng = np.random.default_rng(seed)
    norms = rng.uniform(0.1, 5.0, n_coords)
    n, lam = 50, 0.1
    rule = ElasticNetPrimalRule(norms, n, lam, l1_ratio, dtype=np.float64)
    coords = np.arange(n_coords)
    dots = rng.standard_normal(n_coords) * 3
    weights = rng.standard_normal(n_coords)
    new = weights + rule.deltas(coords, dots, weights)
    # per-coordinate objective: q(b) = (norms/2N)(b - rho*N/norms)^2-ish;
    # check stationarity via the subgradient condition instead
    rho = (dots + norms * weights) / n
    t = lam * l1_ratio
    denom = norms / n + lam * (1 - l1_ratio)
    for j in range(n_coords):
        if new[j] != 0.0:
            # smooth gradient + l1 subgradient = 0
            g = denom[j] * new[j] - rho[j] + t * np.sign(new[j])
            assert abs(g) < 1e-9
        else:
            assert abs(rho[j]) <= t + 1e-9


@given(st.integers(1, 20), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_svm_rule_respects_box(n_coords, seed):
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n_coords) < 0.5, -1.0, 1.0)
    norms = rng.uniform(0.0, 5.0, n_coords)
    rule = SvmDualRule(y, norms, n=40, lam=0.05, dtype=np.float64)
    coords = np.arange(n_coords)
    dots = rng.standard_normal(n_coords) * 2
    weights = rng.uniform(0, 1, n_coords)
    new = weights + rule.deltas(coords, dots, weights)
    assert np.all(new >= -1e-12) and np.all(new <= 1 + 1e-12)


@given(st.integers(1, 15), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_ridge_rules_match_closed_form(n_coords, seed):
    from repro.objectives import dual_coordinate_delta, primal_coordinate_delta

    rng = np.random.default_rng(seed)
    norms = rng.uniform(0.1, 5.0, n_coords)
    y = rng.standard_normal(n_coords)
    n, lam = 30, 0.2
    coords = np.arange(n_coords)
    dots = rng.standard_normal(n_coords)
    weights = rng.standard_normal(n_coords)

    primal = RidgePrimalRule(norms, n, lam, dtype=np.float64)
    got = primal.deltas(coords, dots, weights)
    want = [
        primal_coordinate_delta(dots[j], norms[j], weights[j], n, lam)
        for j in range(n_coords)
    ]
    assert np.allclose(got, want, atol=1e-12)

    dual = RidgeDualRule(y, norms, n, lam, dtype=np.float64)
    got = dual.deltas(coords, dots, weights)
    want = [
        dual_coordinate_delta(dots[j], norms[j], weights[j], y[j], n, lam)
        for j in range(n_coords)
    ]
    assert np.allclose(got, want, atol=1e-12)


class TestRingCollectives:
    def test_ring_beats_tree_for_large_payload_large_k(self):
        nbytes = 10**9
        tree = SimCommunicator(8, algorithm="tree").allreduce_seconds(nbytes)
        ring = SimCommunicator(8, algorithm="ring").allreduce_seconds(nbytes)
        assert ring < tree

    def test_tree_beats_ring_for_small_payload(self):
        nbytes = 64  # latency dominated: ring pays K-1 hops, tree log2 K
        tree = SimCommunicator(8, algorithm="tree").allreduce_seconds(nbytes)
        ring = SimCommunicator(8, algorithm="ring").allreduce_seconds(nbytes)
        assert tree < ring

    def test_single_worker_free_both(self):
        for algo in ("tree", "ring"):
            assert SimCommunicator(1, algorithm=algo).allreduce_seconds(10**9) == 0.0

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="algorithm"):
            SimCommunicator(2, algorithm="mesh")

    @given(st.integers(2, 16), st.integers(10, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_costs_positive_and_monotone_in_bytes(self, k, nbytes):
        for algo in ("tree", "ring"):
            comm = SimCommunicator(k, algorithm=algo)
            small = comm.allreduce_seconds(nbytes)
            big = comm.allreduce_seconds(nbytes * 10)
            assert 0 < small < big
