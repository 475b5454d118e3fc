"""Tests for the epoch kernels: exactness, staleness and write semantics."""

import numpy as np
import pytest

from repro.objectives import RidgeProblem, solve_exact
from repro.solvers.kernels import (
    apply_chunk_updates,
    dual_epoch_chunked,
    gather_chunk,
    primal_epoch_chunked,
)
from repro.solvers.syscd_kernels import ExactPass, available_backend


def _exact_epoch(matrix, target, inv_denom, nlam, coef, shared, perm):
    """One epoch of Algorithm 1 on the library's exact pass (either backend)."""
    ExactPass(
        matrix.indptr, matrix.indices, matrix.data, target, inv_denom, nlam,
        shared.shape[0], available_backend(),
    ).bind(coef, shared, perm)(0, perm.shape[0])


def _primal_state(problem: RidgeProblem):
    csc = problem.dataset.csc
    y = problem.y.astype(np.float64)
    y_dots = csc.rmatvec(y)
    nlam = problem.n * problem.lam
    inv_denom = 1.0 / (csc.col_norms_sq() + nlam)
    beta = np.zeros(problem.m)
    w = np.zeros(problem.n)
    return csc, y, y_dots, inv_denom, nlam, beta, w


def _dual_state(problem: RidgeProblem):
    csr = problem.dataset.csr
    y = problem.y.astype(np.float64)
    nlam = problem.n * problem.lam
    inv_denom = 1.0 / (nlam + csr.row_norms_sq())
    alpha = np.zeros(problem.n)
    wbar = np.zeros(problem.m)
    return csr, y, inv_denom, nlam, alpha, wbar


class TestSequentialKernels:
    def test_primal_epoch_decreases_objective(self, ridge_small):
        csc, y, y_dots, inv_denom, nlam, beta, w = _primal_state(ridge_small)
        f_prev = ridge_small.primal_objective(beta, w)
        rng = np.random.default_rng(0)
        for _ in range(3):
            _exact_epoch(
                csc, y_dots, inv_denom, nlam, beta, w,
                rng.permutation(ridge_small.m),
            )
            f = ridge_small.primal_objective(beta, w)
            assert f <= f_prev + 1e-12
            f_prev = f

    def test_primal_shared_vector_invariant(self, ridge_small):
        """After an exact epoch, w must equal A beta to rounding."""
        csc, y, y_dots, inv_denom, nlam, beta, w = _primal_state(ridge_small)
        rng = np.random.default_rng(1)
        _exact_epoch(
            csc, y_dots, inv_denom, nlam, beta, w, rng.permutation(ridge_small.m)
        )
        assert np.allclose(w, csc.matvec(beta), atol=1e-10)

    def test_primal_converges_to_exact(self, ridge_small):
        csc, y, y_dots, inv_denom, nlam, beta, w = _primal_state(ridge_small)
        rng = np.random.default_rng(2)
        for _ in range(100):
            _exact_epoch(
                csc, y_dots, inv_denom, nlam, beta, w,
                rng.permutation(ridge_small.m),
            )
        sol = solve_exact(ridge_small)
        assert np.allclose(beta, sol.beta, atol=1e-8)

    def test_dual_epoch_increases_objective(self, ridge_small):
        csr, y, inv_denom, nlam, alpha, wbar = _dual_state(ridge_small)
        d_prev = ridge_small.dual_objective(alpha, wbar)
        rng = np.random.default_rng(3)
        for _ in range(3):
            _exact_epoch(
                csr, ridge_small.lam * y, inv_denom, nlam, alpha, wbar,
                rng.permutation(ridge_small.n),
            )
            d = ridge_small.dual_objective(alpha, wbar)
            assert d >= d_prev - 1e-12
            d_prev = d

    def test_dual_shared_vector_invariant(self, ridge_small):
        csr, y, inv_denom, nlam, alpha, wbar = _dual_state(ridge_small)
        rng = np.random.default_rng(4)
        _exact_epoch(
            csr, ridge_small.lam * y, inv_denom, nlam, alpha, wbar,
            rng.permutation(ridge_small.n),
        )
        assert np.allclose(wbar, csr.rmatvec(alpha), atol=1e-10)

    def test_empty_column_shrinks_weight(self, small_dense):
        # craft a matrix with an all-zero column
        from repro.data import Dataset
        from repro.sparse import from_dense_csc

        dense = small_dense.csr.to_dense().copy()
        dense[:, 0] = 0.0
        ds = Dataset(matrix=from_dense_csc(dense), y=small_dense.y)
        problem = RidgeProblem(ds, lam=1e-2)
        csc, y, y_dots, inv_denom, nlam, beta, w = _primal_state(problem)
        beta[0] = 5.0
        _exact_epoch(csc, y_dots, inv_denom, nlam, beta, w, np.array([0]))
        assert abs(beta[0]) < 5.0  # shrunk towards zero


class TestChunkedKernels:
    def test_chunk_size_one_equals_sequential(self, ridge_sparse):
        p = ridge_sparse
        csc, y, y_dots, inv_denom, nlam, b1, w1 = _primal_state(p)
        b2, w2 = b1.copy(), w1.copy()
        perm = np.random.default_rng(5).permutation(p.m)
        _exact_epoch(csc, y_dots, inv_denom, nlam, b1, w1, perm)
        lost = primal_epoch_chunked(
            csc.indptr, csc.indices, csc.data, y_dots, inv_denom, nlam,
            b2, w2, perm, chunk_size=1,
        )
        assert lost == 0
        assert np.allclose(b1, b2, atol=1e-12)
        assert np.allclose(w1, w2, atol=1e-12)

    def test_dual_chunk_size_one_equals_sequential(self, ridge_sparse):
        p = ridge_sparse
        csr, y, inv_denom, nlam, a1, wb1 = _dual_state(p)
        a2, wb2 = a1.copy(), wb1.copy()
        perm = np.random.default_rng(6).permutation(p.n)
        _exact_epoch(csr, p.lam * y, inv_denom, nlam, a1, wb1, perm)
        lost = dual_epoch_chunked(
            csr.indptr, csr.indices, csr.data, y, inv_denom, p.lam, nlam,
            a2, wb2, perm, chunk_size=1,
        )
        assert lost == 0
        assert np.allclose(a1, a2, atol=1e-12)
        assert np.allclose(wb1, wb2, atol=1e-12)

    def test_atomic_preserves_consistency(self, ridge_sparse):
        """Atomic chunked updates keep w == A beta exactly (all applied)."""
        p = ridge_sparse
        csc, y, y_dots, inv_denom, nlam, beta, w = _primal_state(p)
        rng = np.random.default_rng(7)
        for _ in range(3):
            primal_epoch_chunked(
                csc.indptr, csc.indices, csc.data, y_dots, inv_denom, nlam,
                beta, w, rng.permutation(p.m), chunk_size=16,
            )
        assert np.allclose(w, csc.matvec(beta), atol=1e-9)

    def test_wild_loses_updates_and_breaks_consistency(self, ridge_sparse):
        p = ridge_sparse
        csc, y, y_dots, inv_denom, nlam, beta, w = _primal_state(p)
        rng = np.random.default_rng(8)
        lost = 0
        for _ in range(3):
            lost += primal_epoch_chunked(
                csc.indptr, csc.indices, csc.data, y_dots, inv_denom, nlam,
                beta, w, rng.permutation(p.m), chunk_size=16,
                write_mode="wild", loss_prob=1.0,
            )
        assert lost > 0
        assert not np.allclose(w, csc.matvec(beta), atol=1e-9)

    def test_loss_prob_zero_is_atomic(self, ridge_sparse):
        p = ridge_sparse
        csc, y, y_dots, inv_denom, nlam, b1, w1 = _primal_state(p)
        b2, w2 = b1.copy(), w1.copy()
        perm = np.random.default_rng(9).permutation(p.m)
        primal_epoch_chunked(
            csc.indptr, csc.indices, csc.data, y_dots, inv_denom, nlam,
            b1, w1, perm, chunk_size=16, write_mode="atomic",
        )
        lost = primal_epoch_chunked(
            csc.indptr, csc.indices, csc.data, y_dots, inv_denom, nlam,
            b2, w2, perm, chunk_size=16, write_mode="wild", loss_prob=0.0,
        )
        assert lost == 0
        assert np.allclose(w1, w2, atol=1e-12)

    def test_invalid_chunk_size(self, ridge_sparse):
        p = ridge_sparse
        csc, y, y_dots, inv_denom, nlam, beta, w = _primal_state(p)
        with pytest.raises(ValueError, match="chunk_size"):
            primal_epoch_chunked(
                csc.indptr, csc.indices, csc.data, y_dots, inv_denom, nlam,
                beta, w, np.arange(p.m), chunk_size=0,
            )

    def test_invalid_write_mode(self, ridge_sparse):
        p = ridge_sparse
        csc, y, y_dots, inv_denom, nlam, beta, w = _primal_state(p)
        with pytest.raises(ValueError, match="write_mode"):
            primal_epoch_chunked(
                csc.indptr, csc.indices, csc.data, y_dots, inv_denom, nlam,
                beta, w, np.arange(p.m), chunk_size=4, write_mode="chaotic",
            )


class TestGatherChunk:
    def test_concatenation_correct(self, random_csc):
        coords = np.array([3, 0, 7])
        flat_idx, flat_val, seg_ptr = gather_chunk(
            random_csc.indptr, random_csc.indices, random_csc.data, coords
        )
        for k, j in enumerate(coords):
            idx, vals = random_csc.col(j)
            lo, hi = seg_ptr[k], seg_ptr[k + 1]
            assert np.array_equal(flat_idx[lo:hi], idx)
            assert np.allclose(flat_val[lo:hi], vals)

    def test_empty_coords(self, random_csc):
        flat_idx, flat_val, seg_ptr = gather_chunk(
            random_csc.indptr, random_csc.indices, random_csc.data,
            np.zeros(0, dtype=np.int64),
        )
        assert flat_idx.size == 0 and seg_ptr.tolist() == [0]


class TestApplyChunkUpdates:
    def test_atomic_sums_everything(self):
        vec = np.zeros(4)
        idx = np.array([0, 1, 0, 2])
        contrib = np.array([1.0, 2.0, 3.0, 4.0])
        lost = apply_chunk_updates(
            vec, idx, contrib, write_mode="atomic", loss_prob=1.0, rng=None
        )
        assert lost == 0
        assert np.allclose(vec, [4.0, 2.0, 4.0, 0.0])

    def test_wild_last_writer_wins(self):
        vec = np.zeros(3)
        idx = np.array([0, 0, 0, 1])
        contrib = np.array([1.0, 2.0, 4.0, 7.0])
        lost = apply_chunk_updates(
            vec, idx, contrib, write_mode="wild", loss_prob=1.0, rng=None
        )
        assert lost == 2  # the first two writes to entry 0 are lost
        assert np.allclose(vec, [4.0, 7.0, 0.0])

    def test_wild_partial_loss_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            apply_chunk_updates(
                np.zeros(2),
                np.array([0, 0]),
                np.array([1.0, 1.0]),
                write_mode="wild",
                loss_prob=0.5,
                rng=None,
            )

    def test_empty_chunk_noop(self):
        vec = np.ones(3)
        lost = apply_chunk_updates(
            vec, np.zeros(0, np.int64), np.zeros(0),
            write_mode="wild", loss_prob=1.0, rng=None,
        )
        assert lost == 0
        assert np.allclose(vec, 1.0)
