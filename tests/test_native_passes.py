"""The ridge gap's row passes and the prefetching wave loop, bit for bit.

``repro/native/sparse.c`` sums ``A beta`` row by row over CSR
(``sparse_row_sums``) and forms the primal gap's ``w = A beta``,
``alpha = (y - w) / N`` and ``A^T alpha`` in one read of each row
(``sparse_gap_pass``).  They must give the bits of the two products they
replace, ``CscMatrix.matvec``, then numpy's ``(y - w) / N``, then
``CsrMatrix.rmatvec``, on the numpy reference; below ``NATIVE_MIN_NNZ``,
without a compiler and on a row whose column indices decrease, those
products run.  Results are compared as ``uint64``, so NaN payloads and
``-0.0`` count, and every test asserts which path ran.  ``repro/native/tpa.c``
prefetches the blocks ahead of the current one and gives a block of at most
``n_threads`` elements one product per lane; neither may move a bit of
:func:`repro.gpu.engine.reference_epoch`.
"""

from __future__ import annotations

import shutil
import sys

import numpy as np
import pytest

import repro
from repro import native
from repro.data import Dataset, synthetic
from repro.gpu import RidgeDualRule, RidgePrimalRule, TpaScdEngine
from repro.gpu.engine import reference_epoch
from repro.objectives import ridge
from repro.objectives.ridge import RidgeProblem, gap_and_objective
from repro.sparse import CscMatrix, CsrMatrix, matrix

HOST_CC = shutil.which(native.CC)
needs_cc = pytest.mark.skipif(HOST_CC is None, reason="no C compiler on PATH")

CROSSOVER = matrix.NATIVE_MIN_NNZ

_NAN_PAYLOADS = np.array(
    [0x7FF8000000000123, 0xFFF8000000000456], dtype=np.uint64
).view(np.float64)
#: every value the passes must treat exactly as numpy does
ADVERSARIAL = np.concatenate((
    [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, 1.0, -2.5],
    _NAN_PAYLOADS,
))


def sorted_csr(rng, n_rows, n_cols, nnz, *, empty_frac=0.2, duplicates=False):
    """A CSR matrix whose rows list their columns in non-decreasing order,
    with empty leading, trailing and interior rows and unused columns."""
    weights = rng.random(n_rows) * (rng.random(n_rows) >= empty_frac)
    if n_rows > 2 and empty_frac:
        weights[[0, -1]] = 0.0
    if n_rows and weights.sum() == 0.0:
        weights[n_rows // 2] = 1.0
    counts = rng.multinomial(nnz, weights / weights.sum())
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    # the top tenth of the columns is never used
    used = max(1, int(n_cols * 0.9))
    indices = rng.integers(0, used, nnz)
    if not duplicates:
        indices = rng.permutation(used)[indices % used]
    for lo, hi in zip(indptr[:-1], indptr[1:]):
        indices[lo:hi].sort()
    return CsrMatrix((n_rows, n_cols), indptr, indices, rng.standard_normal(nnz))


def problem_for(csr, rng, *, data=None, beta=None, y=None):
    """A ridge problem on ``csr`` (CSR only) and a primal iterate.  Values the
    dataset rejects (non-finite data or labels) are written after
    construction, before the CSC copy exists."""
    dataset = Dataset(csr, rng.standard_normal(csr.shape[0]))
    problem = RidgeProblem(dataset, 1e-3)
    if data is not None:
        csr.data[:] = rng.choice(data, csr.nnz)
    if y is not None:
        dataset.y[:] = rng.choice(y, csr.shape[0])
    x = rng.standard_normal(csr.shape[1]) * 4
    if beta is not None:
        x = rng.choice(beta, csr.shape[1])
    return problem, x


def reference(problem, beta):
    """``(w, alpha, wbar)`` from the two numpy products the passes replace."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix, "NATIVE_MIN_NNZ", sys.maxsize)
        csc = problem.dataset.csc.copy()
        w = csc.matvec(beta)
        alpha = (problem.y - w) / problem.n
        return w, alpha, problem.dataset.csr.rmatvec(alpha)


def assert_bits_equal(got, want, label=""):
    __tracebackhide__ = True
    assert got.dtype == want.dtype and got.shape == want.shape, label
    g, w = got.view(np.uint64), want.view(np.uint64)
    if not np.array_equal(g, w):
        i = int(np.flatnonzero(g != w)[0])
        raise AssertionError(f"{label} diverges at [{i}]: {got[i]!r} vs {want[i]!r}")


class _Backend:
    """Runs a class's tests on one backend: ``backend`` names which.

    ``"numpy"`` hides the C compiler, so every pass falls back to numpy;
    ``"native"`` requires the compiled kernels.  ``self.paths`` records, per
    call of ``ridge._native_row_pass``, whether the kernel ran.
    """

    backend = "numpy"

    @pytest.fixture(autouse=True)
    def _select_backend(self, request, monkeypatch):
        if self.backend == "numpy":
            request.getfixturevalue("no_compiler")
        else:
            native.load_native()
        self.paths = []
        real = ridge._native_row_pass

        def spy(*args):
            out = real(*args)
            self.paths.append("numpy" if out is None else "native")
            return out

        monkeypatch.setattr(ridge, "_native_row_pass", spy)

    def check(self, problem, beta, *, compiled: bool):
        """Both passes against :func:`reference`, bitwise, and their paths.

        ``compiled`` says whether the kernels take this input, which they
        then must on the native backend and cannot on the numpy one.
        """
        want = reference(problem, beta)
        expect = "native" if compiled and self.backend == "native" else "numpy"
        self.paths.clear()
        got = problem.primal_gap_vectors(beta)
        assert self.paths == [expect]
        for g, w, name in zip(got, want, ("w", "alpha", "wbar")):
            assert_bits_equal(g, w, name)
        self.paths.clear()
        assert_bits_equal(problem.shared_vector(beta), want[0], "row sums")
        assert self.paths == [expect]
        return got


class TestNumpyRowPasses(_Backend):
    @pytest.mark.parametrize("seed", range(6))
    def test_random_structures(self, seed):
        rng = np.random.default_rng(seed)
        n_rows, n_cols = rng.integers(1, 400, 2)
        csr = sorted_csr(
            rng, n_rows, n_cols, int(rng.integers(CROSSOVER, 4 * CROSSOVER)),
            empty_frac=rng.random() * 0.6, duplicates=bool(seed % 2),
        )
        self.check(*problem_for(csr, rng), compiled=True)

    @pytest.mark.parametrize("where", ["data", "beta", "labels", "all"])
    def test_adversarial_values(self, where):
        """±0.0, ±inf, NaNs of several payloads and 1e±300 in the data, the
        iterate or the labels: overflowing products, inf - inf in a row sum,
        and two NaNs of different payload meeting in an add."""
        rng = np.random.default_rng(["data", "beta", "labels", "all"].index(where))
        pick = {k: ADVERSARIAL if where in (k, "all") else None
                for k in ("data", "beta", "labels")}
        with np.errstate(all="ignore"):
            for _ in range(4):
                csr = sorted_csr(rng, 60, 40, CROSSOVER + 100, empty_frac=0.3,
                                 duplicates=True)
                problem, beta = problem_for(
                    csr, rng, data=pick["data"], beta=pick["beta"], y=pick["labels"]
                )
                self.check(problem, beta, compiled=True)

    def test_signed_zero_rows_start_from_plus_zero(self):
        """A row of -0.0 products sums to +0.0, as the CSC scatter adds them
        onto a +0.0; so does its wbar column."""
        rng = np.random.default_rng(5)
        csr = sorted_csr(rng, 50, 50, CROSSOVER, empty_frac=0.0)
        problem, beta = problem_for(csr, rng)
        csr.data[:] = -0.0
        w, alpha, wbar = self.check(problem, np.abs(beta) + 1.0, compiled=True)
        assert not np.signbit(w).any()

    def test_sizes_around_the_crossover(self):
        rng = np.random.default_rng(6)
        for nnz, compiled in ((CROSSOVER - 1, False), (CROSSOVER, True)):
            csr = sorted_csr(rng, 70, 90, nnz)
            assert csr.nnz == nnz
            self.check(*problem_for(csr, rng), compiled=compiled)

    def test_tiny_and_empty_matrices_with_the_crossover_lowered(self, monkeypatch):
        monkeypatch.setattr(matrix, "NATIVE_MIN_NNZ", 0)
        rng = np.random.default_rng(7)
        for n_rows, n_cols, nnz in ((1, 1, 1), (1, 5, 4), (6, 1, 4), (8, 8, 20),
                                    (5, 7, 0)):
            csr = sorted_csr(rng, n_rows, n_cols, nnz, empty_frac=0.0)
            self.check(*problem_for(csr, rng), compiled=True)

    def test_float32_data_stays_on_numpy(self):
        rng = np.random.default_rng(8)
        csr = sorted_csr(rng, 90, 70, 2 * CROSSOVER).astype(np.float32)
        self.check(*problem_for(csr, rng), compiled=False)

    def test_a_decreasing_row_runs_the_two_products(self):
        """A row whose column indices decrease would sum in another order
        than the CSC scatter, so both passes hand it to the products."""
        rng = np.random.default_rng(9)
        csr = sorted_csr(rng, 60, 50, 2 * CROSSOVER, empty_frac=0.0)
        lo = csr.indptr[30]
        csr.indices[lo:lo + 3] = csr.indices[lo:lo + 3][::-1].copy()
        assert csr.indices[lo] > csr.indices[lo + 2]
        self.check(*problem_for(csr, rng), compiled=False)

    def test_wrong_length_iterate_is_rejected(self):
        rng = np.random.default_rng(10)
        problem, beta = problem_for(sorted_csr(rng, 60, 50, CROSSOVER), rng)
        for bad in (beta[:-1], np.append(beta, 1.0)):
            with pytest.raises(ValueError, match="operand has length"):
                problem.primal_gap_vectors(bad)
            with pytest.raises(ValueError, match="operand has length"):
                problem.shared_vector(bad)


@needs_cc
class TestNativeRowPasses(TestNumpyRowPasses):
    """Every test above on the compiled kernels."""

    backend = "native"


def _corrupt(csr, defect):
    if defect == "indptr-start":
        csr.indptr[0] = 1
    elif defect == "decreasing-indptr":
        k = csr.shape[0] // 2
        csr.indptr[k] = csr.indptr[k + 1] + 1
    elif defect == "indptr-past-nnz":
        csr.indptr[-1] = csr.nnz + 3
    elif defect == "indptr-short-of-nnz":
        csr.indptr[-1] -= 1
    elif defect == "index-past-minor":
        csr.indices[csr.nnz // 2] = csr.shape[1]
    elif defect == "negative-index":
        csr.indices[csr.nnz // 2] = -1


#: every status of sparse.c's _NATIVE_DEFECTS, as its message
DEFECTS = {
    "indptr-start": "indptr must start at 0",
    "decreasing-indptr": "indptr must be non-decreasing",
    "indptr-past-nnz": "indptr points past the last stored entry",
    "indptr-short-of-nnz": r"indptr\[-1\] is less than nnz",
    "index-past-minor": "an index lies outside the minor axis",
    "negative-index": "an index lies outside the minor axis",
}


@needs_cc
class TestNativeFailurePaths:
    """A matrix corrupted after construction, which is never re-validated:
    both kernels name the defect before they read past it."""

    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    @pytest.mark.parametrize("pass_", ["shared_vector", "primal_gap_vectors"])
    def test_every_defect_is_named(self, defect, pass_):
        assert {1, 2, 3, 4, 5} == set(matrix._NATIVE_DEFECTS)
        assert ridge._ROW_ORDER not in matrix._NATIVE_DEFECTS
        rng = np.random.default_rng(11)
        csr = sorted_csr(rng, 60, 50, 2 * CROSSOVER, empty_frac=0.0)
        problem, beta = problem_for(csr, rng)
        _corrupt(csr, defect)
        with pytest.raises(ValueError, match=DEFECTS[defect]):
            getattr(problem, pass_)(beta)


@needs_cc
class TestOneReadPerPrimalGap:
    def test_primal_gap_reads_the_data_once(self, monkeypatch):
        """Above the crossover a primal gap is one sparse.c row pass and no
        class product, and its objective is the two-product one's bits."""
        rng = np.random.default_rng(12)
        problem, beta = problem_for(sorted_csr(rng, 300, 500, 3 * CROSSOVER), rng)
        w, alpha, wbar = reference(problem, beta)
        want_primal = problem.primal_objective(beta, w)
        want = (abs(want_primal - problem.dual_objective(alpha, wbar)), want_primal)
        calls = []
        for cls in (CscMatrix, CsrMatrix):
            for name in ("matvec", "rmatvec"):
                monkeypatch.setattr(
                    cls, name, lambda *a, _n=name: calls.append(_n) or None
                )
        real = ridge._native_row_pass
        monkeypatch.setattr(
            ridge, "_native_row_pass",
            lambda *a: calls.append("row pass") or real(*a),
        )
        got = gap_and_objective(problem, beta, "primal")
        assert calls == ["row pass"]
        assert [v.hex() for v in got] == [v.hex() for v in want]


@needs_cc
class TestDualRunsNeverBuildCsc:
    @pytest.mark.parametrize("kind, kw", [
        ("tpa-scd", {}),
        ("distributed", {"local_solver": "tpa", "n_workers": 2}),
    ])
    def test_csr_only_dataset_stays_csr_only(self, kind, kw):
        """The dual gap's ``A beta`` sums CSR rows, so a dual run on a CSR
        dataset never builds the CSC copy; the gap is the one a CSC scatter
        gives."""
        dataset = synthetic.make_criteo_like(
            600, n_groups=26, group_cardinality=60, seed=7
        )
        assert isinstance(dataset.matrix, CsrMatrix) and dataset.nnz >= CROSSOVER
        problem = RidgeProblem(dataset, 1e-2)
        res = repro.train(problem, kind, formulation="dual", n_epochs=3, seed=1, **kw)
        assert dataset._csc is None
        for rec in res.history.records[1:]:
            assert np.isfinite(rec.gap)
        alpha = np.asarray(res.weights, np.float64)
        wbar = dataset.csr.rmatvec(alpha)
        beta = wbar / problem.lam
        want = abs(problem.primal_objective(beta, reference(problem, beta)[0])
                   - problem.dual_objective(alpha, wbar))
        assert res.history.records[-1].gap.hex() == want.hex()


# -- the wave loop ----------------------------------------------------------------


def _structure(rng, n_coords, n_minor, lengths):
    """(indptr, indices, data) with coordinate k holding ``lengths[k]`` entries,
    a quarter of them +0.0 or -0.0 (a lane holding one product must still
    start at +0.0f)."""
    indptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    indices = np.concatenate(
        [rng.choice(n_minor, size=n, replace=False) for n in lengths]
    ).astype(np.int64)
    data = rng.standard_normal(indptr[-1]).astype(np.float32)
    zero_at = rng.random(data.shape[0]) < 0.25
    data[zero_at] = np.where(rng.random(int(zero_at.sum())) < 0.5, 0.0, -0.0)
    return indptr, indices, data


#: tpa.c's PREFETCH_SPAN: the loop prefetches a block's first 64 elements
PREFETCH_SPAN = 64

#: (wave_size, n_threads, n_perm): waves shorter than, equal to and longer
#: than the prefetch distance (4 blocks), wave boundaries inside perm, and
#: perms shorter than the prefetch distance
PREFETCH_CASES = [
    pytest.param(1, 8, 40, id="wave1"),
    pytest.param(3, 8, 40, id="wave3-boundaries-inside-perm"),
    pytest.param(4, 16, 41, id="wave4"),
    pytest.param(5, 16, 43, id="wave5"),
    pytest.param(64, 8, 60, id="one-wave-longer-than-prefetch"),
    pytest.param(16, 8, 3, id="perm-shorter-than-prefetch"),
]


@needs_cc
class TestPrefetchingWaveLoop:
    """The compiled loop against the numpy reference on blocks shorter than,
    exactly and longer than ``n_threads`` (one product per lane, or strided
    lanes) and longer than the prefetch span, for both ridge rules."""

    @pytest.mark.parametrize("wave_size, n_threads, n_perm", PREFETCH_CASES)
    @pytest.mark.parametrize("formulation", ["primal", "dual"])
    def test_bitwise_reference(self, wave_size, n_threads, n_perm, formulation):
        rng = np.random.default_rng(wave_size * 100 + n_threads)
        n_coords, n_minor = 60, 256
        lengths = rng.choice(
            [0, 1, n_threads - 1, n_threads, n_threads + 1, 3 * n_threads + 5,
             PREFETCH_SPAN + 1, 2 * PREFETCH_SPAN + 3],
            n_coords,
        )
        indptr, indices, data = _structure(rng, n_coords, n_minor, lengths)
        engine = TpaScdEngine(
            indptr, indices, data, wave_size=wave_size, n_threads=n_threads
        )
        assert engine.backend == "native"
        inv = (1.0 / (1.0 + rng.random(n_coords))).astype(np.float32)
        lam, nlam = np.float32(0.01), np.float32(0.37)
        if formulation == "primal":
            y = rng.standard_normal(n_minor).astype(np.float32)
            rule = RidgePrimalRule.from_arrays(inv, nlam)
        else:
            y = np.sign(rng.standard_normal(n_coords)).astype(np.float32)
            rule = RidgeDualRule.from_arrays(y, inv, lam, nlam)
        b1, w1 = np.zeros(n_coords, np.float32), np.zeros(n_minor, np.float32)
        b2, w2 = b1.copy(), w1.copy()
        for ep in range(3):
            perm = np.random.default_rng(ep).permutation(n_coords)[:n_perm]
            reference_epoch(
                indptr, indices, data, rule, b1, w1, perm, wave_size=wave_size,
                n_threads=n_threads, y=y if formulation == "primal" else None,
                dtype=np.float32,
            )
            if formulation == "primal":
                engine.run_primal_epoch(y, inv, nlam, b2, w2, perm)
            else:
                engine.run_dual_epoch(y, inv, lam, nlam, b2, w2, perm)
            for got, want, name in ((b2, b1, "weights"), (w2, w1, "shared")):
                assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), (
                    f"{name} after epoch {ep}"
                )
