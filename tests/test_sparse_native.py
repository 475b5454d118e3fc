"""The compiled sparse products (``repro/native/sparse.c``) against numpy, bit for bit.

A float64 product over at least ``NATIVE_MIN_NNZ`` nonzeros runs the C
kernels when the library loads; everything else, and every product on a host
without a compiler, runs the numpy code, which is the reference.  Results are
compared as ``uint64`` so NaN payloads and ``-0.0`` count, and every test
asserts which path ran.  Each class runs twice: on the compiled kernels and,
through the ``no_compiler`` fixture, on the numpy fallback, with the same
expected bits.
"""

from __future__ import annotations

import shutil
import sys

import numpy as np
import pytest

from repro import native
from repro.sparse import CscMatrix, CsrMatrix
from repro.sparse import matrix

HOST_CC = shutil.which(native.CC)
needs_cc = pytest.mark.skipif(HOST_CC is None, reason="no C compiler on PATH")

CROSSOVER = matrix.NATIVE_MIN_NNZ

#: (format, product): the scatter products are CSC matvec and CSR rmatvec
PRODUCTS = [
    pytest.param(CscMatrix, "matvec", id="csc-matvec"),
    pytest.param(CscMatrix, "rmatvec", id="csc-rmatvec"),
    pytest.param(CsrMatrix, "matvec", id="csr-matvec"),
    pytest.param(CsrMatrix, "rmatvec", id="csr-rmatvec"),
]

_NAN_PAYLOADS = np.array(
    [0x7FF8000000000123, 0xFFF8000000000456], dtype=np.uint64
).view(np.float64)
#: every value the kernels must treat exactly as numpy does
ADVERSARIAL = np.concatenate((
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e300, -1e300, 1e-300,
     -1e-300, 1.0, -2.5],
    _NAN_PAYLOADS,
))


def build(cls, rng, n_major, n_minor, nnz, *, values=None, empty_frac=0.2):
    """A matrix with empty leading, trailing and interior segments."""
    weights = rng.random(n_major) * (rng.random(n_major) >= empty_frac)
    if n_major > 2 and empty_frac:
        weights[[0, -1]] = 0.0
    if n_major and weights.sum() == 0.0:
        weights[n_major // 2] = 1.0
    counts = (
        rng.multinomial(nnz, weights / weights.sum()) if n_major
        else np.zeros(0, np.int64)
    )
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    indices = rng.integers(0, max(n_minor, 1), int(indptr[-1]))
    data = rng.standard_normal(indices.shape[0]) if values is None else (
        rng.choice(values, indices.shape[0]))
    shape = (n_minor, n_major) if cls is CscMatrix else (n_major, n_minor)
    return cls(shape, indptr, indices, data)


def operand(m, product, rng, dtype=np.float64, values=None):
    n = m.shape[1] if product == "matvec" else m.shape[0]
    x = rng.standard_normal(n) * 8 if values is None else rng.choice(values, n)
    return x.astype(dtype)


def numpy_product(m, product, x):
    """The numpy path, whatever the size and the library."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix, "NATIVE_MIN_NNZ", sys.maxsize)
        return getattr(m, product)(x)


def assert_bits_equal(got, want):
    __tracebackhide__ = True
    assert got.dtype == want.dtype and got.shape == want.shape
    g, w = got.view(np.uint64), want.view(np.uint64)
    if not np.array_equal(g, w):
        i = int(np.flatnonzero(g != w)[0])
        raise AssertionError(f"diverges at [{i}]: {got[i]!r} vs {want[i]!r}")


class _Backend:
    """Runs a class's tests on one backend: ``backend`` names which.

    ``"numpy"`` hides the C compiler, so every product falls back to numpy;
    ``"native"`` requires the compiled kernels.
    """

    backend = "numpy"

    @pytest.fixture(autouse=True)
    def _select_backend(self, request, monkeypatch):
        if self.backend == "numpy":
            request.getfixturevalue("no_compiler")
        else:
            native.load_native()
        self.paths = []
        real = matrix._native_product

        def spy(*args):
            out = real(*args)
            self.paths.append("numpy" if out is None else "native")
            return out

        monkeypatch.setattr(matrix, "_native_product", spy)

    def run(self, m, product, x, *, compiled: bool):
        """``m.product(x)``, checked bitwise against numpy and for its path.

        ``compiled`` says whether the product is one the kernels take, which
        they then must on the native backend and cannot on the numpy one.
        """
        self.paths.clear()
        got = getattr(m, product)(x)
        ran = self.paths[-1] if self.paths else "numpy"
        assert ran == ("native" if compiled and self.backend == "native" else "numpy")
        assert_bits_equal(got, numpy_product(m, product, x))
        return got


class TestNumpyProducts(_Backend):
    @pytest.mark.parametrize("cls, product", PRODUCTS)
    @pytest.mark.parametrize("seed", range(6))
    def test_random_structures(self, cls, product, seed):
        rng = np.random.default_rng(seed)
        n_major, n_minor = rng.integers(1, 400, 2)
        nnz = int(rng.integers(CROSSOVER, 4 * CROSSOVER))
        m = build(cls, rng, n_major, n_minor, nnz, empty_frac=rng.random() * 0.6)
        self.run(m, product, operand(m, product, rng), compiled=True)

    @pytest.mark.parametrize("cls, product", PRODUCTS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, bool])
    def test_operand_dtypes_promote_as_numpy_does(self, cls, product, dtype):
        rng = np.random.default_rng(3)
        m = build(cls, rng, 90, 70, 2 * CROSSOVER)
        got = self.run(m, product, operand(m, product, rng, dtype), compiled=True)
        assert got.dtype == np.float64

    @pytest.mark.parametrize("cls, product", PRODUCTS)
    @pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
    def test_float32_data_and_complex_operands_stay_on_numpy(self, cls, product):
        rng = np.random.default_rng(4)
        m = build(cls, rng, 90, 70, 2 * CROSSOVER)
        self.run(m.astype(np.float32), product, operand(m, product, rng), compiled=False)
        self.run(m, product, operand(m, product, rng, np.complex128), compiled=False)

    @pytest.mark.parametrize("cls, product", PRODUCTS)
    @pytest.mark.parametrize("where", ["data", "operand", "both"])
    def test_adversarial_values(self, cls, product, where):
        """±0.0, ±inf, NaNs of several payloads, 1e±300: also the products
        that overflow, the inf - inf of an empty segment after an infinite
        prefix, and two NaNs of different payload meeting in one add."""
        rng = np.random.default_rng(["data", "operand", "both"].index(where))
        data_values = ADVERSARIAL if where != "operand" else None
        x_values = ADVERSARIAL if where != "data" else None
        with np.errstate(all="ignore"):
            for _ in range(4):
                m = build(cls, rng, 60, 40, CROSSOVER + 100, values=data_values,
                          empty_frac=0.3)
                self.run(m, product, operand(m, product, rng, values=x_values),
                         compiled=True)

    @pytest.mark.parametrize("cls, product", PRODUCTS)
    def test_signed_zero_first_product(self, cls, product):
        """``np.cumsum`` starts from the first product, not from ``0.0 +``
        it, so a gather whose products are all -0.0 gives -0.0 for the first
        segment; a scatter adds them onto +0.0."""
        rng = np.random.default_rng(5)
        m = build(cls, rng, 50, 50, CROSSOVER, empty_frac=0.0)
        m.data[:] = -0.0
        x = np.abs(operand(m, product, rng)) + 1.0
        got = self.run(m, product, x, compiled=True)
        gather = (cls is CscMatrix) == (product == "rmatvec")
        assert np.signbit(got[0]) == gather

    @pytest.mark.parametrize("cls, product", PRODUCTS)
    def test_sizes_around_the_crossover(self, cls, product):
        rng = np.random.default_rng(6)
        for nnz, compiled in ((CROSSOVER - 1, False), (CROSSOVER, True)):
            m = build(cls, rng, 70, 90, nnz)
            assert m.nnz == nnz
            self.run(m, product, operand(m, product, rng), compiled=compiled)

    @pytest.mark.parametrize("cls, product", PRODUCTS)
    @pytest.mark.parametrize("n_major, n_minor", [(5, 7), (0, 7), (5, 0), (0, 0)])
    def test_empty_products(self, cls, product, n_major, n_minor, monkeypatch):
        """``nnz == 0`` and ``n_major == 0``, with the crossover lowered to
        zero so the kernels run them too."""
        monkeypatch.setattr(matrix, "NATIVE_MIN_NNZ", 0)
        m = build(cls, np.random.default_rng(7), n_major, n_minor, 0)
        assert m.nnz == 0
        self.run(m, product, operand(m, product, np.random.default_rng(8)),
                 compiled=True)

    @pytest.mark.parametrize("cls, product", PRODUCTS)
    def test_tiny_products_with_the_crossover_lowered(self, cls, product, monkeypatch):
        monkeypatch.setattr(matrix, "NATIVE_MIN_NNZ", 0)
        rng = np.random.default_rng(9)
        for n_major, n_minor, nnz in ((1, 1, 1), (1, 5, 9), (6, 1, 4), (8, 8, 20)):
            m = build(cls, rng, n_major, n_minor, nnz, empty_frac=0.0)
            self.run(m, product, operand(m, product, rng), compiled=True)


@needs_cc
class TestNativeProducts(TestNumpyProducts):
    """Every test above on the compiled kernels."""

    backend = "native"


def _corrupt(m, defect):
    if defect == "index-past-minor":
        m.indices[m.nnz // 2] = m.n_minor
    elif defect == "negative-index":
        m.indices[m.nnz // 2] = -1
    elif defect == "decreasing-indptr":
        k = m.n_major // 2
        m.indptr[k] = m.indptr[k + 1] + 1
    elif defect == "indptr-past-nnz":
        m.indptr[-1] = m.nnz + 3
    return m


DEFECTS = {
    "index-past-minor": "an index lies outside the minor axis",
    "negative-index": "an index lies outside the minor axis",
    "decreasing-indptr": "indptr must be non-decreasing",
    "indptr-past-nnz": "indptr points past the last stored entry",
}


def _corrupted(cls, defect):
    rng = np.random.default_rng(10)
    return _corrupt(build(cls, rng, 60, 50, 2 * CROSSOVER, empty_frac=0.0), defect)


class TestFailurePaths:
    """A matrix corrupted after construction, which is never re-validated."""

    @needs_cc
    @pytest.mark.parametrize("cls, product", PRODUCTS)
    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_compiled_path_names_the_defect(self, cls, product, defect):
        m = _corrupted(cls, defect)
        x = operand(m, product, np.random.default_rng(11))
        with pytest.raises(ValueError, match=DEFECTS[defect]):
            getattr(m, product)(x)

    @needs_cc
    def test_status_codes_match_the_kernel(self):
        assert set(matrix._NATIVE_DEFECTS) == {1, 2, 3, 4, 5}
        m = build(CsrMatrix, np.random.default_rng(12), 30, 20, CROSSOVER)
        m.indptr[0] = 1
        with pytest.raises(ValueError, match="indptr must start at 0"):
            m.matvec(np.ones(20))
        m = build(CsrMatrix, np.random.default_rng(12), 30, 20, CROSSOVER,
                  empty_frac=0.0)
        m.indptr[-1] -= 1
        with pytest.raises(ValueError, match=r"indptr\[-1\] is less than nnz"):
            m.rmatvec(np.ones(30))

    @pytest.mark.parametrize("cls, product", PRODUCTS)
    def test_numpy_fallback_on_the_same_input(self, cls, product, no_compiler):
        """What the fallback does instead (no check is added to it: at
        serving's per-request sizes one would cost about as much as the
        product): an index past the minor axis is an ``IndexError``, and a
        negative one silently reads or writes the wrapped entry."""
        m = _corrupted(cls, "index-past-minor")
        x = operand(m, product, np.random.default_rng(11))
        with pytest.raises(IndexError):
            getattr(m, product)(x)
        m = _corrupted(cls, "negative-index")
        wrapped = m.copy()
        wrapped.indices[m.nnz // 2] = m.n_minor - 1
        assert_bits_equal(getattr(m, product)(x), getattr(wrapped, product)(x))
