"""The stable counting sort every compressed matrix is built with, bit for bit.

``repro.sparse.ops._stable_order`` runs ``sparse.c::sparse_counting_order``
from ``NATIVE_MIN_NNZ`` keys up when the library loads, and
``np.argsort(kind="stable")`` otherwise.  Both must give exactly the
permutation of numpy's stable argsort (one key) and of ``np.lexsort`` (a
major and a minor key), so that ``from_coo`` and ``transpose_compressed``
build the same bytes as their ``np.lexsort`` / ``np.argsort`` references on
either path.  The builder and failure tests run twice: on the compiled
kernel and, through the ``no_compiler`` fixture, on numpy.
"""

from __future__ import annotations

import hashlib
import shutil
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.data import synthetic
from repro.sparse import CscMatrix, CsrMatrix, from_coo, matrix, ops
from repro.sparse.ops import transpose_compressed

HOST_CC = shutil.which(native.CC)
needs_cc = pytest.mark.skipif(HOST_CC is None, reason="no C compiler on PATH")

CROSSOVER = matrix.NATIVE_MIN_NNZ
PATTERNS = ["random", "sorted", "reversed", "constant", "duplicates", "bounds"]


def keys_of(pattern: str, nnz: int, n_keys: int, rng) -> np.ndarray:
    """``nnz`` int64 keys in ``[0, n_keys)`` laid out as ``pattern`` says."""
    keys = rng.integers(0, n_keys, nnz)
    if pattern == "sorted":
        keys.sort()
    elif pattern == "reversed":
        keys = np.sort(keys)[::-1].copy()
    elif pattern == "constant":
        keys[:] = rng.integers(0, n_keys)
    elif pattern == "duplicates":
        keys = rng.integers(0, min(n_keys, 3), nnz)
    elif pattern == "bounds":
        keys = rng.choice(np.array([0, n_keys - 1]), nnz)
    return keys


def numpy_order(*args) -> np.ndarray:
    """``_stable_order`` on its numpy path, whatever the size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix, "NATIVE_MIN_NNZ", sys.maxsize)
        return ops._stable_order(*args)


SIZES = st.one_of(st.sampled_from([0, 1, CROSSOVER - 1, CROSSOVER]), st.integers(0, 3 * CROSSOVER))
#: few buckets (heavy duplicates) and more than 65 536 (mostly empty)
EXTENTS = st.one_of(st.integers(1, 40), st.integers(65_537, 150_000))


@needs_cc
@given(
    pattern=st.sampled_from(PATTERNS), nnz=SIZES, n_keys=EXTENTS,
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_counting_order_is_numpys_stable_order(pattern, nnz, n_keys, seed):
    """C order == numpy twin == ``np.argsort(kind="stable")``."""
    keys = keys_of(pattern, nnz, n_keys, np.random.default_rng(seed))
    want = np.argsort(keys, kind="stable")
    np.testing.assert_array_equal(ops._native_order(keys, n_keys, None, 0), want)
    np.testing.assert_array_equal(numpy_order(keys, n_keys), want)


@needs_cc
@given(
    pattern=st.sampled_from(PATTERNS), minor_pattern=st.sampled_from(PATTERNS),
    nnz=SIZES, n_keys=EXTENTS, n_minor=EXTENTS, seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_two_key_order_is_lexsorts(pattern, minor_pattern, nnz, n_keys, n_minor, seed):
    """With a minor key, C order == numpy twin == ``np.lexsort((minor, keys))``."""
    rng = np.random.default_rng(seed)
    keys = keys_of(pattern, nnz, n_keys, rng)
    minor = keys_of(minor_pattern, nnz, n_minor, rng)
    want = np.lexsort((minor, keys))
    np.testing.assert_array_equal(ops._native_order(keys, n_keys, minor, n_minor), want)
    np.testing.assert_array_equal(numpy_order(keys, n_keys, minor, n_minor), want)


# -- the references: the sorts the builders ran before the counting sort ------


def lexsort_from_coo(rows, cols, vals, shape, fmt, dtype=np.float64):
    """``from_coo`` ordered by ``np.lexsort``: the reference bits."""
    rows, cols = np.asarray(rows, np.int64), np.asarray(cols, np.int64)
    vals = np.asarray(vals, dtype=dtype)
    major, minor = (cols, rows) if fmt == "csc" else (rows, cols)
    n_major = shape[1] if fmt == "csc" else shape[0]
    order = np.lexsort((minor, major))
    major, minor, vals = major[order], minor[order], vals[order]
    if vals.size:
        new = np.ones(vals.size, bool)
        new[1:] = (major[1:] != major[:-1]) | (minor[1:] != minor[:-1])
        group = np.cumsum(new) - 1
        merged = np.zeros(int(group[-1]) + 1, vals.dtype)
        np.add.at(merged, group, vals)
        major, minor, vals = major[new], minor[new], merged
    indptr = np.zeros(n_major + 1, np.int64)
    np.cumsum(np.bincount(major, minlength=n_major), out=indptr[1:])
    return (CscMatrix if fmt == "csc" else CsrMatrix)(shape, indptr, minor, vals)


def argsort_transpose(indptr, indices, data, n_minor):
    """``transpose_compressed`` ordered by ``np.argsort(kind="stable")``."""
    order = np.argsort(indices, kind="stable")
    out_indptr = np.zeros(n_minor + 1, indptr.dtype)
    np.cumsum(np.bincount(indices, minlength=n_minor), out=out_indptr[1:])
    major = np.repeat(np.arange(indptr.shape[0] - 1, dtype=indices.dtype), np.diff(indptr))
    return out_indptr, major[order], data[order]


def assert_bytes_equal(got, want):
    __tracebackhide__ = True
    got, want = tuple(got), tuple(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def arrays(m):
    return m.indptr, m.indices, m.data


def coo(rng, nnz, shape, values=None, *, shuffle=True):
    """Triplets with heavy duplicates, empty rows and columns at both ends
    and in between, and (by default) in shuffled order."""
    n_rows, n_cols = shape
    live_rows = rng.choice(np.arange(1, n_rows - 1), max(1, (n_rows - 2) // 2), replace=False)
    live_cols = rng.choice(np.arange(1, n_cols - 1), max(1, (n_cols - 2) // 2), replace=False)
    rows = rng.choice(live_rows, nnz)
    cols = rng.choice(live_cols, nnz)
    vals = rng.standard_normal(nnz) if values is None else rng.choice(values, nnz)
    if not shuffle:
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
    return rows, cols, vals


#: signed zeros and values that cancel, so duplicates merge through ±0.0
SIGNED = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -2.5])


class _Leg:
    """Runs a class's tests on one leg: the numpy one hides the compiler."""

    backend = "numpy"

    @pytest.fixture(autouse=True)
    def _select_backend(self, request, monkeypatch):
        if self.backend == "numpy":
            request.getfixturevalue("no_compiler")
        else:
            native.load_native()
        self.paths = []
        real = ops._native_order

        def spy(*args):
            # a status raised by the kernel leaves "native" recorded
            self.paths.append("native")
            out = real(*args)
            if out is None:
                self.paths[-1] = "numpy"
            return out

        monkeypatch.setattr(ops, "_native_order", spy)

    def expect_path(self, compiled: bool):
        ran = self.paths[-1] if self.paths else "numpy"
        assert ran == ("native" if compiled and self.backend == "native" else "numpy")
        self.paths.clear()


class TestNumpyBuilders(_Leg):
    @pytest.mark.parametrize("fmt", ["csr", "csc"])
    @pytest.mark.parametrize("values", ["normal", "signed"])
    @pytest.mark.parametrize("shuffle", [True, False])
    def test_from_coo_is_lexsorts_bytes(self, fmt, values, shuffle):
        rng = np.random.default_rng([fmt == "csr", values == "signed", shuffle])
        for nnz, shape in ((CROSSOVER - 1, (60, 40)), (3 * CROSSOVER, (90, 120))):
            rows, cols, vals = coo(
                rng, nnz, shape, SIGNED if values == "signed" else None, shuffle=shuffle
            )
            got = from_coo(rows, cols, vals, shape, fmt=fmt)
            self.expect_path(nnz >= CROSSOVER)
            assert_bytes_equal(arrays(got), arrays(lexsort_from_coo(rows, cols, vals, shape, fmt)))

    @pytest.mark.parametrize("fmt", ["csr", "csc"])
    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_from_coo_value_dtypes(self, fmt, dtype):
        rng = np.random.default_rng(3)
        rows, cols, vals = coo(rng, 2 * CROSSOVER, (50, 70), SIGNED)
        vals = (vals * 3).astype(dtype)
        got = from_coo(rows, cols, vals, (50, 70), fmt=fmt, dtype=dtype)
        self.expect_path(True)
        want = lexsort_from_coo(rows, cols, vals, (50, 70), fmt, dtype)
        assert_bytes_equal(arrays(got), arrays(want))

    def test_signed_zeros_merge_as_before(self):
        """A lone -0.0 is summed onto +0.0 (so stored +0.0); -0.0 + -0.0
        too; a cancelling pair stores +0.0: the reference's bits."""
        rows = np.array([2, 2, 2, 0, 1, 1] * CROSSOVER)
        cols = np.array([0, 0, 1, 3, 2, 2] * CROSSOVER)
        vals = np.array([-0.0, -0.0, -0.0, 1.0, 1.0, -1.0] * CROSSOVER)
        got = from_coo(rows, cols, vals, (4, 5), fmt="csr")
        self.expect_path(True)
        assert_bytes_equal(arrays(got), arrays(lexsort_from_coo(rows, cols, vals, (4, 5), "csr")))
        assert not np.signbit(got.data).any()

    @pytest.mark.parametrize("nnz", [0, 1, CROSSOVER - 1, CROSSOVER, 4 * CROSSOVER])
    def test_transpose_is_argsorts_bytes(self, nnz):
        rng = np.random.default_rng(nnz)
        rows, cols, vals = coo(rng, max(nnz, 1), (80, 130))
        csr = from_coo(rows[:nnz], cols[:nnz], vals[:nnz], (80, 130), fmt="csr")
        self.paths.clear()
        got = csr.to_csc()
        self.expect_path(csr.nnz >= CROSSOVER)
        want = argsort_transpose(*arrays(csr), 130)
        assert_bytes_equal(arrays(got), want)
        assert_bytes_equal(arrays(got.to_csr()), arrays(csr))

    def test_transpose_keeps_the_callers_dtypes(self):
        rng = np.random.default_rng(4)
        csc = from_coo(*coo(rng, 2 * CROSSOVER, (300, 400)), (300, 400), fmt="csc")
        assert csc.nnz >= CROSSOVER
        args = (csc.indptr.astype(np.int32), csc.indices.astype(np.int32),
                csc.data.astype(np.float32), 300)
        self.paths.clear()
        got = transpose_compressed(*args)
        self.expect_path(True)
        assert_bytes_equal(got, argsort_transpose(*args))

    @pytest.mark.parametrize("n_major, n_minor", [(0, 0), (0, 5), (5, 0)])
    def test_empty_with_the_crossover_lowered(self, n_major, n_minor, monkeypatch):
        monkeypatch.setattr(matrix, "NATIVE_MIN_NNZ", 0)
        e = np.empty(0, np.int64)
        got = from_coo(e, e, np.empty(0), (n_major, n_minor), fmt="csr")
        self.expect_path(True)
        assert_bytes_equal(arrays(got), arrays(lexsort_from_coo(e, e, [], (n_major, n_minor), "csr")))
        assert_bytes_equal(arrays(got.to_csc()), argsort_transpose(*arrays(got), n_minor))


@needs_cc
class TestNativeBuilders(TestNumpyBuilders):
    """Every test above on the compiled kernel."""

    backend = "native"


#: ``sparse.c`` status messages, as raised on both legs
DEFECTS = {
    "index-past-minor": "an index lies outside the minor axis",
    "negative-index": "an index lies outside the minor axis",
    "indptr-start": "indptr must start at 0",
    "decreasing-indptr": "indptr must be non-decreasing",
    "indptr-past-nnz": "indptr points past the last stored entry",
    "indptr-short-of-nnz": r"indptr\[-1\] is less than nnz",
}


def corrupted(defect):
    """A CSR triplet and its column count, with ``defect``."""
    rng = np.random.default_rng(5)
    csr = from_coo(*coo(rng, 2 * CROSSOVER, (300, 400)), (300, 400), fmt="csr")
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    if defect == "index-past-minor":
        indices[-1] = 400
    elif defect == "negative-index":
        indices[csr.nnz // 2] = -1
    elif defect == "indptr-start":
        indptr[0] = 1
    elif defect == "decreasing-indptr":
        indptr[150] = indptr[151] + 1
    elif defect == "indptr-past-nnz":
        indptr[-1] = csr.nnz + 2
    elif defect == "indptr-short-of-nnz":
        indices, data = np.append(indices, 0), np.append(data, 1.0)
    return indptr, indices, data, 400


class TestNumpyFailurePaths(_Leg):
    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_transpose_names_the_defect(self, defect):
        args = corrupted(defect)
        before = [a.copy() for a in args[:3]]
        assert args[1].shape[0] >= CROSSOVER
        self.paths.clear()
        with pytest.raises(ValueError, match=DEFECTS[defect]):
            transpose_compressed(*args)
        assert_bytes_equal(args[:3], before)
        # an index defect is the sort's to find, on the leg's path
        self.expect_path("index" in defect)

    @pytest.mark.parametrize("bad", [-1, 9])
    @pytest.mark.parametrize("which", ["keys", "minor"])
    def test_key_out_of_range(self, bad, which):
        keys = np.random.default_rng(6).integers(0, 9, 2 * CROSSOVER)
        minor = keys[::-1].copy()
        (keys if which == "keys" else minor)[CROSSOVER] = bad
        with pytest.raises(ValueError, match=DEFECTS["index-past-minor"]):
            ops._stable_order(keys, 9, minor, 9)
        self.expect_path(True)


@needs_cc
class TestNativeFailurePaths(TestNumpyFailurePaths):
    backend = "native"

    def test_kernel_writes_nothing_on_a_bad_key(self):
        """The status comes from the counting loop, before any position is
        written; the second pass's key is counted before its fill too."""
        lib = native.load_native()
        keys = np.arange(CROSSOVER, dtype=np.int64) % 7
        minor = keys[::-1].copy()
        for bad in (keys, minor):
            saved, bad[-1] = bad[-1], 7
            start = np.zeros(8, np.int64)
            scratch = np.full(CROSSOVER, -3, np.int64)
            order = np.full(CROSSOVER, -3, np.int64)
            status = lib.sparse_counting_order(
                keys.ctypes.data, 7, minor.ctypes.data, 7, CROSSOVER,
                start.ctypes.data, scratch.ctypes.data, order.ctypes.data,
            )
            assert matrix._NATIVE_DEFECTS[status] == DEFECTS["index-past-minor"]
            assert (order == -3).all()
            bad[-1] = saved


#: sha256 over the CSR then CSC ``indptr``, ``indices`` and ``data`` (dtype
#: string, then bytes) of each generator's output, frozen from the builds
#: ordered by ``np.lexsort`` / ``np.argsort``
GENERATOR_SHAS = {
    "webspam": "6da86bd50e52d85b5b48ca8f921774581c1528234858623b9966e17eeb8e6bc7",
    "webspam-float32": "4e2f77c4779464ef8782abd510d18072e6b5f62993991bf1b2c2c85fde4654b5",
    "criteo": "3314c34d87d51464f1430cfd267bc1e6bd3823a90c2cb99a508215b93691374b",
    "block": "649f7eff386055b5c93af5c87b20564ce355fb6887777b1905ed9d5cce6a49f1",
    "dense": "2d33cfdff91b0ef319362289f03fa63d8398b55e9b4675eb9d70b324eaf4d880",
}
GENERATORS = {
    "webspam": lambda: synthetic.make_webspam_like(seed=7),
    "webspam-float32": lambda: synthetic.make_webspam_like(500, 900, seed=3, dtype=np.float32),
    "criteo": lambda: synthetic.make_criteo_like(4000, group_cardinality=300, seed=11),
    "block": lambda: synthetic.make_block_correlated(seed=17),
    "dense": lambda: synthetic.make_dense_gaussian(40, 15, seed=1),
}


class TestNumpyGeneratorBits(_Leg):
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_generator_bits_are_frozen(self, name):
        ds = GENERATORS[name]()
        h = hashlib.sha256()
        for m in (ds.csr, ds.csc):
            for a in arrays(m):
                h.update(a.dtype.str.encode())
                h.update(a.tobytes())
        assert h.hexdigest() == GENERATOR_SHAS[name]


@needs_cc
class TestNativeGeneratorBits(TestNumpyGeneratorBits):
    backend = "native"
