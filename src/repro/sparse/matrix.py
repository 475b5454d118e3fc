"""Compressed sparse matrix formats built from scratch on NumPy arrays.

The paper stores the training matrix in compressed sparse *column* format when
solving the primal problem (coordinates are features, i.e. columns) and
compressed sparse *row* format when solving the dual (coordinates are
examples, i.e. rows).  Both formats are implemented here with exactly the
views the solvers need: O(1) access to one coordinate's nonzeros, vectorized
matvec / rmatvec, per-coordinate squared norms, and cheap sub-selection along
the major axis for distributed partitioning.

The two products run in numpy, which is also their reference.  A float64
product over at least :data:`NATIVE_MIN_NNZ` nonzeros runs the bit-identical
compiled twin instead (``repro/native/sparse.c``), built and loaded on the
first such product, never at import; without a C compiler it stays on numpy.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .ops import (
    check_compressed,
    expand_by_segments,
    grouped_segment_sums,
    segment_sums,
    transpose_compressed,
)

__all__ = [
    "CscMatrix",
    "CsrMatrix",
    "batch_matvec",
    "from_coo",
    "from_dense_csc",
    "from_dense_csr",
]

_INDEX_DTYPE = np.int64

#: nnz from which a float64 product calls the compiled kernel: below it the
#: foreign call's fixed cost loses to numpy (measured, docs/performance.md)
NATIVE_MIN_NNZ = 4096

#: what each non-zero ``repro/native/sparse.c`` status says is wrong
_NATIVE_DEFECTS = {
    1: "indptr must start at 0",
    2: "indptr must be non-decreasing",
    3: "indptr points past the last stored entry",
    4: "indptr[-1] is less than nnz",
    5: "an index lies outside the minor axis",
}


class _CompressedBase:
    """Shared behaviour of :class:`CscMatrix` and :class:`CsrMatrix`.

    Subclasses fix the interpretation of the major axis (columns for CSC,
    rows for CSR).  ``indptr``/``indices``/``data`` follow the usual
    compressed-storage conventions.
    """

    #: axis index (into ``shape``) of the compressed/major axis
    _major_axis: int = 0

    def __init__(
        self,
        shape: tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        *,
        check: bool = True,
    ) -> None:
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if n_rows < 0 or n_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.shape = (n_rows, n_cols)
        self.indptr = np.ascontiguousarray(indptr, dtype=_INDEX_DTYPE)
        self.indices = np.ascontiguousarray(indices, dtype=_INDEX_DTYPE)
        self.data = np.ascontiguousarray(data)
        if self.data.dtype.kind != "f":
            self.data = self.data.astype(np.float64)
        if check:
            check_compressed(
                self.indptr, self.indices, self.data, self.n_major, self.n_minor
            )

    # -- geometry ----------------------------------------------------------
    @property
    def n_major(self) -> int:
        return self.shape[self._major_axis]

    @property
    def n_minor(self) -> int:
        return self.shape[1 - self._major_axis]

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        """Bytes of storage, used for GPU memory-capacity accounting."""
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    @property
    def density(self) -> float:
        size = self.shape[0] * self.shape[1]
        return self.nnz / size if size else 0.0

    # -- element access ----------------------------------------------------
    def major_slice(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(minor_indices, values)`` views of major-axis entry ``j``."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def major_norms_sq(self) -> np.ndarray:
        """Squared L2 norm of each major-axis vector (column or row)."""
        return segment_sums(self.data * self.data, self.indptr)

    def major_nnz(self) -> np.ndarray:
        """Number of stored entries per major-axis vector."""
        return np.diff(self.indptr)

    # -- algebra on the raw triplet -----------------------------------------
    def _scatter_product(self, x_major: np.ndarray) -> np.ndarray:
        """Compute ``sum_j x[j] * vec_j`` scattered onto the minor axis.

        For CSC this is ``A @ x`` (x over columns); for CSR it is ``A.T @ x``
        (x over rows).
        """
        if x_major.shape[0] != self.n_major:
            raise ValueError(
                f"operand has length {x_major.shape[0]}, expected {self.n_major}"
            )
        if self.indices.shape[0] >= NATIVE_MIN_NNZ:
            out = _native_product("sparse_scatter", self, x_major, self.n_minor)
            if out is not None:
                return out
        out = np.zeros(self.n_minor, dtype=np.result_type(self.dtype, x_major.dtype))
        contrib = self.data * expand_by_segments(x_major, self.indptr)
        np.add.at(out, self.indices, contrib)
        return out

    def _gather_product(self, x_minor: np.ndarray) -> np.ndarray:
        """Compute ``<vec_j, x>`` for every major-axis vector ``j``.

        For CSC this is ``A.T @ x``; for CSR it is ``A @ x``.
        """
        if x_minor.shape[0] != self.n_minor:
            raise ValueError(
                f"operand has length {x_minor.shape[0]}, expected {self.n_minor}"
            )
        if self.indices.shape[0] >= NATIVE_MIN_NNZ:
            out = _native_product("sparse_gather", self, x_minor, self.n_major)
            if out is not None:
                return out
        prods = self.data * x_minor[self.indices]
        return segment_sums(prods, self.indptr)

    # -- structural ops ------------------------------------------------------
    def take_major(self, sel: np.ndarray):
        """Sub-select major-axis vectors (columns of CSC / rows of CSR).

        Used by the distributed partitioners: selecting a worker's local
        coordinates is O(local nnz).
        """
        sel = np.asarray(sel, dtype=_INDEX_DTYPE)
        lengths = np.diff(self.indptr)[sel]
        new_indptr = np.empty(sel.shape[0] + 1, dtype=_INDEX_DTYPE)
        new_indptr[0] = 0
        np.cumsum(lengths, out=new_indptr[1:])
        total = int(new_indptr[-1])
        new_indices = np.empty(total, dtype=_INDEX_DTYPE)
        new_data = np.empty(total, dtype=self.dtype)
        # Gather entry ranges per selected vector.  The flat gather index is
        # built vectorized: for each selected segment, a contiguous run of
        # source positions.
        starts = self.indptr[sel]
        flat = _ranges_concat(starts, lengths)
        new_indices[:] = self.indices[flat]
        new_data[:] = self.data[flat]
        new_shape = list(self.shape)
        new_shape[self._major_axis] = sel.shape[0]
        return type(self)(tuple(new_shape), new_indptr, new_indices, new_data, check=False)

    def astype(self, dtype):
        return type(self)(
            self.shape,
            self.indptr,
            self.indices,
            self.data.astype(dtype),
            check=False,
        )

    def copy(self):
        return type(self)(
            self.shape,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
            check=False,
        )

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.dtype)
        major = np.repeat(np.arange(self.n_major), np.diff(self.indptr))
        if self._major_axis == 1:  # CSC: major = columns
            out[self.indices, major] = self.data
        else:  # CSR: major = rows
            out[major, self.indices] = self.data
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(shape={self.shape}, nnz={self.nnz}, "
            f"dtype={self.dtype})"
        )


def _native_product(kernel: str, matrix: _CompressedBase, x: np.ndarray,
                    n_out: int) -> np.ndarray | None:
    """``kernel`` of ``repro/native/sparse.c`` on ``matrix`` and ``x``.

    The caller calls it only from :data:`NATIVE_MIN_NNZ` nonzeros up, which
    keeps small products to one comparison.
    Returns ``None``, and the caller runs numpy, unless the product is a
    float64 one (float64 data, and ``x`` a vector numpy would promote to
    float64, to which it is cast) and the library builds or loads.  The
    kernel checks the structure as it walks it, so a matrix corrupted after
    construction is a ``ValueError`` naming the defect (numpy raises
    ``IndexError`` for an index past the minor axis and wraps a negative one
    silently).
    """
    if not (
        matrix.data.dtype == np.float64
        and x.ndim == 1
        and np.result_type(matrix.data, x) == np.float64
    ):
        return None
    from .. import native

    try:
        lib = native.load_native()
    except native.NativeUnavailableError:
        return None
    x = np.ascontiguousarray(x, np.float64)
    out = np.zeros(n_out, np.float64)
    status = getattr(lib, kernel)(
        native.address(matrix.indptr, np.int64, "indptr", matrix.n_major + 1),
        native.address(matrix.indices, np.int64, "indices"),
        native.address(matrix.data, np.float64, "data", matrix.nnz),
        matrix.n_major,
        matrix.n_minor,
        matrix.nnz,
        native.address(x, np.float64, "x"),
        native.address(out, np.float64, "out", writeable=True),
    )
    if status:
        raise ValueError(f"{type(matrix).__name__}: {_NATIVE_DEFECTS[status]}")
    return out


def _ranges_concat(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, s+l) for s, l in zip(starts, lengths)]`` fast."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=_INDEX_DTYPE)
    # classic vectorized multi-range trick: cumulative offsets with resets
    out = np.ones(total, dtype=_INDEX_DTYPE)
    seg_ends = np.cumsum(lengths)
    nonzero = lengths > 0
    first_pos = np.concatenate(([0], seg_ends[:-1]))[nonzero]
    out[first_pos] = starts[nonzero]
    prev_start = starts[nonzero][:-1]
    prev_len = lengths[nonzero][:-1]
    if first_pos.shape[0] > 1:
        out[first_pos[1:]] -= prev_start + prev_len - 1
    np.cumsum(out, out=out)
    return out


class CscMatrix(_CompressedBase):
    """Compressed sparse column matrix; major axis = columns (features).

    This is the storage the paper uses for the *primal* solver: one SCD
    coordinate touches exactly one column.
    """

    _major_axis = 1

    # column views -----------------------------------------------------------
    def col(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Row indices and values of column ``j`` (views, no copies)."""
        return self.major_slice(j)

    def col_norms_sq(self) -> np.ndarray:
        return self.major_norms_sq()

    def col_nnz(self) -> np.ndarray:
        return self.major_nnz()

    def take_cols(self, sel: np.ndarray) -> "CscMatrix":
        return self.take_major(sel)

    # algebra -----------------------------------------------------------------
    def matvec(self, beta: np.ndarray) -> np.ndarray:
        """``A @ beta``: scatter columns scaled by beta onto the rows."""
        return self._scatter_product(beta)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """``A.T @ x``: per-column inner products with x."""
        return self._gather_product(x)

    def to_csr(self) -> "CsrMatrix":
        indptr, indices, data = transpose_compressed(
            self.indptr, self.indices, self.data, self.shape[0]
        )
        return CsrMatrix(self.shape, indptr, indices, data, check=False)


class CsrMatrix(_CompressedBase):
    """Compressed sparse row matrix; major axis = rows (examples).

    Storage for the *dual* solver: one SDCA coordinate touches one row.
    """

    _major_axis = 0

    # row views ----------------------------------------------------------------
    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and values of row ``i`` (views, no copies)."""
        return self.major_slice(i)

    def row_norms_sq(self) -> np.ndarray:
        return self.major_norms_sq()

    def row_nnz(self) -> np.ndarray:
        return self.major_nnz()

    def take_rows(self, sel: np.ndarray) -> "CsrMatrix":
        return self.take_major(sel)

    # algebra --------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x``: per-row inner products with x."""
        return self._gather_product(x)

    def rmatvec(self, alpha: np.ndarray) -> np.ndarray:
        """``A.T @ alpha``: scatter rows scaled by alpha onto the columns."""
        return self._scatter_product(alpha)

    def to_csc(self) -> CscMatrix:
        indptr, indices, data = transpose_compressed(
            self.indptr, self.indices, self.data, self.shape[1]
        )
        return CscMatrix(self.shape, indptr, indices, data, check=False)


def batch_matvec(matrices: Sequence[CsrMatrix], x: np.ndarray) -> list[np.ndarray]:
    """``[a.matvec(x) for a in matrices]``, bit for bit, in one gather product.

    The matrices' nonzeros are concatenated and multiplied by ``x`` in one
    call, and :func:`~repro.sparse.ops.grouped_segment_sums` restarts the
    prefix at each matrix, so every result keeps the bits of its own
    ``matvec`` (numpy's or ``sparse.c``'s, which are the same) however the
    matrices are grouped or ordered.  Matrices whose data dtypes differ
    would round their products differently, so each data dtype gets its
    own product.  Each result is a view of its product's output.  A matrix
    of at least :data:`NATIVE_MIN_NNZ` nonzeros runs its own ``matvec``: it
    is past the size where the fixed cost matters, and batching it would
    pad every other matrix's prefix to its length.

    When two NaNs meet, numpy keeps the payload of one of them, and which
    one depends on where the pair falls in its vector loop, so on the
    product's length.  A matrix with a NaN product is therefore scored by
    its own ``matvec``.
    """
    out: list = [None] * len(matrices)
    by_dtype: dict[np.dtype, list[int]] = {}
    for k, a in enumerate(matrices):
        if a.shape[1] != x.shape[0]:
            raise ValueError(
                f"operand has length {x.shape[0]}, matrix {k} expects {a.shape[1]}"
            )
        if a.nnz >= NATIVE_MIN_NNZ:
            out[k] = a.matvec(x)
        else:
            by_dtype.setdefault(a.data.dtype, []).append(k)
    for ks in by_dtype.values():
        group = [matrices[k] for k in ks]
        indices = np.concatenate([a.indices for a in group])
        data = np.concatenate([a.data for a in group])
        indptr = np.concatenate([a.indptr for a in group])
        rows = [a.shape[0] for a in group]
        bounds = np.fromiter(
            accumulate((n + 1 for n in rows), initial=0), _INDEX_DTYPE, len(rows) + 1
        )
        prods = data * x[indices]
        sums = grouped_segment_sums(prods, indptr, bounds)
        for k, lo, n in zip(ks, accumulate(rows, initial=0), rows):
            out[k] = sums[lo:lo + n]
        nan = np.isnan(prods)
        if nan.any():
            starts = accumulate((a.nnz for a in group), initial=0)
            for k, a, lo in zip(ks, group, starts):
                if nan[lo:lo + a.nnz].any():
                    out[k] = a.matvec(x)
    return out


# -- constructors ------------------------------------------------------------


def from_coo(
    rows: Iterable[int],
    cols: Iterable[int],
    vals: Iterable[float],
    shape: tuple[int, int],
    *,
    fmt: str = "csc",
    dtype=np.float64,
) -> CscMatrix | CsrMatrix:
    """Build a compressed matrix from COO triplets (duplicates are summed)."""
    rows = np.asarray(rows, dtype=_INDEX_DTYPE)
    cols = np.asarray(cols, dtype=_INDEX_DTYPE)
    vals = np.asarray(vals, dtype=dtype)
    if not (rows.shape == cols.shape == vals.shape):
        raise ValueError("rows, cols and vals must have identical shapes")
    n_rows, n_cols = shape
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
        raise ValueError("row index out of bounds")
    if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
        raise ValueError("column index out of bounds")

    # sort lexicographically by (major, minor) and merge duplicates
    if fmt == "csc":
        major, minor, n_major = cols, rows, n_cols
    elif fmt == "csr":
        major, minor, n_major = rows, cols, n_rows
    else:
        raise ValueError(f"unknown format {fmt!r}")

    order = np.lexsort((minor, major))
    major, minor, vals = major[order], minor[order], vals[order]
    if vals.size:
        new_group = np.empty(vals.size, dtype=bool)
        new_group[0] = True
        new_group[1:] = (major[1:] != major[:-1]) | (minor[1:] != minor[:-1])
        group_id = np.cumsum(new_group) - 1
        n_groups = int(group_id[-1]) + 1
        merged_vals = np.zeros(n_groups, dtype=vals.dtype)
        np.add.at(merged_vals, group_id, vals)
        major = major[new_group]
        minor = minor[new_group]
        vals = merged_vals
    indptr = np.zeros(n_major + 1, dtype=_INDEX_DTYPE)
    np.cumsum(np.bincount(major, minlength=n_major), out=indptr[1:])
    cls = CscMatrix if fmt == "csc" else CsrMatrix
    return cls(shape, indptr, minor, vals)


def from_dense_csc(dense: np.ndarray, *, dtype=None) -> CscMatrix:
    """Compress a dense 2-D array into CSC (zeros dropped)."""
    dense = np.asarray(dense)
    if dense.ndim != 2:
        raise ValueError("expected a 2-D array")
    rows, cols = np.nonzero(dense)
    vals = dense[rows, cols]
    if dtype is not None:
        vals = vals.astype(dtype)
    return from_coo(rows, cols, vals, dense.shape, fmt="csc", dtype=vals.dtype)


def from_dense_csr(dense: np.ndarray, *, dtype=None) -> CsrMatrix:
    """Compress a dense 2-D array into CSR (zeros dropped)."""
    dense = np.asarray(dense)
    if dense.ndim != 2:
        raise ValueError("expected a 2-D array")
    rows, cols = np.nonzero(dense)
    vals = dense[rows, cols]
    if dtype is not None:
        vals = vals.astype(dtype)
    return from_coo(rows, cols, vals, dense.shape, fmt="csr", dtype=vals.dtype)
