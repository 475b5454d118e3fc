"""Low-level vectorized kernels shared by the sparse matrix formats.

These helpers operate on raw ``(indptr, indices, data)`` triplets so the hot
paths of the solvers can stay allocation-light and fully vectorized.  They are
written against plain :mod:`numpy` only — no scipy.sparse — because the
compressed formats themselves are part of the substrate this project builds
from scratch.  :func:`segment_sums` is also the arithmetic the compiled
gather product (``repro/native/sparse.c``) replays bit for bit: one float64
running prefix over all entries, each segment's sum a difference of two of
its values.  :func:`grouped_segment_sums` runs the same arithmetic over many
independent groups at once, the prefix restarting at each group.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "segment_sums",
    "grouped_segment_sums",
    "expand_by_segments",
    "transpose_compressed",
    "check_compressed",
    "segment_lengths",
]


def segment_lengths(indptr: np.ndarray) -> np.ndarray:
    """Return the number of stored entries in each compressed segment."""
    return np.diff(indptr)


def segment_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Sum ``values`` within each segment delimited by ``indptr``.

    Robust to empty segments (unlike a naive ``np.add.reduceat``).  Uses an
    exclusive prefix sum so the cost is one pass over ``values``.

    Parameters
    ----------
    values:
        Flat array of per-entry values, ``len(values) == indptr[-1]``.
    indptr:
        Monotone segment pointer array of length ``n_segments + 1``.
    """
    if values.shape[0] != indptr[-1]:
        raise ValueError(
            f"values has {values.shape[0]} entries but indptr expects {indptr[-1]}"
        )
    # prefix[k] = sum(values[:k]); accumulate in float64 for accuracy, then
    # cast back so float32 inputs keep float32 results.
    prefix = np.empty(values.shape[0] + 1, dtype=np.float64)
    prefix[0] = 0.0
    np.cumsum(values, dtype=np.float64, out=prefix[1:])
    out = prefix[indptr[1:]] - prefix[indptr[:-1]]
    return out.astype(values.dtype, copy=False)


def grouped_segment_sums(
    values: np.ndarray, indptr: np.ndarray, bounds: np.ndarray
) -> np.ndarray:
    """:func:`segment_sums` of many groups in one pass, bit for bit.

    Group ``g`` owns the pointer array ``indptr[bounds[g]:bounds[g + 1]]``
    (its own, starting at 0) and the next ``indptr[bounds[g + 1] - 1]``
    entries of ``values``; ``indptr`` and ``values`` are the groups'
    arrays concatenated in order.  Each group gets its own float64 prefix
    sum, so the result is ``np.concatenate`` of ``segment_sums`` over the
    groups, bit for bit: a segment's sum depends only on its own group,
    whatever is grouped with it.

    The prefixes are the rows of one zero-padded ``(n_groups, 1 + longest
    group)`` block, so memory grows with the longest group times the number
    of groups.
    """
    sizes = bounds[1:] - bounds[:-1]
    if sizes.shape[0] and sizes.min() < 1:
        raise ValueError("every group needs a pointer array of length >= 1")
    if bounds[-1] != indptr.shape[0]:
        raise ValueError(
            f"bounds end at {bounds[-1]} but indptr has {indptr.shape[0]} entries"
        )
    counts = indptr[bounds[1:] - 1]
    if values.shape[0] != counts.sum():
        raise ValueError(
            f"values has {values.shape[0]} entries but the groups expect "
            f"{counts.sum()}"
        )
    width = int(counts.max(initial=0)) + 1
    # row g holds group g's prefix: prefix[g, k] = sum(group values[:k]),
    # with column 0 never summed into (the -0.0 start np.cumsum keeps)
    prefix = np.zeros((sizes.shape[0], width), dtype=np.float64)
    body = prefix[:, 1:]
    body[np.arange(width - 1) < counts[:, None]] = values
    np.cumsum(body, axis=1, out=body)
    # segment s of group g is delimited by pointers s + g and s + g + 1
    group = np.repeat(np.arange(sizes.shape[0]), sizes - 1)
    first = np.arange(group.shape[0]) + group
    flat = prefix.ravel()
    row = group * width
    out = flat[indptr[first + 1] + row] - flat[indptr[first] + row]
    return out.astype(values.dtype, copy=False)


def expand_by_segments(per_segment: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Broadcast one value per segment to every stored entry of that segment.

    Equivalent to ``np.repeat(per_segment, np.diff(indptr))`` but named for
    readability at call sites (e.g. expanding ``beta[j]`` over column ``j``'s
    nonzeros when forming ``A @ beta`` from a CSC matrix).
    """
    if per_segment.shape[0] + 1 != indptr.shape[0]:
        raise ValueError(
            f"per_segment has {per_segment.shape[0]} entries but indptr "
            f"describes {indptr.shape[0] - 1} segments"
        )
    return np.repeat(per_segment, np.diff(indptr))


def transpose_compressed(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    n_minor: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transpose a compressed representation via a counting sort.

    Converts CSR -> CSC or CSC -> CSR in O(nnz).  ``n_minor`` is the extent of
    the minor axis (the axis ``indices`` refers to), which becomes the major
    axis of the output.  Output segments are sorted by the original major
    index, so the result has sorted indices whenever the input segments are
    traversed in order — the standard property of this algorithm.
    """
    nnz = indices.shape[0]
    n_major = indptr.shape[0] - 1
    counts = np.bincount(indices, minlength=n_minor)
    out_indptr = np.empty(n_minor + 1, dtype=indptr.dtype)
    out_indptr[0] = 0
    np.cumsum(counts, out=out_indptr[1:])

    out_indices = np.empty(nnz, dtype=indices.dtype)
    out_data = np.empty(nnz, dtype=data.dtype)

    # Position of each entry inside its destination segment: a stable
    # rank-within-group computed without a Python loop.  Entries appear in
    # major order, so rank = running count of prior occurrences of the same
    # minor index.  argsort(kind="stable") over the minor index gives the
    # destination permutation directly.
    order = np.argsort(indices, kind="stable")
    major_of_entry = np.repeat(
        np.arange(n_major, dtype=indices.dtype), np.diff(indptr)
    )
    out_indices[:] = major_of_entry[order]
    out_data[:] = data[order]
    return out_indptr, out_indices, out_data


def check_compressed(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    n_major: int,
    n_minor: int,
) -> None:
    """Validate a compressed triplet, raising ``ValueError`` on any defect."""
    if indptr.ndim != 1 or indices.ndim != 1 or data.ndim != 1:
        raise ValueError("indptr, indices and data must be 1-D arrays")
    if indptr.shape[0] != n_major + 1:
        raise ValueError(
            f"indptr length {indptr.shape[0]} != n_major + 1 = {n_major + 1}"
        )
    if indptr[0] != 0:
        raise ValueError("indptr must start at 0")
    if np.any(np.diff(indptr) < 0):
        raise ValueError("indptr must be non-decreasing")
    if indices.shape[0] != data.shape[0]:
        raise ValueError("indices and data must have equal length")
    if indptr[-1] != indices.shape[0]:
        raise ValueError(
            f"indptr[-1]={indptr[-1]} does not match nnz={indices.shape[0]}"
        )
    if indices.shape[0] and (indices.min() < 0 or indices.max() >= n_minor):
        raise ValueError("index out of bounds for minor axis")
