"""Epoch kernels for the CPU coordinate solvers in numpy.

The exact ridge pass of Algorithm 1 is not here: it lives, once, in
:class:`repro.solvers.syscd_kernels.ExactPass` (compiled ``syscd.c`` or its
bitwise numpy twin), which ``SequentialSCD`` and ``SySCD(n_threads=1)``
share.  This module holds the rest:

* :func:`sdca_epoch` and :func:`elastic_net_epoch` — Algorithm 1 for the
  GLM extensions: one coordinate at a time around an objective's scalar
  step (SDCA for the SVM and logistic duals, soft-thresholded CD for the
  elastic net).
* :func:`primal_epoch_chunked` / :func:`dual_epoch_chunked` — the
  asynchronous-CPU model: coordinates are processed in chunks of
  ``chunk_size`` (= number of hardware threads).  All inner products within
  a chunk read the shared vector *as of the chunk start* (stale reads), and
  the write-back semantics are selectable:

  - ``write_mode="atomic"`` — every update is applied (A-SCD, Tran et al.);
  - ``write_mode="wild"`` — racing writers to the same shared-vector entry
    lose updates with probability ``loss_prob`` (PASSCoDe-Wild, Hsieh et
    al.): each non-final writer's contribution survives only with
    probability ``1 - loss_prob``.

  ``chunk_size=1`` reduces to the exact sequential semantics up to the
  inner products' rounding order, which the property tests verify.

The chunked kernels work on raw compressed arrays and gather an epoch's
nonzeros once (:func:`_epoch_gather`, which SySCD's bucket pass reuses).
GPU TPA-SCD's wave loop, which shares the chunk framing (a chunk = one wave
of resident thread blocks), is :func:`repro.gpu.engine.reference_epoch`
and its compiled twin ``repro/native/tpa.c``.
"""
from __future__ import annotations

import numpy as np

from ..objectives.elasticnet import elastic_net_delta
from ..sparse.matrix import _ranges_concat

__all__ = [
    "sdca_epoch",
    "elastic_net_epoch",
    "primal_epoch_chunked",
    "dual_epoch_chunked",
    "gather_chunk",
    "apply_chunk_updates",
]


# ---------------------------------------------------------------------------
# exact GLM kernels (Algorithm 1 around an objective's scalar step)
# ---------------------------------------------------------------------------


def sdca_epoch(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    y: np.ndarray,
    norms: np.ndarray,
    lam_n: float,
    step,
    alpha: np.ndarray,
    w: np.ndarray,
    perm: np.ndarray,
) -> None:
    """One exact SDCA epoch for a GLM dual over the permuted examples.

    ``step(y_i, alpha_i, <w, x_i>, ||x_i||^2, lam N)`` returns example
    ``i``'s new dual value; the shared vector is the primal model
    ``w = A^T(alpha*y)/(lam N)``, kept consistent with every change.
    ``alpha`` and ``w`` are updated in place.
    """
    inv_lam_n = 1.0 / lam_n
    for i in perm:
        lo = indptr[i]
        hi = indptr[i + 1]
        idx = indices[lo:hi]
        v = data[lo:hi]
        margin = float(v @ w[idx]) if lo != hi else 0.0
        new_alpha = step(y[i], float(alpha[i]), margin, float(norms[i]), lam_n)
        delta = new_alpha - alpha[i]
        if delta != 0.0:
            alpha[i] = new_alpha
            if lo != hi:
                w[idx] += v * (delta * y[i] * inv_lam_n)


def elastic_net_epoch(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    y: np.ndarray,
    norms: np.ndarray,
    n: int,
    lam: float,
    l1_ratio: float,
    beta: np.ndarray,
    w: np.ndarray,
    perm: np.ndarray,
) -> None:
    """One exact elastic-net CD epoch over the permuted features.

    Each feature takes :func:`~repro.objectives.elasticnet.elastic_net_delta`
    against the residual ``y - w``; ``beta`` and ``w = A beta`` are updated
    in place.
    """
    for m in perm:
        lo = indptr[m]
        hi = indptr[m + 1]
        idx = indices[lo:hi]
        v = data[lo:hi]
        residual_dot = float(v @ (y[idx] - w[idx])) if lo != hi else 0.0
        delta = elastic_net_delta(
            float(beta[m]), residual_dot, float(norms[m]), n, lam, l1_ratio
        )
        if delta != 0.0:
            beta[m] += delta
            if lo != hi:
                w[idx] += v * delta


# ---------------------------------------------------------------------------
# chunked asynchronous kernels (A-SCD / PASSCoDe-Wild execution model)
# ---------------------------------------------------------------------------


def gather_chunk(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    coords: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate the nonzeros of a set of coordinates.

    Returns ``(flat_minor_indices, flat_values, seg_ptr)`` where ``seg_ptr``
    delimits each coordinate's run inside the flat arrays.
    """
    lengths = indptr[coords + 1] - indptr[coords]
    seg_ptr = np.empty(coords.shape[0] + 1, dtype=np.int64)
    seg_ptr[0] = 0
    np.cumsum(lengths, out=seg_ptr[1:])
    flat = _ranges_concat(indptr[coords], lengths)
    return indices[flat], data[flat], seg_ptr


def _epoch_gather(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    perm: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather an entire epoch's nonzeros in one flattened pass.

    The per-chunk ``gather_chunk`` fancy-indexing is the chunked kernels'
    dominant cost; hoisting it to one epoch-level gather (sliced per chunk
    afterwards) produces byte-identical per-chunk arrays for a fraction of
    the kernel launches.  Returns ``(flat_minor_indices, flat_values,
    epoch_seg_ptr)`` with ``epoch_seg_ptr`` delimiting each *coordinate*.
    """
    lengths = indptr[perm + 1] - indptr[perm]
    eptr = np.empty(perm.shape[0] + 1, dtype=np.int64)
    eptr[0] = 0
    np.cumsum(lengths, out=eptr[1:])
    flat = _ranges_concat(indptr[perm], lengths)
    return indices[flat], data[flat], eptr


def _chunk_conflicts(
    e_idx: np.ndarray,
    eptr: np.ndarray,
    chunk_size: int,
    n_minor: int,
) -> np.ndarray | None:
    """Per-chunk duplicate-write counts for one epoch.

    One in-place sort of ``chunk_id * n_minor + index`` replaces a per-chunk
    uniqueness probe; chunks with a zero count may apply their scatter with
    a buffered fancy ``+=`` (bit-identical to ``np.add.at`` when every
    target element is written once).  Returns ``None`` when the whole epoch
    is conflict-free.
    """
    total = e_idx.shape[0]
    if total == 0 or chunk_size == 1:
        # a single coordinate's minor indices are unique by construction
        return None
    k = eptr.shape[0] - 1
    n_chunks = -(-k // chunk_size)
    chunk_of = np.arange(k, dtype=np.int64) // chunk_size
    keys = np.repeat(chunk_of, np.diff(eptr)) * n_minor + e_idx
    keys.sort()
    dup = keys[1:] == keys[:-1]
    if not dup.any():
        return None
    return np.bincount(keys[1:][dup] // n_minor, minlength=n_chunks)


def _segment_dots(
    flat_idx: np.ndarray,
    flat_val: np.ndarray,
    seg_ptr: np.ndarray,
    vec: np.ndarray,
) -> np.ndarray:
    """Per-coordinate inner products ``<a_j, vec>`` over a gathered chunk."""
    prods = flat_val * vec[flat_idx]
    prefix = np.empty(prods.shape[0] + 1, dtype=np.float64)
    prefix[0] = 0.0
    np.cumsum(prods, dtype=np.float64, out=prefix[1:])
    return prefix[seg_ptr[1:]] - prefix[seg_ptr[:-1]]


def apply_chunk_updates(
    vec: np.ndarray,
    flat_idx: np.ndarray,
    contrib: np.ndarray,
    *,
    write_mode: str,
    loss_prob: float,
    rng: np.random.Generator | None,
    conflicts: int | None = None,
) -> int:
    """Write a chunk's shared-vector contributions back.

    Returns the number of *lost* element updates (0 in atomic mode), which
    the solvers expose for diagnostics.

    ``conflicts`` accepts a precomputed duplicate-write count for the chunk
    (see :func:`_chunk_conflicts`): atomic chunks known to be conflict-free
    take a buffered fancy ``+=`` — bit-identical to ``np.add.at`` when every
    target element is written once and several times faster — while ``None``
    (unknown) or a positive count keeps the ordered ``np.add.at`` path.

    In ``wild`` mode the writers race: for every shared-vector entry touched
    by multiple coordinates in the chunk, the chronologically last write
    always lands and each earlier one survives only with probability
    ``1 - loss_prob``.  ``flat_idx``'s order encodes chronology (coordinates
    appear in their chunk order).
    """
    if flat_idx.shape[0] == 0:
        return 0
    if write_mode == "atomic":
        if conflicts == 0:
            vec[flat_idx] += contrib
        else:
            np.add.at(vec, flat_idx, contrib)
        return 0
    if write_mode != "wild":
        raise ValueError(f"unknown write_mode {write_mode!r}")

    order = np.argsort(flat_idx, kind="stable")
    rows_sorted = flat_idx[order]
    is_last = np.empty(rows_sorted.shape[0], dtype=bool)
    is_last[:-1] = rows_sorted[:-1] != rows_sorted[1:]
    is_last[-1] = True
    keep = is_last.copy()
    racing = ~is_last
    n_racing = int(racing.sum())
    if n_racing:
        if loss_prob >= 1.0:
            survive = np.zeros(n_racing, dtype=bool)
        elif loss_prob <= 0.0:
            survive = np.ones(n_racing, dtype=bool)
        else:
            if rng is None:
                raise ValueError("wild mode with 0<loss_prob<1 requires an rng")
            survive = rng.random(n_racing) >= loss_prob
        keep[racing] = survive
    kept = order[keep]
    np.add.at(vec, flat_idx[kept], contrib[kept])
    return int((~keep).sum())


def primal_epoch_chunked(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    y_dots: np.ndarray,
    inv_denom: np.ndarray,
    nlam: float,
    beta: np.ndarray,
    w: np.ndarray,
    perm: np.ndarray,
    chunk_size: int,
    *,
    write_mode: str = "atomic",
    loss_prob: float = 1.0,
    rng: np.random.Generator | None = None,
) -> int:
    """One asynchronous primal epoch; returns total lost element-updates."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    lost = 0
    n_coords = perm.shape[0]
    e_idx, e_val, eptr = _epoch_gather(indptr, indices, data, perm)
    conflicts = (
        _chunk_conflicts(e_idx, eptr, chunk_size, w.shape[0])
        if write_mode == "atomic"
        else None
    )
    for chunk, start in enumerate(range(0, n_coords, chunk_size)):
        stop = min(start + chunk_size, n_coords)
        coords = perm[start:stop]
        a, b = int(eptr[start]), int(eptr[stop])
        flat_idx = e_idx[a:b]
        flat_val = e_val[a:b]
        seg_ptr = eptr[start : stop + 1] - a
        dots = _segment_dots(flat_idx, flat_val, seg_ptr, w)
        deltas = (y_dots[coords] - dots - nlam * beta[coords]) * inv_denom[coords]
        beta[coords] += deltas
        contrib = flat_val * np.repeat(deltas, np.diff(seg_ptr))
        lost += apply_chunk_updates(
            w,
            flat_idx,
            contrib,
            write_mode=write_mode,
            loss_prob=loss_prob,
            rng=rng,
            conflicts=(
                0 if conflicts is None else int(conflicts[chunk])
            ) if write_mode == "atomic" else None,
        )
    return lost


def dual_epoch_chunked(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    y: np.ndarray,
    inv_denom: np.ndarray,
    lam: float,
    nlam: float,
    alpha: np.ndarray,
    wbar: np.ndarray,
    perm: np.ndarray,
    chunk_size: int,
    *,
    write_mode: str = "atomic",
    loss_prob: float = 1.0,
    rng: np.random.Generator | None = None,
) -> int:
    """One asynchronous dual epoch; returns total lost element-updates."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    lost = 0
    n_coords = perm.shape[0]
    e_idx, e_val, eptr = _epoch_gather(indptr, indices, data, perm)
    conflicts = (
        _chunk_conflicts(e_idx, eptr, chunk_size, wbar.shape[0])
        if write_mode == "atomic"
        else None
    )
    for chunk, start in enumerate(range(0, n_coords, chunk_size)):
        stop = min(start + chunk_size, n_coords)
        coords = perm[start:stop]
        a, b = int(eptr[start]), int(eptr[stop])
        flat_idx = e_idx[a:b]
        flat_val = e_val[a:b]
        seg_ptr = eptr[start : stop + 1] - a
        dots = _segment_dots(flat_idx, flat_val, seg_ptr, wbar)
        deltas = (lam * y[coords] - dots - nlam * alpha[coords]) * inv_denom[coords]
        alpha[coords] += deltas
        contrib = flat_val * np.repeat(deltas, np.diff(seg_ptr))
        lost += apply_chunk_updates(
            wbar,
            flat_idx,
            contrib,
            write_mode=write_mode,
            loss_prob=loss_prob,
            rng=rng,
            conflicts=(
                0 if conflicts is None else int(conflicts[chunk])
            ) if write_mode == "atomic" else None,
        )
    return lost
