"""SySCD bucket kernels: the numpy reference and its compiled C twin.

SySCD (Ioannou, Mendler-Dünner & Parnell, NeurIPS 2019) restructures
shared-memory parallel coordinate descent around three system-aware ideas:
coordinates are processed in *buckets* sized for the cache hierarchy, each
worker thread updates a *private replica* of the shared vector, and replicas
are reconciled in periodic *merge* steps instead of per-update atomics.
This module holds the numerical kernels for one bucket pass plus the exact
single-thread reference; the orchestration (threads, replicas, merges)
lives in :mod:`repro.solvers.syscd`.

Two interchangeable backends implement the same kernels, each behind a
binding with one per-epoch interface (:class:`NumpyBinding`,
:class:`NativeBinding`); the solver binds the native one whenever the
kernel library loads, with no option:

* **numpy** — always available; the bitwise reference implementation.
* **native** — ``syscd.c`` of the compiled kernel library
  (:mod:`repro.native`), built on first use with the host's C compiler and
  loaded through :mod:`ctypes`.  A ``ctypes`` call releases the GIL for its
  duration, so the worker threads' bucket passes can run in parallel.

The two backends are **bit-identical** by construction, which the test
suite asserts.  That is only possible because every inner product is
computed through :func:`numpy.cumsum` prefix sums — a strictly sequential
left-to-right accumulation that a scalar loop reproduces exactly — rather
than BLAS ``dot`` (whose blocked accumulation order is implementation
defined), and every scatter uses :func:`numpy.add.at` (applies updates in
index order) mirrored by an in-order loop.  The C file is compiled with
``-ffp-contract=off`` and without ``-ffast-math``: no FMA contraction, no
reassociation.

Both formulations of ridge regression share one update rule::

    delta_j = (target[j] - <a_j, v> - N*lam * coef[j]) * inv_denom[j]

with ``target = A^T y`` / ``v = w`` for the primal and ``target = lam*y`` /
``v = wbar`` for the dual, so one kernel pair serves both bindings.
"""

from __future__ import annotations

import numpy as np

from ..native import address, check_structure, load_native
from .kernels import _epoch_gather

__all__ = [
    "NativeBinding",
    "NumpyBinding",
    "auto_bucket_size",
    "bucket_bounds",
    "bucket_pass_numpy",
    "exact_epoch_numpy",
]

_INT64_BYTES = np.dtype(np.int64).itemsize


def auto_bucket_size(n_coords: int, n_threads: int) -> int:
    """Default bucket size for a problem of ``n_coords`` coordinates.

    SySCD sizes buckets for the cache, but on small problems the binding
    constraint is *staleness*: each merge period applies up to
    ``n_threads * bucket_size`` updates computed against a common snapshot,
    and once that window is a large fraction of the coordinates the summed
    corrections overshoot (heavily overlapping coordinates double-count
    each other's progress and the trajectory can diverge).  Keeping the
    window at ~1/16 of the coordinates holds threaded objectives within a
    fraction of a percent of the sequential trajectory on the shipped
    datasets; 256 caps the bucket's gather working set at cache-friendly
    sizes, and the floor of 8 keeps vectorized passes worthwhile.
    """
    if n_threads < 1:
        raise ValueError("n_threads must be >= 1")
    return max(8, min(256, n_coords // (16 * n_threads)))


def bucket_bounds(n_coords: int, bucket_size: int) -> np.ndarray:
    """Edges of the contiguous bucket partition of ``range(n_coords)``.

    Returns an int64 array ``edges`` with ``edges[0] == 0`` and
    ``edges[-1] == n_coords``; bucket ``b`` covers positions
    ``edges[b]:edges[b+1]`` of the epoch permutation.  Every position lands
    in exactly one bucket (the partition property the hypothesis tests
    pin), and only the last bucket may be short.
    """
    if bucket_size < 1:
        raise ValueError("bucket_size must be >= 1")
    if n_coords < 0:
        raise ValueError("n_coords must be non-negative")
    return np.append(
        np.arange(0, n_coords, bucket_size, dtype=np.int64),
        np.int64(n_coords),
    )


# ---------------------------------------------------------------------------
# numpy backend (the bitwise reference)
# ---------------------------------------------------------------------------


def exact_epoch_numpy(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    target: np.ndarray,
    inv_denom: np.ndarray,
    nlam: float,
    coef: np.ndarray,
    shared: np.ndarray,
    order: np.ndarray,
) -> None:
    """Exact Algorithm-1 pass over ``order``: every update sees fresh state.

    This is SySCD's single-thread reference semantics; the threaded path
    must agree with it on per-epoch objectives to tolerance.  The dot is a
    cumsum prefix (sequential accumulation) so the C twin matches
    bitwise.
    """
    for j in order:
        lo = indptr[j]
        hi = indptr[j + 1]
        if lo == hi:
            dot = 0.0
        else:
            idx = indices[lo:hi]
            v = data[lo:hi]
            dot = np.cumsum(v * shared[idx])[-1]
        delta = (target[j] - dot - nlam * coef[j]) * inv_denom[j]
        coef[j] += delta
        if lo != hi:
            shared[idx] += v * delta


def bucket_pass_numpy(
    e_idx: np.ndarray,
    e_val: np.ndarray,
    seg_ptr: np.ndarray,
    coords: np.ndarray,
    target: np.ndarray,
    inv_denom: np.ndarray,
    nlam: float,
    coef: np.ndarray,
    replica: np.ndarray,
) -> None:
    """One bucket's updates against a private replica (stale within bucket).

    All inner products read ``replica`` as of bucket start, then every
    coordinate's update is applied — the same chunk framing as the async
    kernels, but writing a thread-private replica so no update is ever
    lost.  ``e_idx``/``e_val``/``seg_ptr`` are the bucket's slice of the
    epoch gather; ``coords`` are the coordinate ids (unique within an
    epoch permutation, so the fancy ``coef`` update has no duplicates).
    """
    prods = e_val * replica[e_idx]
    prefix = np.empty(prods.shape[0] + 1, dtype=np.float64)
    prefix[0] = 0.0
    np.cumsum(prods, dtype=np.float64, out=prefix[1:])
    dots = prefix[seg_ptr[1:]] - prefix[seg_ptr[:-1]]
    deltas = (target[coords] - dots - nlam * coef[coords]) * inv_denom[coords]
    coef[coords] += deltas
    np.add.at(replica, e_idx, e_val * np.repeat(deltas, np.diff(seg_ptr)))


# ---------------------------------------------------------------------------
# per-epoch bindings: one interface over both backends
# ---------------------------------------------------------------------------


class NumpyBinding:
    """The numpy reference kernels bound to one problem's arrays.

    ``bind_exact(coef, shared, perm)`` returns ``run(lo, hi)``, the exact
    pass over ``perm[lo:hi]``; ``bind_buckets(coef, perm, edges, assigned)``
    returns ``run(t, lo, hi)``, thread ``t``'s buckets ``assigned[t][lo:hi]``
    against ``replicas[t]``.  Both are bound once per epoch and used only
    while that epoch's arrays are alive.
    """

    def __init__(self, indptr, indices, data, target, inv_denom, nlam, replicas):
        self._problem = (indptr, indices, data, target, inv_denom, nlam)
        self._replicas = replicas

    def bind_exact(self, coef, shared, perm):
        problem = self._problem

        def run(lo: int, hi: int) -> None:
            exact_epoch_numpy(*problem, coef, shared, perm[lo:hi])

        return run

    def bind_buckets(self, coef, perm, edges, assigned):
        indptr, indices, data, target, inv_denom, nlam = self._problem
        e_idx, e_val, eptr = _epoch_gather(indptr, indices, data, perm)
        replicas = self._replicas

        def run(t: int, lo: int, hi: int) -> None:
            replica = replicas[t]
            for b in assigned[t][lo:hi]:
                first, last = edges[b], edges[b + 1]
                a, z = int(eptr[first]), int(eptr[last])
                bucket_pass_numpy(
                    e_idx[a:z], e_val[a:z], eptr[first:last + 1] - a,
                    perm[first:last], target, inv_denom, nlam, coef, replica,
                )

        return run


class NativeBinding:
    """The C kernels bound to one problem's arrays; same interface as numpy.

    Foreign code handed a wrong dtype or an out-of-range index corrupts
    memory instead of raising, so every array is checked before its
    address is taken: the problem arrays and replicas once here, the
    caller's ``coef``/``shared``/``perm`` once per epoch (dtype, C order,
    length, index bounds).  ``edges`` and ``assigned`` are the driver's own
    bucket partition (:func:`bucket_bounds` widths are at most
    ``bucket_size``, the per-thread scratch size).  Each bucket ``run``
    is one foreign call.
    """

    def __init__(self, indptr, indices, data, target, inv_denom, nlam, replicas,
                 bucket_size: int):
        lib = load_native()
        n_minor = check_structure(indptr, indices)
        n_coords = indptr.shape[0] - 1
        shared_len = replicas[0].shape[0]
        head = (
            address(indptr, np.int64, "indptr"),
            address(indices, np.int64, "indices"),
            address(data, np.float64, "data", indices.shape[0]),
            address(target, np.float64, "target", n_coords),
            address(inv_denom, np.float64, "inv_denom", n_coords),
            float(nlam),
        )
        if n_minor > shared_len:
            raise ValueError(
                f"native SySCD kernel: indices outside [0, {shared_len})"
            )
        self._scratch = np.empty((len(replicas), max(int(bucket_size), 1)))
        self._threads = [
            head + (
                address(replica, np.float64, "replica", shared_len, writeable=True),
                address(scratch, np.float64, "scratch"),
            )
            for replica, scratch in zip(replicas, self._scratch)
        ]
        # the arrays behind every address above stay alive with the binding
        self._arrays = (indptr, indices, data, target, inv_denom, replicas)
        self._head = head
        self._exact = lib.syscd_exact_pass
        self._bucket = lib.syscd_bucket_chunk
        self.n_coords = n_coords
        self.shared_len = shared_len

    def _perm(self, perm) -> int:
        addr = address(perm, np.int64, "perm")
        if perm.shape[0] and (perm.min() < 0 or perm.max() >= self.n_coords):
            raise ValueError(
                f"native SySCD kernel: perm outside [0, {self.n_coords})"
            )
        return addr

    def _coef(self, coef) -> int:
        return address(coef, np.float64, "coef", self.n_coords, writeable=True)

    def bind_exact(self, coef, shared, perm):
        args = self._head + (
            self._coef(coef),
            address(shared, np.float64, "shared", self.shared_len, writeable=True),
        )
        base = self._perm(perm)
        fn = self._exact

        def run(lo: int, hi: int) -> None:
            fn(*args, base + _INT64_BYTES * int(lo), int(hi) - int(lo))

        return run

    def bind_buckets(self, coef, perm, edges, assigned):
        tail = (self._coef(coef), self._perm(perm), address(edges, np.int64, "edges"))
        calls = [
            (head + tail, address(a, np.int64, "assigned"), a.shape[0])
            for head, a in zip(self._threads, assigned)
        ]
        fn = self._bucket

        def run(t: int, lo: int, hi: int) -> None:
            args, base, size = calls[t]
            count = min(hi, size) - lo
            if count > 0:
                fn(*args, base + _INT64_BYTES * lo, count)

        return run
