"""SySCD: system-aware parallel coordinate descent on real CPU threads.

The paper's asynchronous CPU baselines (:mod:`repro.solvers.ascd`) *model*
thread scaling; this solver *measures* it.  Following SySCD (Ioannou,
Mendler-Dünner & Parnell, NeurIPS 2019 — PAPERS.md), one epoch runs as:

1. the epoch permutation is partitioned into contiguous cache-sized
   *buckets* (:func:`~repro.solvers.syscd_kernels.bucket_bounds`);
2. the bucket order is reshuffled and dealt round-robin to ``n_threads``
   workers — the bucket-reshuffle epoch boundary;
3. workers process ``merge_every`` buckets per *period* against a private
   replica of the shared vector (no atomics, no lost updates);
4. at each period boundary the main thread merges the replicas back:
   ``merge="sum"`` applies every thread's delta (the convergence-safe
   sum-correction merge, keeping ``w == A beta`` exactly), ``merge="mean"``
   averages them (damped, CoCoA-style).

With ``n_threads=1`` the solver takes the exact Algorithm-1 path instead —
sequential updates against fresh state, through the same
:class:`~repro.solvers.syscd_kernels.ExactPass` as
:class:`~repro.solvers.scd.SequentialSCD`, so the two are bitwise equal.
That path is the **bitwise reference** the golden-fingerprint tests pin;
threaded runs must agree with it on per-epoch objectives to tolerance.
Everything stochastic derives from the driver's permutation stream, and the
merge order is fixed by thread id, so threaded runs are deterministic too
(for a fixed thread count) regardless of OS scheduling.

Observability: periods are billed through ``syscd.bucket`` / ``syscd.merge``
spans (at ``detail="wave"``, following the GPU wave-span precedent) and the
``syscd.*`` metrics (bucket count, merges, merge divergence, bucket
imbalance, threads) are emitted every epoch.  Workers never touch the
tracer — it is not thread-safe — so all instrumentation happens on the
main thread.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .. import native
from ..cpu import XEON_8C, CpuSpec
from ..cpu.spec import _base_epoch_seconds
from ..obs import NULL_TRACER
from ..perf.timing import EpochWorkload
from ..sparse import CscMatrix, CsrMatrix
from .base import BoundKernel, ScdSolver
from .syscd_kernels import (
    ExactPass,
    NativeBinding,
    NumpyBinding,
    auto_bucket_size,
    available_backend,
    bucket_bounds,
    dual_terms,
    primal_terms,
)

__all__ = ["SyscdCpuTiming", "SyscdKernelFactory", "SySCD"]

#: SySCD's measured thread scaling is near-linear (its bucketed, merge-based
#: design removes the atomics that cap A-SCD at T^0.25); 0.9 keeps the model
#: sub-linear and monotone like the other CPU laws
SYSCD_SCALING = 0.9

# process-wide worker pools, one per worker count: epochs are frequent and
# short, so pool startup must not be billed to every epoch
_POOLS: dict[int, ThreadPoolExecutor] = {}


def _get_pool(n_workers: int) -> ThreadPoolExecutor:
    pool = _POOLS.get(n_workers)
    if pool is None:
        pool = ThreadPoolExecutor(
            max_workers=n_workers, thread_name_prefix=f"syscd-{n_workers}"
        )
        _POOLS[n_workers] = pool
    return pool


class SyscdCpuTiming:
    """Modelled epoch cost for the bucketed replica-merge execution.

    Compute scales as ``T^0.9`` over the sequential base; each merge streams
    ``n_threads`` replica deltas of ``shared_len`` elements through the
    sequential nnz rate.  Only the *modelled* clock uses this — the bench
    suite measures the real one.
    """

    component = "compute_host"

    def __init__(
        self,
        spec: CpuSpec = XEON_8C,
        *,
        n_threads: int = 4,
        bucket_size: int = 64,
        merge_every: int = 1,
    ) -> None:
        self.spec = spec
        self.n_threads = int(n_threads)
        self.bucket_size = int(bucket_size)
        self.merge_every = int(merge_every)
        self._speedup = float(n_threads) ** SYSCD_SCALING

    @property
    def speedup(self) -> float:
        return self._speedup

    def merges_per_epoch(self, n_coords: int) -> int:
        n_buckets = -(-n_coords // self.bucket_size)
        per_thread = -(-n_buckets // self.n_threads)
        return -(-per_thread // self.merge_every)

    def epoch_seconds(self, workload: EpochWorkload) -> float:
        compute = _base_epoch_seconds(self.spec, workload) / self._speedup
        merges = self.merges_per_epoch(workload.n_coords)
        merge_cost = (
            merges * self.n_threads * workload.shared_len / self.spec.seq_nnz_per_sec
        )
        return compute + merge_cost


class SyscdKernelFactory:
    """Binds the SySCD bucketed epoch to either ridge formulation.

    Parameters
    ----------
    n_threads:
        Worker threads.  ``1`` selects the exact sequential reference path.
    bucket_size:
        Coordinates per bucket; buckets are the unit of work dealt to
        threads and the staleness window of the replica inner products.
        ``None`` (the default) sizes buckets per problem at bind time via
        :func:`~repro.solvers.syscd_kernels.auto_bucket_size`, keeping the
        per-period staleness window a small fraction of the coordinates.
    merge_every:
        Buckets each thread processes between replica merges.  ``1`` (the
        default) keeps the staleness window one bucket per thread, which
        holds threaded trajectories within a fraction of a percent of the
        sequential objective on the bench dataset.
    merge:
        ``"sum"`` (convergence-safe sum-correction) or ``"mean"`` (replica
        averaging).

    The bucket passes run ``syscd.c`` when the kernel library
    (:mod:`repro.native`) loads and its numpy twin otherwise, with no
    option; the two are bit-identical, and :attr:`backend` says which runs.
    """

    def __init__(
        self,
        spec: CpuSpec = XEON_8C,
        *,
        n_threads: int = 4,
        bucket_size: int | None = None,
        merge_every: int = 1,
        merge: str = "sum",
        timing_workload: EpochWorkload | None = None,
    ) -> None:
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        if n_threads > spec.max_threads:
            raise ValueError(
                f"{spec.name} supports at most {spec.max_threads} threads"
            )
        if bucket_size is not None and bucket_size < 1:
            raise ValueError("bucket_size must be >= 1 (or None for auto)")
        if merge_every < 1:
            raise ValueError("merge_every must be >= 1")
        if merge not in ("sum", "mean"):
            raise ValueError(f"unknown merge {merge!r}; use 'sum' or 'mean'")
        self.spec = spec
        self.n_threads = int(n_threads)
        self.bucket_size = None if bucket_size is None else int(bucket_size)
        self.merge_every = int(merge_every)
        self.merge = merge
        self.backend = available_backend()
        self.timing_workload = timing_workload
        self.tracer = NULL_TRACER
        self.name = f"SySCD({self.n_threads} threads, {self.backend})"

    # -- epoch execution ----------------------------------------------------

    def _make_run_epoch(
        self, indptr, indices, data, target, inv_denom, nlam, shared_len, bucket_size
    ):
        n_threads = self.n_threads
        merge_every = self.merge_every
        mean_merge = self.merge == "mean"
        inv_t = 1.0 / n_threads
        factory = self  # tracer is installed on the factory after binding
        if n_threads == 1:
            exact = ExactPass(
                indptr, indices, data, target, inv_denom, nlam, shared_len,
                self.backend,
            )
        else:
            replicas = [
                np.zeros(shared_len, dtype=np.float64) for _ in range(n_threads)
            ]
            problem = (indptr, indices, data, target, inv_denom, nlam, replicas)
            native.check_structure(indptr, indices)
            if self.backend == "native":
                kernels = NativeBinding(*problem, bucket_size)
            else:
                kernels = NumpyBinding(*problem)

        def run_exact(coef, shared, perm, rng):
            tracer = factory.tracer
            edges = bucket_bounds(perm.shape[0], bucket_size)
            n_buckets = edges.shape[0] - 1
            run = exact.bind(coef, shared, perm)
            if tracer.enabled and tracer.detail == "wave":
                for b in range(n_buckets):
                    with tracer.span(
                        "syscd.bucket", category="solver", bucket=b, threads=1
                    ):
                        run(edges[b], edges[b + 1])
            else:
                # bucket edges do not change exact semantics: one ordered pass
                run(0, perm.shape[0])
            tracer.count("syscd.buckets", n_buckets)
            tracer.gauge("syscd.threads", 1)
            return 0

        def run_threaded(coef, shared, perm, rng):
            tracer = factory.tracer
            period_spans = tracer.enabled and tracer.detail == "wave"
            n = perm.shape[0]
            edges = bucket_bounds(n, bucket_size)
            n_buckets = edges.shape[0] - 1
            # bucket-reshuffle epoch boundary: a fresh bucket order each
            # epoch, dealt round-robin so thread assignments rotate too
            order = rng.permutation(n_buckets)
            assigned = [
                np.ascontiguousarray(order[t::n_threads]) for t in range(n_threads)
            ]
            n_periods = -(-assigned[0].shape[0] // merge_every)
            run = kernels.bind_buckets(coef, perm, edges, assigned)
            pool = _get_pool(n_threads - 1)

            def run_period(lo, hi):
                # thread 0's chunk runs here, saving one pool hand-off
                futures = [
                    pool.submit(run, t, lo, hi) for t in range(1, n_threads)
                ]
                try:
                    run(0, lo, hi)
                finally:
                    wait(futures)
                for future in futures:
                    future.result()

            max_divergence = 0.0
            for period in range(n_periods):
                lo, hi = period * merge_every, (period + 1) * merge_every
                for t in range(n_threads):
                    np.copyto(replicas[t], shared)
                if period_spans:
                    with tracer.span(
                        "syscd.bucket", category="solver", period=period,
                        buckets=int(sum(a[lo:hi].shape[0] for a in assigned)),
                        threads=n_threads,
                    ):
                        run_period(lo, hi)
                else:
                    run_period(lo, hi)
                # merge on the main thread, in thread-id order: deterministic
                # independent of how the OS scheduled the workers
                with tracer.span(
                    "syscd.merge", category="solver", period=period
                ) if period_spans else _NULL_CTX:
                    for t in range(n_threads):
                        replicas[t] -= shared
                    if tracer.enabled:
                        for t in range(n_threads):
                            div = float(np.abs(replicas[t]).max(initial=0.0))
                            if div > max_divergence:
                                max_divergence = div
                    if mean_merge:
                        for t in range(n_threads):
                            replicas[t] *= inv_t
                    for t in range(n_threads):
                        shared += replicas[t]

            if tracer.enabled:
                nnz_prefix = np.zeros(n + 1, dtype=np.int64)
                np.cumsum(indptr[perm + 1] - indptr[perm], out=nnz_prefix[1:])
                bucket_nnz = nnz_prefix[edges[1:]] - nnz_prefix[edges[:-1]]
                nnz_per_thread = [float(bucket_nnz[a].sum()) for a in assigned]
                mean_nnz = sum(nnz_per_thread) / n_threads
                tracer.count("syscd.buckets", n_buckets)
                tracer.count("syscd.merges", n_periods)
                tracer.observe("syscd.merge_divergence", max_divergence)
                tracer.gauge(
                    "syscd.bucket_imbalance",
                    max(nnz_per_thread) / mean_nnz if mean_nnz else 1.0,
                )
                tracer.gauge("syscd.threads", n_threads)
            return 0

        return run_exact if n_threads == 1 else run_threaded

    # -- bindings -----------------------------------------------------------

    def _priced(self, workload: EpochWorkload) -> EpochWorkload:
        return self.timing_workload or workload

    def _bucket_size(self, n_coords: int) -> int:
        if self.bucket_size is not None:
            return self.bucket_size
        return auto_bucket_size(n_coords, self.n_threads)

    def _timing(self, bucket_size: int) -> SyscdCpuTiming:
        return SyscdCpuTiming(
            self.spec,
            n_threads=self.n_threads,
            bucket_size=bucket_size,
            merge_every=self.merge_every,
        )

    def bind_primal(
        self, csc: CscMatrix, y: np.ndarray, n_global: int, lam: float
    ) -> BoundKernel:
        csc, target, inv_denom, nlam = primal_terms(csc, y, n_global, lam)
        bucket_size = self._bucket_size(csc.n_major)
        return BoundKernel(
            run_epoch=self._make_run_epoch(
                csc.indptr, csc.indices, csc.data, target, inv_denom, nlam,
                csc.shape[0], bucket_size,
            ),
            workload=self._priced(
                EpochWorkload(
                    n_coords=csc.n_major, nnz=csc.nnz, shared_len=csc.shape[0]
                )
            ),
            timing=self._timing(bucket_size),
            n_coords=csc.n_major,
            shared_len=csc.shape[0],
            dtype=np.dtype(np.float64),
        )

    def bind_dual(
        self, csr: CsrMatrix, y_local: np.ndarray, n_global: int, lam: float
    ) -> BoundKernel:
        csr, target, inv_denom, nlam = dual_terms(csr, y_local, n_global, lam)
        bucket_size = self._bucket_size(csr.n_major)
        return BoundKernel(
            run_epoch=self._make_run_epoch(
                csr.indptr, csr.indices, csr.data, target, inv_denom, nlam,
                csr.shape[1], bucket_size,
            ),
            workload=self._priced(
                EpochWorkload(
                    n_coords=csr.n_major, nnz=csr.nnz, shared_len=csr.shape[1]
                )
            ),
            timing=self._timing(bucket_size),
            n_coords=csr.n_major,
            shared_len=csr.shape[1],
            dtype=np.dtype(np.float64),
        )


class _NullContext:
    """``with`` target used when period spans are disabled."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CTX = _NullContext()


class SySCD(ScdSolver):
    """User-facing SySCD solver (``repro.train(..., solver="syscd")``)."""

    def __init__(
        self,
        formulation: str = "primal",
        *,
        spec: CpuSpec = XEON_8C,
        n_threads: int = 4,
        bucket_size: int | None = None,
        merge_every: int = 1,
        merge: str = "sum",
        seed: int = 0,
    ) -> None:
        super().__init__(
            SyscdKernelFactory(
                spec,
                n_threads=n_threads,
                bucket_size=bucket_size,
                merge_every=merge_every,
                merge=merge,
            ),
            formulation,
            seed,
        )
