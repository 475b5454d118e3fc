"""Distributed SCD over real OS processes (validation backend).

The simulation engine (`repro.core.distributed.DistributedSCD`) executes the
workers' epochs in-process and *models* time.  This facade runs the same
Algorithm 3/4 through the same :class:`~repro.cluster.runtime.ClusterRuntime`
epoch loop, but over a :class:`~repro.cluster.runtime.PipeProcessBackend` —
each worker in its own ``multiprocessing`` process, communicating
shared-vector deltas over pipes: true parallel execution with real
synchronization.

Because both backends run identical kernels with identical precompute and
permutation streams (same seeds, same partitioner), their trajectories must
agree *bitwise*; ``tests/test_runtime.py`` (cross-backend parity) and
``tests/test_mp_cluster.py`` assert exactly that, which is the strongest
available check that the simulated engine's *semantics* (as opposed to its
time model) are faithful.

Scope: sequential-SCD local solvers (the paper's CPU cluster), both
formulations, averaging/adaptive/adding aggregation.  The GPU solvers stay
simulation-only — their device model has no OS-process counterpart.

Shard stores: a ``shards=`` argument aligns the worker partitions to the
store's contiguous shard groups and builds each child's payload by
assembling its group from disk (bit-identical to ``take_major`` over the
same coordinates).  Streaming stops there — child processes hold their
materialized partition for the whole run, because per-epoch re-reads only
exist to *model* cache pressure and real processes have no simulated
clock to bill them against.

Fault injection: the backend honours the *functional* faults of a
:class:`~repro.cluster.faults.FaultInjector` — worker dropout (the child is
simply not asked to run the epoch) and lost updates (drop, stale-as-drop,
and retry exhaustion all exclude the child's delta and tell it to fold
gamma = 0), with the aggregation rescaled over the K' survivors.  Time-only
faults (stragglers, retry latency) have no meaning against real wall-clock
and are ignored here; ``tests/test_faults.py`` exploits the overlap to check
the simulated engine's degraded-mode *semantics* against real processes.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.aggregation import make_aggregator
from ..core.distributed import DistributedTrainResult
from ..objectives.ridge import RidgeProblem, gap_and_objective
from ..solvers.kernels import dual_epoch_sequential, primal_epoch_sequential
from .faults import FaultInjector, FaultSpec, make_fault_injector
from .partition import random_partition
from .runtime import (
    ClusterRuntime,
    FaultPolicy,
    PipeProcessBackend,
    RuntimeProfile,
    plan_partitions,
    sharding_config,
)

if TYPE_CHECKING:
    from ..shards import ShardingConfig, ShardStore

__all__ = ["MpDistributedSCD"]

_MP_PROFILE = RuntimeProfile(
    root_span="mp.train",
    bind_span=False,
    local_compute_span=False,
    aggregate_span=False,
    extras="gamma",
)


def _worker_loop(conn, payload: dict) -> None:
    """Child process: bind the local partition, then serve epoch requests.

    Protocol: parent sends ``("epoch", shared_vector)`` and receives
    ``(dshared, dweights_stats, elapsed_s)``; ``("stop", None)`` exits.
    """
    formulation = payload["formulation"]
    indptr = payload["indptr"]
    indices = payload["indices"]
    data = payload["data"]
    y = payload["y"]
    n_global = payload["n_global"]
    lam = payload["lam"]
    n_local = payload["n_local"]
    rng = np.random.default_rng(payload["perm_seed"])
    weights = np.zeros(n_local)

    nlam = n_global * lam
    # precomputed by the parent through the same matrix routines the
    # simulated factory binds with, so both backends run bitwise-identical
    # kernels (a per-row dot product here would differ in the last ulp)
    y_dots = payload["y_dots"]
    inv_denom = payload["inv_denom"]

    while True:
        msg, shared = conn.recv()
        if msg == "stop":
            conn.close()
            return
        t0 = time.perf_counter()
        local_shared = shared.copy()
        weights_work = weights.copy()
        perm = rng.permutation(n_local)
        if formulation == "primal":
            primal_epoch_sequential(
                indptr, indices, data, y_dots, inv_denom, nlam,
                weights_work, local_shared, perm,
            )
        else:
            dual_epoch_sequential(
                indptr, indices, data, y, inv_denom, lam, nlam,
                weights_work, local_shared, perm,
            )
        dweights = weights_work - weights
        stats = (
            float(weights @ dweights),
            float(dweights @ dweights),
            float(dweights @ y[:n_local]) if formulation == "dual" else 0.0,
        )
        elapsed = time.perf_counter() - t0
        conn.send((local_shared - shared, dweights, stats, elapsed))
        # the parent applies gamma and returns it with the next epoch's
        # broadcast; fold the previous delta lazily
        gamma = conn.recv()
        weights = weights + gamma * dweights


class MpDistributedSCD:
    """Algorithm 3/4 executed across real worker processes.

    Mirrors the simulation engine's constructor where applicable; local
    solvers are sequential SCD (the paper's CPU-cluster configuration).
    """

    def __init__(
        self,
        formulation: str = "dual",
        *,
        n_workers: int = 2,
        aggregation: str = "averaging",
        seed: int = 0,
        mp_context: str | None = None,
        faults: FaultInjector | FaultSpec | str | None = None,
        partitioner=None,
        shards: ShardingConfig | ShardStore | None = None,
        membership=None,
    ) -> None:
        if formulation not in ("primal", "dual"):
            raise ValueError(f"unknown formulation {formulation!r}")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.formulation = formulation
        self.n_workers = int(n_workers)
        self.aggregator = make_aggregator(aggregation)
        self.seed = int(seed)
        self.faults = make_fault_injector(faults)
        self.partitioner = partitioner or random_partition
        self.shards = sharding_config(shards)
        if self.shards is not None:
            axis = "cols" if formulation == "primal" else "rows"
            if self.shards.store.axis != axis:
                raise ValueError(
                    f"{formulation} formulation needs a {axis!r}-axis shard "
                    f"set, got {self.shards.store.axis!r}"
                )
        #: elastic membership is simulation-only; a non-None schedule makes
        #: ClusterRuntime raise its pointed not-supported error at build time
        self.membership = membership
        self._groups: list[list[int]] | None = None
        self._ctx = mp.get_context(mp_context) if mp_context else mp.get_context()
        self.name = (
            f"MpDistributed[SCD x{self.n_workers}, "
            f"{self.aggregator.name}, {formulation}]"
        )

    # -- helpers ------------------------------------------------------------
    def _partitions(self, problem: RidgeProblem) -> list[np.ndarray]:
        n_coords = problem.m if self.formulation == "primal" else problem.n
        if self.shards is not None:
            store = self.shards.store
            if store.n_major != n_coords:
                raise ValueError(
                    f"shard set covers {store.n_major} coordinates, "
                    f"problem has {n_coords}"
                )
            self._groups = store.partition(self.n_workers)
            return [store.coords_of(g) for g in self._groups]
        return plan_partitions(
            n_coords, self.n_workers, self.seed, self.partitioner, None, (0, 0)
        )[0]

    def _payloads(self, problem: RidgeProblem, parts: Sequence[np.ndarray]):
        if self.formulation == "primal":
            matrix = problem.dataset.csc
        else:
            matrix = problem.dataset.csr
        if self.shards is not None and self.shards.store.shape != matrix.shape:
            raise ValueError(
                f"shard set covers a {self.shards.store.shape} matrix, "
                f"problem matrix is {matrix.shape}"
            )
        payloads = []
        for rank, coords in enumerate(parts):
            if self._groups is not None:
                # materialize the child's partition straight from the shard
                # store; contiguous-group assembly is bitwise identical to
                # take_major over the same coordinates
                local, _ = self.shards.store.assemble(self._groups[rank])
            else:
                local = matrix.take_major(coords)
            if local.dtype != np.float64:
                local = local.astype(np.float64)
            y_local = (
                problem.y.astype(np.float64)
                if self.formulation == "primal"
                else problem.y[coords].astype(np.float64)
            )
            nlam = problem.n * problem.lam
            # identical precompute path to SequentialKernelFactory.bind_*:
            # the matrix-level reductions, not per-row dot products, so a
            # child's kernel inputs match the simulated worker's bitwise
            if self.formulation == "primal":
                y_dots = local.rmatvec(y_local)
                inv_denom = 1.0 / (local.col_norms_sq() + nlam)
            else:
                y_dots = None
                inv_denom = 1.0 / (nlam + local.row_norms_sq())
            payloads.append(
                {
                    "formulation": self.formulation,
                    "indptr": local.indptr,
                    "indices": local.indices,
                    "data": local.data,
                    "y": y_local,
                    "y_dots": y_dots,
                    "inv_denom": inv_denom,
                    "n_global": problem.n,
                    "lam": problem.lam,
                    "n_local": coords.shape[0],
                    "perm_seed": self.seed + 1000 + rank,
                }
            )
        return payloads

    # -- training ------------------------------------------------------------------
    def solve(
        self,
        problem: RidgeProblem,
        n_epochs: int,
        *,
        monitor_every: int = 1,
        target_gap: float | None = None,
        tracer=None,
        on_epoch=None,
    ) -> DistributedTrainResult:
        parts = self._partitions(problem)
        payloads = self._payloads(problem, parts)
        shared_len = problem.n if self.formulation == "primal" else problem.m
        n_model = problem.m if self.formulation == "primal" else problem.n
        backend = PipeProcessBackend(
            ctx=self._ctx,
            worker_target=_worker_loop,
            payloads=payloads,
            parts=list(parts),
            n_model_coords=n_model,
            gap_fn=lambda w: gap_and_objective(problem, w, self.formulation),
        )
        runtime = ClusterRuntime(
            backend=backend,
            aggregator=self.aggregator,
            formulation=self.formulation,
            faults=FaultPolicy(
                injector=self.faults,
                # stale updates have no next-round buffer against real
                # processes; they count as lost, like retry exhaustion
                stale_buffering=False,
                count_retry_exhausted=False,
            ),
            profile=_MP_PROFILE,
            name=lambda: self.name,
            membership=self.membership,
        )
        rt = runtime.run(
            problem,
            n_epochs,
            shared_len=shared_len,
            monitor_every=monitor_every,
            target_gap=target_gap,
            tracer=tracer,
            on_epoch=on_epoch,
        )
        return DistributedTrainResult(
            formulation=self.formulation,
            weights=backend.global_weights(),
            shared=rt.shared,
            history=rt.history,
            ledger=rt.ledger,
            partitions=list(parts),
            solver_name=self.name,
            gammas=rt.gammas,
            fault_report=rt.report,
            trace=rt.tracer if rt.tracer.enabled else None,
            metrics=rt.tracer.metrics if rt.tracer.enabled else None,
        )
