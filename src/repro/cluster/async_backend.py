"""The asynchronous parameter-server CommBackend (Li et al. [6]).

The paper contrasts its synchronous scheme with the asynchronous
parameter-server alternative: "a method was proposed whereby worker nodes
perform stochastic updates of a local model and asynchronously communicate
their model updates to a parameter server".  This backend implements that
alternative *on the runtime's CommBackend seam*, so sync vs async is a
configuration flag of :class:`~repro.core.distributed.DistributedSCD`
rather than a separate engine:

* the runtime's ``shared`` vector is the server state;
* each scheduling cycle, every worker (1) computes a *batch* of coordinate
  updates against its last pulled snapshot, (2) pushes the shared-vector
  delta (applied atomically — no update is lost), (3) pulls a fresh snapshot
  when its staleness exceeds ``staleness_bound`` server applications by
  other workers (0 = pull every batch, the classic K-1-batch staleness of a
  round-robin schedule);
* there is no barrier, so the modelled wall-clock per cycle is
  ``max(batch compute) + (1 - comm_overlap) * exposed comm`` — pushes/pulls
  overlap with computation, which is how asynchronous designs hide the
  communication the synchronous Algorithm 3 pays additively.

Because the backend declares ``asynchronous = True``, the runtime skips the
Reduce/gamma/Broadcast aggregation path entirely: the backend mutates the
shared vector in place over ``ceil(1 / batch_fraction)`` cycles per epoch,
books its own ledger phases, and advances its own simulated clock (the
runtime reads ``sim_seconds`` back).  With ``staleness_bound=0`` the cycle
schedule, RNG draws and float accumulation order reproduce the retired
standalone parameter-server engine bitwise — pinned by the ``async-dual-k3``
runtime golden.

Fault semantics are narrower than the synchronous path: the server applies
pushes atomically, so drop/stale-update faults cannot occur by construction;
only *dropout* (a worker offline for the whole epoch) and *straggler*
multipliers (slowed batches) apply.  Elastic membership is supported via
:meth:`resize` — departing workers' coordinates are reassigned with their
learned values preserved, joiners start from the current server state.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..solvers.base import KernelFactory
from .comm import SimCommunicator
from .partition import random_partition
from .runtime import PermutationStream, RoundOutcome, scatter_weights
from .smart_partition import load_proportional_partition

__all__ = ["AsyncParamServerBackend"]


class AsyncParamServerBackend:
    """CommBackend running the asynchronous parameter-server schedule.

    batch_fraction:
        Fraction of a worker's local coordinates per push/pull batch.
        Smaller batches mean fresher snapshots (less staleness) but more
        communication events.
    comm_overlap:
        Fraction of each batch's push+pull time hidden behind computation
        (double buffering); 1.0 models perfect overlap, 0.0 a fully
        serialized worker loop.
    staleness_bound:
        Maximum server applications by *other* workers a snapshot may lag
        before the worker pulls a fresh one.  0 pulls after every push (the
        retired engine's behavior, bitwise); s > 0 skips pulls while the
        bound holds, trading staleness for exposed pull bandwidth.
    """

    models_time = True
    asynchronous = True
    elastic = True

    def __init__(
        self,
        comm: SimCommunicator,
        factory_for: Callable[[int], KernelFactory],
        formulation: str,
        *,
        batch_fraction: float = 1 / 16,
        comm_overlap: float = 0.9,
        staleness_bound: int = 0,
        paper_scale=None,
        seed: int = 0,
        on_label: Callable[[str], None] | None = None,
    ) -> None:
        if not 0.0 < batch_fraction <= 1.0:
            raise ValueError("batch_fraction must be in (0, 1]")
        if not 0.0 <= comm_overlap <= 1.0:
            raise ValueError("comm_overlap must be in [0, 1]")
        if staleness_bound < 0:
            raise ValueError("staleness_bound must be >= 0")
        self.comm = comm
        self.factory_for = factory_for
        self.formulation = formulation
        self.batch_fraction = float(batch_fraction)
        self.comm_overlap = float(comm_overlap)
        self.staleness_bound = int(staleness_bound)
        self.paper_scale = paper_scale
        self.seed = int(seed)
        self.on_label = on_label
        self.cycles_per_epoch = int(np.ceil(1.0 / self.batch_fraction))
        self.workers: list[dict] = []
        self._stale: list[int] = []
        #: cumulative modelled seconds; per-cycle accumulation order matches
        #: the retired engine's ``sim_time += cycle_s`` bitwise
        self.sim_seconds = 0.0
        self._compute_component = "compute_host"
        self._generation = 0
        self._problem = None

    @property
    def n_workers(self) -> int:
        return len(self.workers) if self.workers else self.comm.n_workers

    # -- construction (mirrors the retired engine's _build exactly) ---------
    def _matrix_and_total(self, problem):
        if self.formulation == "primal":
            return problem.dataset.csc, problem.m
        return problem.dataset.csr, problem.n

    def _bind_worker(
        self, rank: int, coords: np.ndarray, matrix, n_total: int,
        total_nnz: int, problem, rng_offset: int, weights=None,
    ) -> dict:
        local = matrix.take_major(coords)
        factory = self.factory_for(rank)
        if self.paper_scale is not None:
            factory.timing_workload = self.paper_scale.worker_workload(
                self.formulation,
                coords.shape[0] / n_total,
                (local.nnz / total_nnz) if total_nnz else 0.0,
            )
        if self.formulation == "primal":
            bound = factory.bind_primal(local, problem.y, problem.n, problem.lam)
        else:
            bound = factory.bind_dual(
                local, problem.y[coords], problem.n, problem.lam
            )
        if self.on_label is not None:
            self.on_label(factory.name)
        rng = np.random.default_rng(self.seed + rng_offset + rank)
        if weights is None:
            w = np.zeros(coords.shape[0], dtype=bound.dtype)
        else:
            w = weights[coords].astype(bound.dtype)
        return {
            "coords": coords,
            "bound": bound,
            "weights": w,
            "rng": rng,
            # shares ``rng`` with the kernel, like the sync runtime
            "stream": PermutationStream(coords.shape[0], rng),
            "snapshot": None,
            "epoch_seconds": bound.epoch_seconds(),
        }

    def install(self, tracer) -> None:
        self.comm.metrics = tracer.metrics if tracer.enabled else None

    def open(self, problem, tracer) -> None:
        self._problem = problem
        rng = np.random.default_rng(self.seed)
        matrix, n_total = self._matrix_and_total(problem)
        parts = random_partition(n_total, self.comm.n_workers, rng)
        total_nnz = matrix.nnz
        self.workers = [
            self._bind_worker(
                rank, coords, matrix, n_total, total_nnz, problem, 2000
            )
            for rank, coords in enumerate(parts)
        ]
        self._stale = [0] * len(self.workers)

    # -- elastic membership -------------------------------------------------
    def resize(self, problem, tracer, n_workers: int, capacities=None) -> int:
        """Repartition to ``n_workers`` ranks, preserving learned weights.

        The global model is assembled from the current pool, coordinates are
        re-dealt (capacity-proportionally when measured capacities are
        given), and every worker restarts from the assembled values with a
        fresh snapshot pulled at its next batch.  Staleness counters reset —
        a repartition is a synchronization point.
        """
        matrix, n_total = self._matrix_and_total(problem)
        global_w = scatter_weights(
            ((wk["coords"], wk["weights"]) for wk in self.workers), n_total
        )
        self._generation += 1
        rng = np.random.default_rng(
            self.seed + 7_000_000 + 10_000 * self._generation
        )
        if capacities is not None:
            parts = load_proportional_partition(n_total, capacities, rng)
        else:
            parts = random_partition(n_total, n_workers, rng)
        total_nnz = matrix.nnz
        self.workers = [
            self._bind_worker(
                rank, coords, matrix, n_total, total_nnz, problem,
                2000 + 100_000 * self._generation, weights=global_w,
            )
            for rank, coords in enumerate(parts)
        ]
        self.comm.n_workers = len(self.workers)
        self._stale = [0] * len(self.workers)
        return 0  # pushes are atomic: no buffered updates to invalidate

    def partition_sizes(self) -> list[int]:
        return [wk["coords"].shape[0] for wk in self.workers]

    # -- the asynchronous epoch ---------------------------------------------
    def run_round(
        self, epoch, shared, plan, report, policy, ledger, comm_bytes, needs_stats
    ) -> RoundOutcome:
        out = RoundOutcome()
        workers = self.workers
        for wk in workers:
            if wk["snapshot"] is None:
                wk["snapshot"] = shared.copy()
        active = [
            rank
            for rank in range(len(workers))
            if plan is None or not plan[rank].dropout
        ]
        if report is not None:
            report.dropouts += len(workers) - len(active)
            for rank in active:
                if plan is not None and plan[rank].straggler_multiplier > 1.0:
                    report.stragglers += 1
        # point-to-point push + pull per batch per worker; K workers push to
        # one server whose NIC serializes them within a cycle
        pull_s = self.comm.link.transfer_seconds(comm_bytes)
        push_pull_s = 2.0 * pull_s
        for _cycle in range(self.cycles_per_epoch):
            max_batch = 0.0
            any_pull = False
            for rank in active:
                wk = workers[rank]
                bound = wk["bound"]
                n_batch = max(
                    1,
                    int(round(self.batch_fraction * wk["coords"].shape[0])),
                )
                perm = wk["stream"].take(n_batch)
                local_view = wk["snapshot"].astype(bound.dtype)
                before = local_view.copy()
                bound.run_epoch(wk["weights"], local_view, perm, wk["rng"])
                delta = local_view.astype(np.float64) - before.astype(np.float64)
                # push: atomic server-side application (all updates land)
                shared += delta
                for other in active:
                    if other != rank:
                        self._stale[other] += 1
                if self._stale[rank] > self.staleness_bound:
                    # pull: fresh snapshot for the worker's next batch
                    wk["snapshot"] = shared.copy()
                    self._stale[rank] = 0
                    any_pull = True
                else:
                    # within the staleness bound: skip the pull, fold only
                    # the worker's own delta (it computed it) into the stale
                    # snapshot; with bound=0 this branch is reached only when
                    # no other push intervened, where it equals a pull
                    wk["snapshot"] = wk["snapshot"] + delta
                batch_s = wk["epoch_seconds"] * self.batch_fraction
                if plan is not None:
                    batch_s *= plan[rank].straggler_multiplier
                max_batch = max(max_batch, batch_s)
                self._compute_component = bound.timing.component
                out.n_updates += perm.shape[0]
                out.worker_wall[rank] = out.worker_wall.get(rank, 0.0) + batch_s
            if len(workers) > 1 and active:
                cycle_comm = push_pull_s if any_pull else pull_s
            else:
                cycle_comm = 0.0
            comm_exposed = (1.0 - self.comm_overlap) * cycle_comm
            cycle_s = max_batch + comm_exposed
            ledger.add(self._compute_component, max_batch)
            ledger.add("comm_network", comm_exposed)
            self.sim_seconds += cycle_s
        out.compute_component = self._compute_component
        out.any_computed = bool(active)
        out.n_arrived = len(active)
        return out

    # -- protocol surface the async branch never exercises ------------------
    def reduce(self, parts, like):  # pragma: no cover - sync-path only
        return self.comm.reduce_sum_partial(parts, like=like)

    def finish_round(self, gamma, outcome) -> None:
        pass  # updates were applied at push time

    def network_seconds(self, nbytes: int, n_scalars: int) -> float:
        return 0.0  # exposed comm is booked per cycle inside run_round

    # -- monitoring ----------------------------------------------------------
    def global_weights(self, problem) -> np.ndarray:
        n_coords = problem.m if self.formulation == "primal" else problem.n
        return scatter_weights(
            ((wk["coords"], wk["weights"]) for wk in self.workers), n_coords
        )

    def gap_objective(self, problem) -> tuple[float, float]:
        from ..objectives.ridge import gap_and_objective

        return gap_and_objective(
            problem, self.global_weights(problem), self.formulation
        )

    def global_model(self, problem, shared: np.ndarray) -> np.ndarray:
        return self.global_weights(problem)

    def close(self) -> None:
        pass
