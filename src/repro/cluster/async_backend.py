"""The asynchronous parameter-server CommBackend (Li et al. [6]).

The paper contrasts its synchronous scheme with the asynchronous
parameter-server alternative: "a method was proposed whereby worker nodes
perform stochastic updates of a local model and asynchronously communicate
their model updates to a parameter server".  This backend implements that
alternative *on the runtime's CommBackend seam*, so sync vs async is a
configuration flag of :class:`~repro.core.distributed.DistributedSCD`
rather than a separate engine:

* the runtime's ``shared`` vector is the server state;
* the workers are the engine's one worker pool
  (:class:`~repro.core.distributed._ScdWorkerPool`), bound, partitioned,
  priced, traced and repartitioned exactly as under ``comm="sync"`` — only
  their RNG seeds carry their own salt — so the backend owns nothing but the
  schedule: per-worker snapshots, staleness counters and the clock;
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
:meth:`resize` — the pool's state-preserving repartition: departing workers'
coordinates are reassigned with their learned values preserved, joiners
start from the current server state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .comm import SimCommunicator
from .runtime import RoundOutcome

if TYPE_CHECKING:
    from ..core.distributed import _ScdWorkerPool

__all__ = ["AsyncParamServerBackend"]


class AsyncParamServerBackend:
    """CommBackend running the asynchronous parameter-server schedule.

    The workers are the engine's worker pool (``pool``, the
    ``_ScdWorkerPool`` every backend binds through); this backend keeps
    only the schedule: per-worker snapshots, staleness counters and the
    modelled clock.

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
        pool: _ScdWorkerPool,
        *,
        batch_fraction: float = 1 / 16,
        comm_overlap: float = 0.9,
        staleness_bound: int = 0,
    ) -> None:
        if not 0.0 < batch_fraction <= 1.0:
            raise ValueError("batch_fraction must be in (0, 1]")
        if not 0.0 <= comm_overlap <= 1.0:
            raise ValueError("comm_overlap must be in [0, 1]")
        if staleness_bound < 0:
            raise ValueError("staleness_bound must be >= 0")
        self.comm = comm
        self.pool = pool
        self.batch_fraction = float(batch_fraction)
        self.comm_overlap = float(comm_overlap)
        self.staleness_bound = int(staleness_bound)
        self.cycles_per_epoch = int(np.ceil(1.0 / self.batch_fraction))
        #: each worker's last pulled shared vector (None: pull at next batch)
        self._snapshots: list[np.ndarray | None] = []
        self._stale: list[int] = []
        #: cumulative modelled seconds; per-cycle accumulation order matches
        #: the retired engine's ``sim_time += cycle_s`` bitwise
        self.sim_seconds = 0.0
        self._compute_component = "compute_host"

    @property
    def n_workers(self) -> int:
        return self.pool.n_workers

    def install(self, tracer) -> None:
        self.comm.metrics = tracer.metrics if tracer.enabled else None

    def _reset_schedule(self) -> None:
        """Every worker pulls at its next batch; staleness restarts at 0."""
        k = len(self.pool.workers)
        self._snapshots = [None] * k
        self._stale = [0] * k

    def open(self, problem, tracer) -> None:
        self.pool.bind(problem, tracer)
        self._reset_schedule()

    # -- elastic membership -------------------------------------------------
    def resize(self, problem, tracer, n_workers: int, capacities=None) -> int:
        """Repartition to ``n_workers`` ranks, preserving learned weights.

        The pool re-deals the coordinates (capacity-proportionally when
        measured capacities are given) and every worker restarts from the
        assembled global model with a fresh snapshot pulled at its next
        batch.  Staleness counters reset — a repartition is a
        synchronization point.
        """
        self.pool.repartition(problem, tracer, n_workers, capacities)
        self.comm.n_workers = len(self.pool.workers)
        self._reset_schedule()
        return 0  # pushes are atomic: no buffered updates to invalidate

    def partition_sizes(self) -> list[int]:
        return self.pool.partition_sizes()

    # -- the asynchronous epoch ---------------------------------------------
    def run_round(
        self, epoch, shared, plan, report, policy, ledger, comm_bytes, needs_stats
    ) -> RoundOutcome:
        out = RoundOutcome()
        workers = self.pool.workers
        snapshots = self._snapshots
        for rank, snap in enumerate(snapshots):
            if snap is None:
                snapshots[rank] = shared.copy()
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
                bound = wk.bound
                n_batch = max(
                    1, int(round(self.batch_fraction * wk.coords.shape[0]))
                )
                perm = wk.stream.take(n_batch)
                local_view = snapshots[rank].astype(bound.dtype)
                before = local_view.copy()
                bound.run_epoch(wk.weights, local_view, perm, wk.rng)
                delta = local_view.astype(np.float64) - before.astype(np.float64)
                # push: atomic server-side application (all updates land)
                shared += delta
                for other in active:
                    if other != rank:
                        self._stale[other] += 1
                if self._stale[rank] > self.staleness_bound:
                    # pull: fresh snapshot for the worker's next batch
                    snapshots[rank] = shared.copy()
                    self._stale[rank] = 0
                    any_pull = True
                else:
                    # within the staleness bound: skip the pull, fold only
                    # the worker's own delta (it computed it) into the stale
                    # snapshot; with bound=0 this branch is reached only when
                    # no other push intervened, where it equals a pull
                    snapshots[rank] = snapshots[rank] + delta
                batch_s = wk.epoch_compute_s * self.batch_fraction
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
    def gap_objective(self, problem) -> tuple[float, float]:
        return self.pool.gap_objective(problem)

    def global_model(self, problem, shared: np.ndarray) -> np.ndarray:
        return self.pool.global_model(problem, shared)

    def close(self) -> None:
        self.pool.close()
