"""The unified synchronous-epoch cluster runtime.

The paper's distributed algorithms (Alg. 3, Alg. 4, and the Section V
distributed TPA-SCD composition) are one synchronous scheme — local solve ->
Reduce deltas -> gamma*_t aggregation -> Broadcast -> workers fold
``gamma_t * dmodel``.  This module implements that scheme *once* with six
pluggable seams, and the engine class (`DistributedSCD` with its
``comm="sync" | "process" | "async"`` backends, and its SVM subclass
`DistributedSvm`) is a thin facade that assembles a runtime from parts:

* **Partitioner** — :func:`plan_partitions`: feature/example random (or
  custom) partitions, or shard-group-aligned partitions for out-of-core
  stores;
* **CommBackend** — :class:`InProcessBackend` (workers execute in-process,
  communication priced by :class:`~repro.cluster.comm.SimCommunicator`) vs
  :class:`~repro.cluster.process_backend.PipeProcessBackend` (real
  ``multiprocessing`` workers over pipes, real wall-clock) vs the
  asynchronous
  :class:`~repro.cluster.async_backend.AsyncParamServerBackend`
  (bounded-staleness parameter-server cycles; the runtime skips
  aggregation and takes its clock from the backend); one interface carries
  Reduce/Broadcast plus the adaptive rule's extra scalars, and each backend
  declares its capabilities (``models_time``, ``asynchronous``,
  ``elastic``);
* **LocalSolver** — the :class:`LocalSolver` protocol adapts what a worker
  does between barriers: any bound :class:`KernelFactory` kernel — CPU/GPU
  SCD, or the SVM's SDCA hinge kernel — in the one worker pool every
  backend drives (``core/distributed.py``);
* **AggregationPolicy** — any :class:`~repro.core.aggregation.Aggregator`
  (averaging / adding / adaptive gamma* / scaled sigma'/K);
* **FaultPolicy** — :class:`FaultPolicy` wraps a
  :class:`~repro.cluster.faults.FaultInjector` and fixes the degraded-mode
  semantics (stale updates buffered for the next round vs counted as lost,
  survivor-rescaled aggregation, retry-exhaustion bookkeeping);
* **Membership** — a :class:`~repro.cluster.membership.MembershipSchedule`
  lets workers join/leave between epochs (explicit events, seeded churn,
  dropout-driven eviction) with state-preserving repartitioning, and an
  optional :class:`~repro.cluster.membership.LoadBalancer` re-cuts
  partitions from measured per-rank walls (``docs/elasticity.md``).

The epoch loop, ledger booking (compute / PCIe / reduce+broadcast /
wait_straggler / retry phases), tracer spans, shard streaming hookup,
convergence-history recording and early stopping all live in
:meth:`ClusterRuntime.run`, with one observable surface for every engine: a
``distributed.train`` root span over ``bind`` / ``local_compute`` /
``aggregate`` / ``gap_eval``, and a ``gamma`` history extra (plus
``survivors`` under fault injection) on every synchronous backend.

Bit-identity contract: the operation *order* here is load-bearing —
accumulation order, the float association of the per-epoch time fold
(``epoch_time += net_s + retry_s``) and the exact placement of RNG draws
are all pinned by ``tests/data/runtime_goldens.json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Protocol, Sequence

import numpy as np

from ..core.aggregation import AggregationStats, Aggregator
from ..metrics import ConvergenceHistory, ConvergenceRecord
from ..obs import resolve_tracer
from ..solvers.base import EpochEvent
from .comm import SimCommunicator
from .faults import (
    DEFAULT_RETRY,
    FaultInjector,
    FaultReport,
    RetryPolicy,
    WorkerEpochFaults,
)

if TYPE_CHECKING:
    from ..shards import ShardingConfig, ShardStore

__all__ = [
    "ClusterRuntime",
    "RuntimeResult",
    "FaultPolicy",
    "LocalSolver",
    "CommBackend",
    "InProcessBackend",
    "WorkerUpdate",
    "RoundOutcome",
    "PermutationStream",
    "plan_partitions",
    "sharding_config",
    "scatter_weights",
    "shared_sizing",
]

_BENIGN = WorkerEpochFaults()


# ---------------------------------------------------------------------------
# shared delivery helpers (used by the worker pool every backend drives)
# ---------------------------------------------------------------------------
class PermutationStream:
    """Chained fresh random permutations over ``n`` local coordinates.

    Partial rounds / batches still visit every coordinate exactly once per
    full pass (epoch-equivalent).  The generator is shared with the caller
    (local kernels may draw from the same stream), so the draw order here is
    part of the trajectory contract.
    """

    def __init__(self, n: int, rng: np.random.Generator) -> None:
        self.n = int(n)
        self.rng = rng
        self._perm: np.ndarray | None = None
        self._cursor = 0

    def take(self, count: int) -> np.ndarray:
        out: list[np.ndarray] = []
        remaining = count
        while remaining > 0:
            if self._perm is None or self._cursor >= self.n:
                self._perm = self.rng.permutation(self.n)
                self._cursor = 0
            take = min(remaining, self.n - self._cursor)
            out.append(self._perm[self._cursor : self._cursor + take])
            self._cursor += take
            remaining -= take
        return np.concatenate(out) if len(out) > 1 else out[0]


def scatter_weights(
    pairs: Iterable[tuple[np.ndarray, np.ndarray]], n_coords: int
) -> np.ndarray:
    """Assemble a global float64 vector from per-worker (coords, values)."""
    out = np.zeros(n_coords, dtype=np.float64)
    for coords, values in pairs:
        out[coords] = values.astype(np.float64)
    return out


def sharding_config(shards: ShardingConfig | ShardStore | None) -> ShardingConfig | None:
    """An engine's ``shards`` argument as a config: a bare store gets defaults.

    The shard package is imported only for an out-of-core run, so in-memory
    training never loads it.
    """
    if shards is None:
        return None
    from ..shards import ShardingConfig, ShardStore

    return ShardingConfig(store=shards) if isinstance(shards, ShardStore) else shards


def plan_partitions(
    n_coords: int,
    n_workers: int,
    seed: int,
    partitioner: Callable[[int, int, np.random.Generator], Sequence[np.ndarray]],
    shards: ShardingConfig | None,
    matrix_shape: tuple[int, int],
) -> tuple[list[np.ndarray], list[list[int]] | None]:
    """The Partitioner seam.

    Returns ``(parts, groups)``: the per-worker coordinate arrays and, for
    out-of-core runs, the contiguous shard groups they are aligned to
    (``None`` for in-memory runs).
    """
    if shards is not None:
        store = shards.store
        if store.n_major != n_coords or store.shape != matrix_shape:
            raise ValueError(
                f"shard set covers a {store.shape} matrix, "
                f"problem matrix is {matrix_shape}"
            )
        groups = store.partition(n_workers)
        return [store.coords_of(g) for g in groups], groups
    rng = np.random.default_rng(seed)
    return list(partitioner(n_coords, n_workers, rng)), None


def plan_repartition(
    n_coords: int,
    n_workers: int,
    seed: int,
    generation: int,
    partitioner: Callable[[int, int, np.random.Generator], Sequence[np.ndarray]],
    shards: ShardingConfig | None,
    matrix_shape: tuple[int, int],
    capacities=None,
) -> tuple[list[np.ndarray], list[list[int]] | None]:
    """The Partitioner seam for an elastic membership change.

    Out-of-core runs stay shard-aligned (the store's ``n_workers``-way shard
    groups); in-memory runs split load-proportionally to measured
    ``capacities`` when given, else through ``partitioner``.  Either draws
    from a generation-salted stream, so no two generations deal alike.
    """
    seed = seed + 7_000_000 + 10_000 * generation
    if shards is None and capacities is not None:
        from .smart_partition import load_proportional_partition

        rng = np.random.default_rng(seed)
        return load_proportional_partition(n_coords, capacities, rng), None
    return plan_partitions(n_coords, n_workers, seed, partitioner, shards, matrix_shape)


def shared_sizing(formulation: str, problem, paper_scale) -> tuple[int, int, int]:
    """``(shared_len, comm_bytes, paper_shared_len)`` for a problem.

    The shared vector is the residual (primal, length N) or the dual shared
    vector (length M); communication is priced at paper scale when a
    :class:`~repro.core.scale.PaperScale` is installed (float32 on the wire).
    """
    shared_len = problem.n if formulation == "primal" else problem.m
    paper_shared = (
        paper_scale.shared_len(formulation) if paper_scale is not None else shared_len
    )
    return shared_len, 4 * paper_shared, paper_shared


# ---------------------------------------------------------------------------
# round data carriers
# ---------------------------------------------------------------------------
@dataclass
class WorkerUpdate:
    """One worker's contribution to a round: deltas plus billing metadata."""

    rank: int
    #: float64 shared-vector delta (what Reduce sums)
    dshared: np.ndarray
    #: float64 local-model delta (what the worker folds as ``gamma * dmodel``)
    dmodel: np.ndarray
    #: modelled fault-free compute seconds (simulated backends) or real
    #: elapsed seconds (process backends)
    compute_s: float = 0.0
    #: coordinate updates performed
    n_updates: int = 0
    #: ledger phase the compute time bills to
    component: str = "compute_host"


@dataclass
class RoundOutcome:
    """Everything one synchronous round produced, before aggregation."""

    delivered: list[WorkerUpdate] = field(default_factory=list)
    #: Algorithm 4's worker-side scalars, summed in delivery order
    model_dot: float = 0.0
    dmodel_norm_sq: float = 0.0
    dmodel_dot_y: float = 0.0
    #: max over workers of fault-free compute (what the ledger bills)
    fault_free_compute_s: float = 0.0
    #: max over workers including straggler multipliers
    max_compute_s: float = 0.0
    #: max over workers including exposed shard streaming
    max_wall_s: float = 0.0
    #: modelled retry/backoff overhead of transient transfer failures
    retry_s: float = 0.0
    compute_component: str = "compute_host"
    any_computed: bool = False
    n_updates: int = 0
    #: per-rank wall seconds this round (modelled or real) — the measurement
    #: the :class:`~repro.cluster.membership.LoadBalancer` rebalances from
    worker_wall: dict[int, float] = field(default_factory=dict)
    #: asynchronous backends report arrivals here (they keep no delivered
    #: list — updates were already applied at push time)
    n_arrived: int = 0


# ---------------------------------------------------------------------------
# FaultPolicy seam
# ---------------------------------------------------------------------------
@dataclass
class FaultPolicy:
    """Degraded-mode semantics around a (possibly absent) fault injector.

    ``stale_buffering`` — a delayed update is buffered and joins the *next*
    aggregation round (the simulated SCD engine); when ``False`` stale
    updates are simply lost (SDCA keeps no stale buffer; real processes have
    no next-round buffer either).  Either way a loss by retry exhaustion is
    itemized in the report's ``retry_exhausted`` count.
    """

    injector: FaultInjector | None = None
    stale_buffering: bool = True
    retry: RetryPolicy = DEFAULT_RETRY

    def open_report(self) -> FaultReport | None:
        return FaultReport() if self.injector is not None else None

    def plan(self, epoch: int, n_workers: int):
        if self.injector is None:
            return None
        return self.injector.plan_epoch(epoch, n_workers)

    def verdict(self, wf: WorkerEpochFaults) -> tuple[str, bool]:
        """``("deliver" | "stale" | "lost", retry_exhausted)`` for one worker."""
        exhausted = self.retry.exhausted(wf.send_failures)
        if self.stale_buffering:
            if wf.drop_update or exhausted:
                return "lost", exhausted
            if wf.stale_update:
                return "stale", exhausted
            return "deliver", exhausted
        if wf.drop_update or wf.stale_update or exhausted:
            return "lost", exhausted
        return "deliver", exhausted


# ---------------------------------------------------------------------------
# LocalSolver seam
# ---------------------------------------------------------------------------
class LocalSolver(Protocol):
    """What one worker does between barriers, for every backend.

    The implementation, ``core.distributed._ScdWorkerPool``, binds
    :class:`KernelFactory` kernels (CPU sequential, planned TPA-SCD GPU
    engines, or the SVM's SDCA kernel).  All methods are rank-addressed;
    the pool owns the worker state.  The in-process backend calls
    ``local_round``; the parameter server runs the pool's kernels on its
    own batches, and the process backend's children run the same local
    round on workers bound from the pool's bind arguments.
    """

    n_workers: int

    def bind(self, problem, tracer) -> None:
        """Partition the problem and bind local data (shards: assemble)."""

    def local_round(self, rank: int, shared: np.ndarray) -> WorkerUpdate:
        """Run one local round against a snapshot of the shared vector."""

    def delivery_stats(self, rank: int, upd: WorkerUpdate) -> tuple[float, float, float]:
        """Algorithm 4 worker scalars ``(<w, dw>, ||dw||^2, <dw, y_k>)``."""

    def fold(self, rank: int, gamma: float, upd: WorkerUpdate) -> None:
        """Fold a delivered update into local state with the round's gamma."""

    def discard(self, rank: int, upd: WorkerUpdate) -> None:
        """A lost update: restore local state consistent with the broadcast."""

    def streamer(self, rank: int):
        """The worker's shard streamer, or ``None`` for in-memory data."""

    def gap_objective(self, problem) -> tuple[float, float]:
        """Offline (gap, objective) of the assembled global model."""

    def global_model(self, problem, shared: np.ndarray) -> np.ndarray:
        """The assembled global model vector in the engine's formulation.

        Consulted only when an ``on_epoch`` publish callback is installed —
        never on the plain training path, so facades without serving pay
        nothing.
        """

    def close(self) -> None:
        """Release out-of-core resources."""


# ---------------------------------------------------------------------------
# CommBackend seam
# ---------------------------------------------------------------------------
class CommBackend(Protocol):
    """One synchronous round's execution + communication substrate."""

    #: True when the backend prices time with the performance models
    #: (sim_time = modelled seconds); False when epochs run on real
    #: wall-clock (sim_time = elapsed seconds, ledger bills real compute)
    models_time: bool
    #: True when the backend applies every push to the shared vector itself
    #: and keeps its own clock (``sim_seconds``): the runtime then skips the
    #: Reduce / gamma / Broadcast round
    asynchronous: bool
    #: True when the backend implements ``resize(problem, tracer, n_workers,
    #: capacities)`` and ``partition_sizes()``, so it can run elastic
    #: membership and load rebalancing
    elastic: bool
    n_workers: int

    def install(self, tracer) -> None: ...

    def open(self, problem, tracer) -> None: ...

    def run_round(
        self, epoch, shared, plan, report, policy, ledger, comm_bytes, needs_stats
    ) -> RoundOutcome: ...

    def reduce(self, parts: list[np.ndarray], like: np.ndarray) -> np.ndarray: ...

    def finish_round(self, gamma: float, outcome: RoundOutcome) -> None: ...

    def network_seconds(self, nbytes: int, n_scalars: int) -> float: ...

    def gap_objective(self, problem) -> tuple[float, float]: ...

    def global_model(self, problem, shared: np.ndarray) -> np.ndarray: ...

    def close(self) -> None: ...


class InProcessBackend:
    """Workers execute in-process; communication time is *modelled*.

    Local solves are delegated to a :class:`LocalSolver` pool; Reduce,
    Broadcast, the adaptive rule's scalars and transient-failure retries are
    priced by a :class:`~repro.cluster.comm.SimCommunicator`.  Stale-update
    buffers (one slot per rank) live here: a buffered update is delivered at
    the *start* of the next round, before that round's dropout check.
    """

    models_time = True
    asynchronous = False
    elastic = True

    def __init__(self, comm: SimCommunicator, solver: LocalSolver) -> None:
        self.comm = comm
        self.solver = solver
        self._stale: list[WorkerUpdate | None] = []

    @property
    def n_workers(self) -> int:
        return self.solver.n_workers

    def install(self, tracer) -> None:
        self.comm.metrics = tracer.metrics if tracer.enabled else None

    def open(self, problem, tracer) -> None:
        self.solver.bind(problem, tracer)
        self._stale = [None] * self.solver.n_workers

    def _deliver(self, out: RoundOutcome, upd: WorkerUpdate, needs_stats: bool) -> None:
        out.delivered.append(upd)
        if needs_stats:
            md, dn, dy = self.solver.delivery_stats(upd.rank, upd)
            out.model_dot += md
            out.dmodel_norm_sq += dn
            out.dmodel_dot_y += dy

    def run_round(
        self, epoch, shared, plan, report, policy, ledger, comm_bytes, needs_stats
    ) -> RoundOutcome:
        solver, comm = self.solver, self.comm
        out = RoundOutcome()
        for rank in range(self.n_workers):
            wf = plan[rank] if plan is not None else _BENIGN
            buffered = self._stale[rank]
            if buffered is not None:
                # last round's delayed update arrives now and is folded with
                # this round's gamma
                self._stale[rank] = None
                self._deliver(out, buffered, needs_stats)
            if wf.dropout:
                report.dropouts += 1
                continue
            streamer = solver.streamer(rank)
            if streamer is not None:
                # with prefetch the shard pass reads on the streamer's thread
                # while the local round computes
                streamer.begin_epoch()
            upd = solver.local_round(rank, shared)
            out.fault_free_compute_s = max(out.fault_free_compute_s, upd.compute_s)
            worker_wall = upd.compute_s * wf.straggler_multiplier
            out.max_compute_s = max(out.max_compute_s, worker_wall)
            if streamer is not None:
                # stream the shard group once per local round; with prefetch
                # only the excess over compute extends this worker's wall clock
                worker_wall += streamer.stream_epoch(ledger, compute_s=worker_wall)
            out.max_wall_s = max(out.max_wall_s, worker_wall)
            out.worker_wall[rank] = worker_wall
            out.compute_component = upd.component
            out.n_updates += upd.n_updates
            out.any_computed = True
            if report is not None:
                if wf.straggler_multiplier > 1.0:
                    report.stragglers += 1
                report.transient_failures += wf.send_failures + wf.recv_failures
            out.retry_s += comm.retry_seconds(comm_bytes, wf.send_failures)
            out.retry_s += comm.retry_seconds(comm_bytes, wf.recv_failures)
            verdict, exhausted = policy.verdict(wf)
            if verdict == "lost":
                # the update never reached the master; the worker restores
                # state consistent with the broadcast shared vector
                report.dropped_updates += 1
                if exhausted:
                    report.retry_exhausted += 1
                solver.discard(rank, upd)
                continue
            if verdict == "stale":
                self._stale[rank] = upd
                report.stale_updates += 1
                continue
            self._deliver(out, upd, needs_stats)
        return out

    def resize(self, problem, tracer, n_workers: int, capacities=None) -> int:
        """Elastic membership: repartition the pool to ``n_workers`` ranks.

        Delegates the state-preserving repartition to the local-solver pool
        (which must implement ``repartition``), resizes the communicator so
        collective pricing tracks the new pool, and invalidates the stale
        buffers — a buffered update's delta indices refer to the *old*
        partition and cannot be folded after the reshuffle.  Returns the
        number of buffered updates dropped.
        """
        repartition = getattr(self.solver, "repartition", None)
        if repartition is None:
            raise ValueError(
                f"{type(self.solver).__name__} does not implement "
                "repartition(); it cannot run under elastic membership"
            )
        dropped = sum(1 for upd in self._stale if upd is not None)
        repartition(problem, tracer, n_workers, capacities)
        self.comm.n_workers = int(n_workers)
        self._stale = [None] * int(n_workers)
        return dropped

    def partition_sizes(self) -> list[int]:
        return self.solver.partition_sizes()

    def reduce(self, parts: list[np.ndarray], like: np.ndarray) -> np.ndarray:
        return self.comm.reduce_sum_partial(parts, like=like)

    def finish_round(self, gamma: float, outcome: RoundOutcome) -> None:
        for upd in outcome.delivered:
            self.solver.fold(upd.rank, gamma, upd)

    def network_seconds(self, nbytes: int, n_scalars: int) -> float:
        return (
            self.comm.reduce_seconds(nbytes)
            + self.comm.bcast_seconds(nbytes)
            + self.comm.scalars_seconds(n_scalars)
        )

    def gap_objective(self, problem) -> tuple[float, float]:
        return self.solver.gap_objective(problem)

    def global_model(self, problem, shared: np.ndarray) -> np.ndarray:
        return self.solver.global_model(problem, shared)

    def close(self) -> None:
        self.solver.close()


# ---------------------------------------------------------------------------
# the runtime
# ---------------------------------------------------------------------------
@dataclass
class RuntimeResult:
    """What one :meth:`ClusterRuntime.run` produced (facades shape results)."""

    shared: np.ndarray
    history: ConvergenceHistory
    ledger: Any
    gammas: list[float]
    report: FaultReport | None
    tracer: Any
    #: applied membership/rebalance steps (empty for static pools)
    membership_log: list = field(default_factory=list)


class ClusterRuntime:
    """One synchronous-epoch training loop over pluggable seams.

    Each epoch: (1) ``backend.run_round`` executes the local solves under the
    fault plan, collecting the delivered :class:`WorkerUpdate`\\ s and billing
    metadata; (2) the delivered shared-vector deltas are Reduced and the
    aggregator's gamma applied to the shared vector; (3) ``finish_round``
    folds ``gamma * dmodel`` into the surviving workers (Broadcast);
    (4) modelled backends book compute / straggler wait / PCIe / network /
    retry phases into the ledger and advance the simulated clock; (5) at
    monitored epochs the assembled global model's duality gap is recorded.
    """

    def __init__(
        self,
        *,
        backend: CommBackend,
        aggregator: Aggregator,
        formulation: str,
        faults: FaultPolicy | None = None,
        name: Callable[[tuple[int, int]], str] | str = "cluster",
        pcie=None,
        host_model=None,
        membership=None,
        rebalance=None,
    ) -> None:
        self.backend = backend
        self.aggregator = aggregator
        self.formulation = formulation
        self.faults = faults or FaultPolicy()
        # called with ``pool_range``, so an elastic run can name its range
        self._name = name if callable(name) else (lambda pool_range: name)
        #: smallest and largest pool size of the current (or last) run
        self.pool_range = (0, 0)
        self.pcie = pcie
        self.host_model = host_model
        #: optional :class:`~repro.cluster.membership.MembershipSchedule`
        self.membership = membership
        #: optional :class:`~repro.cluster.membership.LoadBalancer`
        self.rebalance = rebalance
        if (membership is not None or rebalance is not None) and not backend.elastic:
            raise ValueError(
                f"{type(backend).__name__} does not support elastic "
                "membership: its workers are bound at open() and cannot be "
                "repartitioned mid-run; run elastic schedules on the "
                "in-process simulated backends"
            )

    def _membership_step(
        self, epoch, backend, problem, tracer, consec_down, log
    ) -> None:
        """Apply membership/rebalance policy at one epoch boundary.

        Joins/leaves come from the schedule; evictions retire ranks the
        fault injector kept offline ``evict_after`` consecutive epochs;
        a :class:`LoadBalancer` repartitions load-proportionally from
        measured per-rank wall time.  Any change routes through
        ``backend.resize`` — the global model is preserved across the
        reshuffle, and the survivor-rescaled aggregation (gamma* over
        whatever pool exists *this* epoch) needs no special casing.
        """
        from .membership import MembershipRecord

        k = backend.n_workers
        joins = leaves = evictions = 0
        schedule = self.membership
        if schedule is not None:
            joins, leaves = schedule.delta_at(epoch)
            if schedule.evict_after is not None:
                evictions = sum(
                    1 for n in consec_down.values() if n >= schedule.evict_after
                )
            new_k = schedule.clamp(k + joins - leaves - evictions)
        else:
            new_k = k
        # a same-size pool still reshuffles when its composition changed
        # (evictions always take effect; a leave paired with a join swaps a
        # rank); clamp-denied changes do not
        changed = new_k != k or evictions > 0 or (joins > 0 and leaves > 0)
        balancer = self.rebalance
        rebalanced = balancer is not None and (changed or balancer.due(epoch))
        if not changed and not rebalanced:
            return
        capacities = balancer.capacities(new_k) if balancer is not None else None
        span_name = (
            "cluster.membership.apply" if changed else "cluster.rebalance.apply"
        )
        with tracer.span(
            span_name, category="cluster", epoch=epoch,
            k_before=k, k_after=new_k,
        ):
            dropped = backend.resize(problem, tracer, new_k, capacities)
        lo, hi = self.pool_range
        self.pool_range = (min(lo, new_k), max(hi, new_k))
        consec_down.clear()
        if changed:
            tracer.count("cluster.membership.changes")
            tracer.count("cluster.membership.joins", joins)
            tracer.count("cluster.membership.leaves", leaves + evictions)
            tracer.observe("cluster.membership.size", float(new_k))
        if rebalanced:
            tracer.count("cluster.rebalance.count")
        if dropped:
            tracer.count("cluster.rebalance.dropped_stale", dropped)
        log.append(
            MembershipRecord(
                epoch=epoch, k_before=k, k_after=new_k, joins=joins,
                leaves=leaves, evictions=evictions, rebalanced=bool(rebalanced),
                dropped_stale=dropped,
                capacities=list(capacities) if capacities is not None else None,
            )
        )

    def run(
        self,
        problem,
        n_epochs: int,
        *,
        shared_len: int,
        comm_bytes: int = 0,
        paper_shared: int = 0,
        monitor_every: int = 1,
        target_gap: float | None = None,
        tracer=None,
        on_epoch=None,
    ) -> RuntimeResult:
        if n_epochs < 0:
            raise ValueError("n_epochs must be non-negative")
        if monitor_every < 1:
            raise ValueError("monitor_every must be >= 1")
        tracer = resolve_tracer(tracer)
        backend = self.backend
        policy = self.faults
        aggregator = self.aggregator
        needs_stats = getattr(aggregator, "needs_stats", True)
        backend.install(tracer)

        shared = np.zeros(shared_len, dtype=np.float64)
        gammas: list[float] = []
        report = policy.open_report()
        asynchronous = backend.asynchronous
        elastic = self.membership is not None or self.rebalance is not None
        membership_log: list = []
        consec_down: dict[int, int] = {}
        self.pool_range = (backend.n_workers, backend.n_workers)
        root = tracer.span(
            "distributed.train", category="driver", solver=self._name(self.pool_range),
            n_workers=backend.n_workers, n_epochs=n_epochs,
        )
        with root as root_span:
            try:
                with tracer.span("bind", category="driver"):
                    backend.open(problem, tracer)
                history = ConvergenceHistory(label=self._name(self.pool_range))
                ledger = tracer.open_ledger()
                t0 = time.perf_counter()
                with tracer.span("gap_eval", category="monitor", epoch=0):
                    gap, obj = backend.gap_objective(problem)
                history.append(
                    ConvergenceRecord(
                        epoch=0, gap=gap, objective=obj, sim_time=0.0,
                        wall_time=0.0, updates=0,
                    )
                )
                sim_time = 0.0
                updates = 0
                for epoch in range(1, n_epochs + 1):
                    if elastic:
                        self._membership_step(
                            epoch, backend, problem, tracer, consec_down,
                            membership_log,
                        )
                    with tracer.span("epoch", category="driver", epoch=epoch):
                        plan = policy.plan(epoch, backend.n_workers)
                        if report is not None:
                            report.epochs += 1
                        with tracer.span(
                            "local_compute", category="cluster", epoch=epoch
                        ):
                            out = backend.run_round(
                                epoch, shared, plan, report, policy, ledger,
                                comm_bytes, needs_stats,
                            )
                        updates += out.n_updates
                        n_arrived = (
                            out.n_arrived if asynchronous else len(out.delivered)
                        )
                        if report is not None:
                            report.survivor_counts.append(n_arrived)
                        if asynchronous:
                            # the backend already applied every push to the
                            # shared vector, booked its per-cycle ledger
                            # phases and advanced its own simulated clock —
                            # there is no aggregation round and no gamma
                            gamma = 1.0
                            sim_time = backend.sim_seconds
                        else:
                            with tracer.span(
                                "aggregate", category="cluster",
                                epoch=epoch, survivors=n_arrived,
                            ):
                                if n_arrived:
                                    dshared = backend.reduce(
                                        [u.dshared for u in out.delivered], shared
                                    )
                                    if needs_stats:
                                        if self.formulation == "primal":
                                            resid_dot = float(
                                                (shared - problem.y.astype(np.float64))
                                                @ dshared
                                            )
                                        else:
                                            resid_dot = float(shared @ dshared)
                                        dshared_norm_sq = float(dshared @ dshared)
                                    else:
                                        resid_dot = 0.0
                                        dshared_norm_sq = 0.0
                                    gamma = aggregator.gamma(
                                        AggregationStats(
                                            formulation=self.formulation,
                                            n=problem.n,
                                            lam=problem.lam,
                                            n_workers=n_arrived,
                                            resid_dot_dshared=resid_dot,
                                            dshared_norm_sq=dshared_norm_sq,
                                            model_dot_dmodel=out.model_dot,
                                            dmodel_norm_sq=out.dmodel_norm_sq,
                                            dmodel_dot_y=out.dmodel_dot_y,
                                        )
                                    )
                                    shared += gamma * dshared
                                else:
                                    # nothing arrived (every update lost or every
                                    # worker out): the shared vector stands and
                                    # training proceeds next epoch
                                    gamma = 0.0
                                backend.finish_round(gamma, out)
                            gammas.append(gamma)

                            # -- time accounting ----------------------------
                            ledger.add(out.compute_component, out.fault_free_compute_s)
                            if backend.models_time:
                                epoch_time = max(out.max_compute_s, out.max_wall_s)
                                straggler_wait = (
                                    out.max_compute_s - out.fault_free_compute_s
                                )
                                if straggler_wait > 0.0:
                                    ledger.add("wait_straggler", straggler_wait)
                                    tracer.count(
                                        "dist.straggler_wait_s", straggler_wait
                                    )
                                if self.pcie is not None and out.any_computed:
                                    pcie_s = 2.0 * self.pcie.transfer_seconds(
                                        4 * paper_shared
                                    )
                                    host_s = self.host_model.epoch_seconds(paper_shared)
                                    ledger.add("comm_pcie", pcie_s)
                                    ledger.add("compute_host", host_s)
                                    epoch_time += pcie_s + host_s
                                net_s = backend.network_seconds(
                                    comm_bytes, aggregator.n_extra_scalars
                                )
                                ledger.add("comm_network", net_s)
                                if out.retry_s > 0.0:
                                    ledger.add("comm_retry", out.retry_s)
                                epoch_time += net_s + out.retry_s
                                sim_time += epoch_time
                        if elastic:
                            if plan is not None:
                                for rank, wf in enumerate(plan):
                                    if wf.dropout:
                                        consec_down[rank] = (
                                            consec_down.get(rank, 0) + 1
                                        )
                                    else:
                                        consec_down[rank] = 0
                            if self.rebalance is not None and out.worker_wall:
                                self.rebalance.record(
                                    backend.partition_sizes(), out.worker_wall
                                )
                    tracer.count("dist.epochs")
                    tracer.observe("dist.gamma", gamma)
                    tracer.observe("dist.survivors", n_arrived)
                    if epoch % monitor_every == 0 or epoch == n_epochs:
                        with tracer.span("gap_eval", category="monitor", epoch=epoch):
                            gap, obj = backend.gap_objective(problem)
                        extras: dict = {}
                        if not asynchronous:
                            extras["gamma"] = gamma
                            if policy.injector is not None:
                                extras["survivors"] = float(n_arrived)
                        history.append(
                            ConvergenceRecord(
                                epoch=epoch,
                                gap=gap,
                                objective=obj,
                                sim_time=(
                                    sim_time
                                    if backend.models_time
                                    else time.perf_counter() - t0
                                ),
                                wall_time=time.perf_counter() - t0,
                                updates=updates,
                                extras=extras,
                            )
                        )
                        if on_epoch is not None:
                            # assembled only when a publisher listens — the
                            # plain training path stays byte-for-byte what the
                            # runtime goldens pin
                            on_epoch(
                                EpochEvent(
                                    epoch=epoch,
                                    weights=backend.global_model(problem, shared),
                                    formulation=self.formulation,
                                    sim_time=(
                                        sim_time
                                        if backend.models_time
                                        else time.perf_counter() - t0
                                    ),
                                    gap=gap,
                                    solver=self._name(self.pool_range),
                                )
                            )
                        if target_gap is not None and gap <= target_gap:
                            break
                # an elastic run's name is known once its pool range is
                history.label = self._name(self.pool_range)
                if root_span is not None:
                    root_span.attrs["solver"] = history.label
            finally:
                backend.close()
        if tracer.enabled and report is not None:
            report.record_to(tracer.metrics)
        return RuntimeResult(
            shared=shared, history=history, ledger=ledger, gammas=gammas,
            report=report, tracer=tracer, membership_log=membership_log,
        )
