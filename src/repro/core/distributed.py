"""Distributed synchronous SCD (Algorithms 3 and 4, and Section V).

One facade covers all three distributed configurations in the paper:

* Algorithm 3 — distributed SCD with averaging aggregation, CPU local
  solvers, data partitioned by feature (primal) or by example (dual);
* Algorithm 4 — the same with adaptively-optimized aggregation;
* Section V   — distributed TPA-SCD: GPU local solvers, with the shared
  vector crossing PCIe on and off each device every epoch.

``comm="process"`` runs the same rounds over real worker processes
(:mod:`repro.cluster.process_backend`, the validation backend) and
``comm="async"`` swaps the barrier for the parameter-server alternative
(:mod:`repro.cluster.async_backend`).

The synchronous epoch scheme itself — local solve, Reduce, gamma_t
aggregation, Broadcast, ledger booking — lives in
:class:`~repro.cluster.runtime.ClusterRuntime`; this module contributes the
SCD-specific parts: the :class:`_ScdWorkerPool` local-solver adapter that
binds :class:`KernelFactory` kernels (CPU or GPU) to the worker partitions
under every comm backend, and the Section V PCIe/host-model pricing passed
into the runtime.  The distributed SVM (:mod:`repro.core.distributed_svm`)
is a subclass that binds the SDCA kernel and overrides only what its
objective changes.

Modelled wall-clock per epoch = max over workers of local compute
(+ host-side vector handling and PCIe transfers for GPU workers)
+ Reduce + Broadcast network time; each term is booked into a
:class:`~repro.perf.ledger.TimeLedger` so Fig. 9's breakdown is a direct
read-out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..cluster.async_backend import AsyncParamServerBackend
from ..cluster.comm import SimCommunicator
from ..cluster.faults import FaultInjector, FaultReport, FaultSpec, make_fault_injector
from ..cluster.membership import LoadBalancer, MembershipSchedule
from ..cluster.partition import random_partition
from ..cluster.runtime import (
    ClusterRuntime,
    FaultPolicy,
    InProcessBackend,
    PermutationStream,
    WorkerUpdate,
    plan_partitions,
    plan_repartition,
    sharding_config,
    scatter_weights,
    shared_sizing,
)
from ..cluster.smart_partition import make_capacity_partitioner
from ..objectives.ridge import RidgeProblem, gap_and_objective
from ..perf.link import Link
from ..solvers.base import BoundKernel, KernelFactory, TrainResult
from .aggregation import Aggregator, make_aggregator
from .scale import PaperScale

if TYPE_CHECKING:
    from ..shards import ShardingConfig, ShardStore, ShardStreamer

__all__ = ["DistributedSCD", "DistributedTrainResult", "HostModel"]


@dataclass(frozen=True)
class HostModel:
    """Host-side per-epoch vector handling for GPU workers.

    Each epoch the worker's host assembles the delta buffer, stages the
    pinned transfer and unpacks the broadcast shared vector —
    ``vector_passes`` streaming passes over the shared vector at
    ``bandwidth_gbytes`` effective memory bandwidth.
    """

    vector_passes: int = 4
    bandwidth_gbytes: float = 8.0

    def epoch_seconds(self, shared_len: int, itemsize: int = 4) -> float:
        return self.vector_passes * shared_len * itemsize / (
            self.bandwidth_gbytes * 1e9
        )


@dataclass
class _WorkerState:
    coords: np.ndarray
    bound: BoundKernel
    weights: np.ndarray
    y_local: np.ndarray
    rng: np.random.Generator
    epoch_compute_s: float
    #: chained permutations over the local coordinates; shares ``rng`` with
    #: the kernel so the draw order matches the single stream the paper uses
    stream: PermutationStream
    #: out-of-core data path for this worker's shard group (None = in-memory)
    streamer: ShardStreamer | None = None

    def local_round(
        self, rank: int, shared: np.ndarray, round_fraction: float
    ) -> WorkerUpdate:
        """One local round against a snapshot of ``shared``; the bound
        weights stay untouched until :meth:`fold`."""
        local_shared = shared.astype(self.bound.dtype)
        weights_work = self.weights.copy()
        n_round = max(1, int(round(round_fraction * self.coords.shape[0])))
        perm = self.stream.take(n_round)
        self.bound.run_epoch(weights_work, local_shared, perm, self.rng)
        return WorkerUpdate(
            rank=rank,
            dshared=local_shared.astype(np.float64) - shared,
            dmodel=(weights_work - self.weights).astype(np.float64),
            compute_s=self.epoch_compute_s * round_fraction,
            n_updates=perm.shape[0],
            component=self.bound.timing.component,
        )

    def fold(self, gamma: float, dmodel: np.ndarray) -> None:
        self.weights = (self.weights.astype(np.float64) + gamma * dmodel).astype(
            self.bound.dtype
        )


def _bind_state(
    factory: KernelFactory,
    formulation: str,
    local,
    y_local: np.ndarray,
    n_global: int,
    lam: float,
    coords: np.ndarray,
    seed: int,
    weights: np.ndarray | None = None,
) -> _WorkerState:
    """Bind one worker's kernel to its local matrix, starting from
    ``weights`` (zeros when ``None``).

    The one place a distributed worker is bound: the pool calls it for
    every rank, and each ``comm="process"`` child calls it again with the
    same picklable arguments, so both run the same kernel bit for bit.
    """
    if formulation == "primal":
        bound = factory.bind_primal(local, y_local, n_global, lam)
    else:
        bound = factory.bind_dual(local, y_local, n_global, lam)
    rng = np.random.default_rng(seed)
    return _WorkerState(
        coords=coords,
        bound=bound,
        weights=(
            np.zeros(coords.shape[0], dtype=bound.dtype)
            if weights is None
            else weights.astype(bound.dtype)
        ),
        y_local=y_local.astype(bound.dtype, copy=False),
        rng=rng,
        epoch_compute_s=bound.epoch_seconds(),
        stream=PermutationStream(coords.shape[0], rng),
    )


@dataclass(kw_only=True)
class DistributedTrainResult(TrainResult):
    """Outcome of a distributed run — the canonical shape plus cluster detail."""

    partitions: list[np.ndarray]
    gammas: list[float]
    #: populated when a :class:`FaultInjector` was installed, else ``None``
    fault_report: FaultReport | None = None
    #: applied membership/rebalance steps (empty for static pools)
    membership_log: list = field(default_factory=list)


class _ScdWorkerPool:
    """LocalSolver adapter: the SCD kernel workers of every comm backend.

    Owns the per-rank :class:`_WorkerState` — partition plan, factory
    binding, paper-scale pricing, tracer forwarding, RNG and permutation
    stream — and implements the runtime's local-round contract: compute
    against a shared-vector snapshot, report Algorithm 4's worker scalars at
    delivery time, fold ``gamma * dweights`` after aggregation.  A lost
    update needs no rollback — the scratch weights are simply discarded, the
    bound state never changed.  The in-process backend drives it directly,
    the parameter server runs its workers' kernels on batches, and the
    process backend ships each rank's bind arguments to a child.

    ``rng_salt`` offsets every worker's RNG seed (``seed + rng_salt + rank``,
    plus ``100_000`` per repartition generation); the parameter server's
    workers draw from their own ``2000`` salt.
    """

    def __init__(self, engine: "DistributedSCD", rng_salt: int = 1000) -> None:
        self.engine = engine
        self.n_workers = engine.n_workers
        self.rng_salt = int(rng_salt)
        self.workers: list[_WorkerState] = []
        #: bumps on every repartition; salts the reborn workers' RNG seeds
        self._generation = 0

    def _layout(self, problem: RidgeProblem):
        """``(matrix, n_coords)``: the formulation's coordinate-major layout."""
        if self.engine.formulation == "primal":
            return problem.dataset.csc, problem.m
        return problem.dataset.csr, problem.n

    def _bind_worker(
        self, problem: RidgeProblem, tracer, rank: int, coords: np.ndarray,
        groups, weights: np.ndarray | None = None, ship=None,
    ) -> _WorkerState:
        """Bind rank ``rank``'s kernel to ``coords``, starting from
        ``weights`` (zeros when ``None``); RNG seeds are generation-salted.
        ``ship(rank, args)`` first receives the :func:`_bind_state`
        arguments."""
        eng = self.engine
        matrix, n_coords_total = self._layout(problem)
        streamer = None
        if groups is not None:
            from ..shards import ShardStreamer

            streamer = ShardStreamer(
                eng.shards, groups[rank], tracer=tracer, worker=rank
            )
            local = streamer.assemble()
        else:
            local = matrix.take_major(coords)
        factory = eng._factory_for(rank)
        # kernel factories report to this run's tracer, the null one
        # included, never to the tracer of an earlier run
        factory.tracer = tracer
        if streamer is not None:
            # device factories skip the bulk dataset allocation: the
            # shard cache books residency against device memory instead
            factory.out_of_core = True
        if eng.paper_scale is not None:
            total_nnz = matrix.nnz
            factory.timing_workload = eng.paper_scale.worker_workload(
                eng.formulation,
                coords.shape[0] / n_coords_total,
                (local.nnz / total_nnz) if total_nnz else 0.0,
            )
        args = (
            factory,
            eng.formulation,
            local,
            problem.y if eng.formulation == "primal" else problem.y[coords],
            problem.n,
            problem.lam,
            coords,
            eng.seed + self.rng_salt + rank + 100_000 * self._generation,
        )
        if ship is not None:
            ship(rank, args)
        wk = _bind_state(*args, weights)
        if streamer is not None:
            wk.streamer = streamer
            device = getattr(factory, "device", None)
            if device is not None:
                # residency competes with the solver's vectors on-device;
                # attach after bind so the reset device is the budget
                streamer.attach_device(device.memory)
        if not eng._solver_label:
            eng._solver_label = factory.name
        return wk

    def bind(self, problem: RidgeProblem, tracer, ship=None) -> None:
        """Partition the problem and bind every rank; ``ship(rank, args)``
        receives each rank's :func:`_bind_state` arguments (the process
        backend starts a child with them)."""
        eng = self.engine
        matrix, n_coords_total = self._layout(problem)
        parts, groups = plan_partitions(
            n_coords_total, eng.n_workers, eng.seed, eng.partitioner,
            eng.shards, matrix.shape,
        )
        self.workers = [
            self._bind_worker(problem, tracer, rank, coords, groups, ship=ship)
            for rank, coords in enumerate(parts)
        ]

    def local_round(self, rank: int, shared: np.ndarray) -> WorkerUpdate:
        return self.workers[rank].local_round(
            rank, shared, self.engine.round_fraction
        )

    def delivery_stats(
        self, rank: int, upd: WorkerUpdate
    ) -> tuple[float, float, float]:
        wk = self.workers[rank]
        w64 = wk.weights.astype(np.float64)
        dy = 0.0
        if self.engine.formulation == "dual":
            dy = float(upd.dmodel @ wk.y_local.astype(np.float64))
        return (
            float(w64 @ upd.dmodel),
            float(upd.dmodel @ upd.dmodel),
            dy,
        )

    def fold(self, rank: int, gamma: float, upd: WorkerUpdate) -> None:
        self.workers[rank].fold(gamma, upd.dmodel)

    def discard(self, rank: int, upd: WorkerUpdate) -> None:
        pass  # scratch weights were never folded; nothing to roll back

    def streamer(self, rank: int):
        return self.workers[rank].streamer

    def partition_sizes(self) -> list[int]:
        return [wk.coords.shape[0] for wk in self.workers]

    def repartition(
        self, problem: RidgeProblem, tracer, n_workers: int, capacities=None
    ) -> None:
        """Elastic membership: re-deal the coordinates over ``n_workers``.

        The learned global model is assembled first and every new worker
        starts from its slice of it, so the reshuffle moves no information —
        only ownership.  The new parts come from
        :func:`~repro.cluster.runtime.plan_repartition`.  Worker RNG streams
        restart at a generation-salted seed: a departed worker's stream must
        not be replayed by whichever rank inherits its coordinates.
        """
        eng = self.engine
        matrix, n_coords_total = self._layout(problem)
        global_w = self.global_weights(problem)
        self.close()
        self._generation += 1
        parts, groups = plan_repartition(
            n_coords_total, n_workers, eng.seed, self._generation,
            eng.partitioner, eng.shards, matrix.shape, capacities,
        )
        self.workers = [
            self._bind_worker(problem, tracer, rank, coords, groups, global_w[coords])
            for rank, coords in enumerate(parts)
        ]
        self.n_workers = int(n_workers)

    def global_weights(self, problem: RidgeProblem) -> np.ndarray:
        n_coords = problem.m if self.engine.formulation == "primal" else problem.n
        return scatter_weights(
            ((wk.coords, wk.weights) for wk in self.workers), n_coords
        )

    def global_model(self, problem: RidgeProblem, shared: np.ndarray) -> np.ndarray:
        return self.engine._model(self.global_weights(problem), shared)

    def gap_objective(self, problem: RidgeProblem) -> tuple[float, float]:
        return self.engine._gap_objective(problem, self.global_weights(problem))

    def close(self) -> None:
        for wk in self.workers:
            if wk.streamer is not None:
                wk.streamer.close()


class DistributedSCD:
    """The synchronous distributed training engine.

    Parameters
    ----------
    worker_factory:
        A :class:`KernelFactory` shared by all workers, or a callable
        ``rank -> KernelFactory`` (required for GPU workers, which each own
        a device).  When ``paper_scale`` is given, the engine sets each
        factory's ``timing_workload`` to that worker's paper-scale share.
    formulation:
        ``"primal"`` partitions by feature; ``"dual"`` partitions by example.
    n_workers:
        K, the number of workers.
    aggregation:
        ``"averaging"`` (Algorithm 3), ``"adaptive"`` (Algorithm 4),
        ``"adding"``, or an :class:`Aggregator` instance.
    network:
        Inter-worker link (default 10 GbE as in the paper's CPU/M4000
        clusters); pass the PCIe link for the single-box Titan X cluster.
    pcie:
        When set, each epoch additionally pays two shared-vector transfers
        per worker over this link (device<->host staging, overlapped across
        workers) — the Section V data path.
    host_model:
        Host-side vector handling cost, only applied when ``pcie`` is set.
    paper_scale:
        Original dataset dimensions used to price compute and communication.
    round_fraction:
        Fraction of a worker's local coordinates processed between
        aggregation rounds (default 1.0, the paper's one-epoch rounds).
        Smaller fractions communicate more often: convergence per coordinate
        update improves (fresher shared vector) at the cost of more network
        rounds — the infrastructure-dependent trade-off of Duenner et al.
        [23], which the paper points to as future tuning.  With
        ``round_fraction < 1`` each history "epoch" is one aggregation
        round.
    faults:
        Optional fault injection: a :class:`FaultInjector`, a
        :class:`FaultSpec`, or a scenario name from
        :data:`~repro.cluster.faults.SCENARIOS`.  When set, each epoch
        proceeds with the K' <= K update vectors that actually arrive and
        the aggregation parameter (including the adaptive gamma* of Eq. 7)
        is recomputed over the survivors; retry, timeout and straggler wait
        time are booked into the ledger's ``comm_retry`` /
        ``wait_straggler`` phases.  A zero-rate injector is a bit-identical
        no-op.  See ``docs/fault_model.md``.
    shards:
        Out-of-core data path: a :class:`~repro.shards.ShardingConfig` (or a
        bare :class:`~repro.shards.ShardStore`, wrapped with defaults).
        Worker partitions then map 1:1 onto contiguous shard groups
        (``partitioner`` is ignored), each worker streams its group through
        a byte-budgeted :class:`~repro.shards.ShardCache` every epoch, and
        the re-read transfers are billed into the ledger's ``shard_stream``
        / ``shard_retry`` phases.  The store's axis must match the
        formulation (``cols`` for primal, ``rows`` for dual).  Training is
        bit-identical to the in-memory path under
        :func:`~repro.cluster.partition.shard_aligned_partition`.  See
        ``docs/data_pipeline.md``.
    comm:
        The CommBackend: ``"sync"`` (Algorithm 3/4 in-process, modelled
        time), ``"process"`` (the same rounds over real OS worker processes
        and pipes, real wall-clock; sequential float64 SCD workers only —
        see :mod:`repro.cluster.process_backend`) or ``"async"`` (the
        bounded-staleness parameter server of
        :mod:`repro.cluster.async_backend`, tuned by ``batch_fraction``,
        ``comm_overlap`` and ``staleness_bound``).
    mp_context:
        ``multiprocessing`` start method for ``comm="process"`` (``"fork"``,
        ``"spawn"``, ``"forkserver"``; ``None`` = the platform default);
        the other backends ignore it.

    Subclasses for other objectives (:class:`~repro.core.DistributedSvm`)
    override :meth:`_gap_objective`, :meth:`_model`, :meth:`_result`,
    ``name`` and ``_stale_buffering``.
    """

    #: a delayed update joins the next round's aggregation (``False``: it
    #: is lost, as on the real-process backend)
    _stale_buffering = True

    def __init__(
        self,
        worker_factory: KernelFactory | Callable[[int], KernelFactory],
        formulation: str = "primal",
        *,
        n_workers: int = 4,
        aggregation: str | Aggregator = "averaging",
        network: Link | None = None,
        pcie: Link | None = None,
        host_model: HostModel | None = None,
        paper_scale: PaperScale | None = None,
        seed: int = 0,
        partitioner: Callable[[int, int, np.random.Generator], Sequence[np.ndarray]]
        | None = None,
        round_fraction: float = 1.0,
        faults: FaultInjector | FaultSpec | str | None = None,
        shards: ShardingConfig | ShardStore | None = None,
        comm: str = "sync",
        batch_fraction: float = 1 / 16,
        comm_overlap: float = 0.9,
        staleness_bound: int = 0,
        mp_context: str | None = None,
        membership: MembershipSchedule | Sequence | None = None,
        rebalance_every: int = 0,
        capacities: Sequence[float] | None = None,
    ) -> None:
        if formulation not in ("primal", "dual"):
            raise ValueError(f"unknown formulation {formulation!r}")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if not 0.0 < round_fraction <= 1.0:
            raise ValueError("round_fraction must be in (0, 1]")
        if comm not in ("sync", "process", "async"):
            raise ValueError(
                f"unknown comm mode {comm!r}; use 'sync', 'process' or 'async'"
            )
        if not 0.0 < batch_fraction <= 1.0:
            raise ValueError("batch_fraction must be in (0, 1]")
        if not 0.0 <= comm_overlap <= 1.0:
            raise ValueError("comm_overlap must be in [0, 1]")
        if staleness_bound < 0:
            raise ValueError("staleness_bound must be >= 0")
        if rebalance_every < 0:
            raise ValueError("rebalance_every must be >= 0")
        if comm == "async":
            if pcie is not None:
                raise ValueError(
                    "the async parameter-server backend has no PCIe data "
                    "path; use comm='sync' for the Section V GPU cluster"
                )
            if shards is not None:
                raise ValueError(
                    "the async parameter-server backend does not stream "
                    "shards; use comm='sync' for out-of-core runs"
                )
            if round_fraction != 1.0:
                raise ValueError(
                    "round_fraction is a synchronous knob; tune "
                    "batch_fraction for comm='async'"
                )
        if comm == "process":
            from ..solvers.scd import SequentialKernelFactory

            if not isinstance(worker_factory, SequentialKernelFactory):
                raise ValueError(
                    "comm='process' runs sequential SCD in each child "
                    "process; pass SequentialKernelFactory()"
                )
            if pcie is not None or paper_scale is not None:
                raise ValueError(
                    "comm='process' runs on real wall-clock; pcie and "
                    "paper_scale price modelled time (use comm='sync')"
                )
            if round_fraction != 1.0:
                raise ValueError("comm='process' runs whole-epoch rounds only")
        self._factory_for: Callable[[int], KernelFactory]
        if callable(worker_factory) and not hasattr(worker_factory, "bind_primal"):
            self._factory_for = worker_factory  # type: ignore[assignment]
        else:
            fac = worker_factory
            self._factory_for = lambda rank: fac  # type: ignore[return-value]
        self.formulation = formulation
        self.n_workers = int(n_workers)
        self.aggregator = make_aggregator(aggregation)
        self.comm = SimCommunicator(self.n_workers, network) if network else (
            SimCommunicator(self.n_workers)
        )
        self.pcie = pcie
        self.host_model = host_model or (HostModel() if pcie else None)
        self.paper_scale = paper_scale
        self.seed = int(seed)
        if partitioner is None and capacities is not None:
            partitioner = make_capacity_partitioner(capacities)
        self.partitioner = partitioner or random_partition
        self.round_fraction = float(round_fraction)
        self.comm_mode = comm
        self.batch_fraction = float(batch_fraction)
        self.comm_overlap = float(comm_overlap)
        self.staleness_bound = int(staleness_bound)
        self.mp_context = mp_context
        if membership is not None and not isinstance(membership, MembershipSchedule):
            membership = MembershipSchedule(membership)
        self.membership = membership
        self.rebalance = LoadBalancer(rebalance_every) if rebalance_every else None
        #: populated by :meth:`solve`: applied membership/rebalance steps
        self.membership_log: list = []
        self.faults = make_fault_injector(faults)
        self.shards = sharding_config(shards)
        if self.shards is not None:
            axis = "cols" if formulation == "primal" else "rows"
            if self.shards.store.axis != axis:
                raise ValueError(
                    f"{formulation} formulation needs a {axis!r}-axis shard "
                    f"set, got {self.shards.store.axis!r}"
                )
        self._solver_label: str = ""
        #: smallest and largest pool of the last run (elastic runs resize it)
        self._pool_range = (self.n_workers, self.n_workers)
        #: populated by :meth:`solve` when fault injection is active
        self.fault_report: FaultReport | None = None

    @property
    def name(self) -> str:
        if self.comm_mode == "async":
            return (
                f"AsyncPS[{self._solver_label or 'SCD'} {self._pool_label()}, "
                f"b={self.batch_fraction:g}, {self.formulation}]"
            )
        agg = self.aggregator.name
        where = ", process" if self.comm_mode == "process" else ""
        return (
            f"Distributed[{self._solver_label or 'SCD'} {self._pool_label()}, "
            f"{agg}, {self.formulation}{where}]"
        )

    def _pool_label(self) -> str:
        """``x4``, or ``x2..5`` for a run whose pool ranged from 2 to 5."""
        lo, hi = self._pool_range
        return f"x{lo}" if lo == hi else f"x{lo}..{hi}"

    def _pool_name(self, pool_range: tuple[int, int]) -> str:
        """The name of a run whose pool has ranged over ``pool_range``."""
        self._pool_range = pool_range
        return self.name

    def _gap_objective(self, problem, weights: np.ndarray) -> tuple[float, float]:
        """Offline ``(gap, objective)`` of the assembled global weights."""
        return gap_and_objective(problem, weights, self.formulation)

    def _model(self, weights: np.ndarray, shared: np.ndarray) -> np.ndarray:
        """The vector an ``on_epoch`` event carries: the global weights."""
        return weights

    def _result(self, weights, shared, **fields) -> DistributedTrainResult:
        """Package a finished run; ``fields`` are the runtime's bookkeeping."""
        return DistributedTrainResult(
            formulation=self.formulation, weights=weights, shared=shared, **fields
        )

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
        # an elastic run leaves the communicator at its last pool size
        self.comm.n_workers = self.n_workers
        # the parameter server's workers draw from their own seed salt
        pool = _ScdWorkerPool(
            self, rng_salt=2000 if self.comm_mode == "async" else 1000
        )
        if self.comm_mode == "async":
            backend = AsyncParamServerBackend(
                self.comm,
                pool,
                batch_fraction=self.batch_fraction,
                comm_overlap=self.comm_overlap,
                staleness_bound=self.staleness_bound,
            )
        elif self.comm_mode == "process":
            # imported on use: in-process training never loads multiprocessing
            from ..cluster.process_backend import PipeProcessBackend

            backend = PipeProcessBackend(pool, mp_context=self.mp_context)
        else:
            backend = InProcessBackend(self.comm, pool)
        runtime = ClusterRuntime(
            backend=backend,
            aggregator=self.aggregator,
            formulation=self.formulation,
            faults=FaultPolicy(
                injector=self.faults,
                # real processes have no next-round buffer: stale is lost
                stale_buffering=(
                    self._stale_buffering and self.comm_mode != "process"
                ),
                retry=self.comm.retry,
            ),
            name=self._pool_name,
            pcie=self.pcie,
            host_model=self.host_model,
            membership=self.membership,
            rebalance=self.rebalance,
        )
        shared_len, comm_bytes, paper_shared = shared_sizing(
            self.formulation, problem, self.paper_scale
        )
        rt = runtime.run(
            problem,
            n_epochs,
            shared_len=shared_len,
            comm_bytes=comm_bytes,
            paper_shared=paper_shared,
            monitor_every=monitor_every,
            target_gap=target_gap,
            tracer=tracer,
            on_epoch=on_epoch,
        )
        self.fault_report = rt.report
        self.membership_log = rt.membership_log
        return self._result(
            pool.global_weights(problem),
            rt.shared,
            history=rt.history,
            ledger=rt.ledger,
            partitions=[wk.coords for wk in pool.workers],
            solver_name=self.name,
            gammas=rt.gammas,
            fault_report=rt.report,
            membership_log=rt.membership_log,
            trace=rt.tracer if rt.tracer.enabled else None,
            metrics=rt.tracer.metrics if rt.tracer.enabled else None,
        )
