"""Distributed SVM training — CoCoA's canonical instantiation (ref [7]).

Algorithm 3 "can be thought of as a special case of the more general CoCoA
framework applied specifically to the ridge regression problem"; CoCoA
itself was introduced for communication-efficient distributed *SDCA* — the
hinge-loss SVM.  This facade closes that loop: examples are partitioned
across K workers, each runs local SDCA epochs against its copy of the
primal weight vector ``w`` (the SVM's shared vector), and the master
aggregates the workers' ``delta w`` with gamma = sigma'/K.

The synchronous epoch loop is :class:`~repro.cluster.runtime.ClusterRuntime`
with a :class:`ScaledAggregator` aggregation policy; this module contributes
the local-solver adapter (:class:`_SvmWorkerPool`).  Each worker runs the
single-node SVM's bound kernel (:class:`~repro.solvers.svm.SdcaKernelFactory`
with the hinge step) over its rows; the model state is the dual variables
``alpha`` — a lost update reverts them, a gamma-scaled aggregation rescales
them to stay consistent with the global ``w``.  The result is the
:class:`~repro.solvers.svm.SvmTrainResult` that :class:`~repro.solvers.SvmSdca`
also returns.

Monitoring uses the true hinge duality gap; the per-epoch time model is the
kernel's single-thread CPU cost model and the binomial-tree communicator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..cluster.comm import SimCommunicator
from ..cluster.faults import FaultInjector, FaultReport, FaultSpec, make_fault_injector
from ..cluster.membership import LoadBalancer, MembershipSchedule
from ..cluster.partition import random_partition
from ..cluster.smart_partition import load_proportional_partition
from ..cluster.runtime import (
    ClusterRuntime,
    FaultPolicy,
    InProcessBackend,
    WorkerUpdate,
    plan_partitions,
    sharding_config,
)
from ..cpu import XEON_8C, CpuSpec
from ..objectives.svm import SvmProblem, hinge_step
from ..perf.link import Link
from ..perf.timing import EpochWorkload
from ..solvers.svm import SdcaKernelFactory, SvmTrainResult
from .aggregation import ScaledAggregator
from .scale import PaperScale

if TYPE_CHECKING:
    from ..shards import ShardingConfig, ShardStore

__all__ = ["DistributedSvm", "SvmTrainResult"]


class _SvmWorkerPool:
    """LocalSolver adapter: per-worker clipped SDCA over example partitions.

    Each worker runs :class:`~repro.solvers.svm.SdcaKernelFactory`'s hinge
    kernel — the single-node :class:`~repro.solvers.svm.SvmSdca` epoch — on
    its rows against a copy of ``w``.  Model state is the dual vector
    ``alpha`` (updated in place during the local round); the round's model
    delta is ``alpha_after - alpha_before`` and its shared-vector delta
    ``local_w - w``.  Because the dual update is applied eagerly,
    consistency with the gamma-scaled global step is restored *after*
    aggregation: a delivered update rescales ``alpha -= (1 - gamma) *
    pending`` (clipped to the box), a lost one reverts ``alpha -= pending``.
    """

    def __init__(self, engine: "DistributedSvm") -> None:
        self.engine = engine
        self.n_workers = engine.n_workers
        self.workers: list[dict] = []
        self.problem: SvmProblem | None = None
        self.factory: SdcaKernelFactory | None = None
        self._generation = 0

    def _bind_worker(
        self, rank, rows, csr, y, tracer, groups, rng_seed, alpha_global=None
    ) -> dict:
        eng = self.engine
        streamer = None
        if groups is not None:
            from ..shards import ShardStreamer

            streamer = ShardStreamer(
                eng.shards, groups[rank], tracer=tracer, worker=rank
            )
            local = streamer.assemble()
        else:
            local = csr.take_rows(rows)
        if alpha_global is None:
            alpha = np.zeros(rows.shape[0])
        else:
            alpha = alpha_global[rows].copy()
        return {
            "rows": rows,
            "kernel": self.factory.bind_dual(
                local, y[rows], self.problem.n, self.problem.lam
            ),
            "alpha": alpha,
            "rng": np.random.default_rng(rng_seed),
            "streamer": streamer,
        }

    def bind(self, problem: SvmProblem, tracer) -> None:
        eng = self.engine
        self.problem = problem
        ps = eng.paper_scale
        self.factory = SdcaKernelFactory(
            hinge_step,
            spec=eng.spec,
            timing_workload=None if ps is None else EpochWorkload(
                n_coords=max(1, ps.n_examples // eng.n_workers),
                nnz=max(1, ps.nnz // eng.n_workers),
                shared_len=problem.m,
            ),
        )
        csr = problem.dataset.csr
        parts, groups = plan_partitions(
            problem.n, eng.n_workers, eng.seed, eng.partitioner,
            eng.shards, csr.shape,
        )
        y = problem.y.astype(np.float64)
        for rank, rows in enumerate(parts):
            self.workers.append(
                self._bind_worker(
                    rank, rows, csr, y, tracer, groups, eng.seed + 1000 + rank
                )
            )

    def partition_sizes(self) -> list[int]:
        return [wk["rows"].shape[0] for wk in self.workers]

    def repartition(
        self, problem: SvmProblem, tracer, n_workers: int, capacities=None
    ) -> None:
        """Elastic membership: re-deal the examples across ``n_workers``.

        The learned dual variables are preserved — the global ``alpha`` is
        assembled from the departing pool and sliced back out along the new
        partition, so the run continues from the same dual point.  Reborn
        workers draw from generation-salted RNG streams (a rank id is reused
        across generations; its permutation stream must not be).
        """
        eng = self.engine
        alpha_global = self.alpha_global()
        for wk in self.workers:
            if wk["streamer"] is not None:
                wk["streamer"].close()
        self._generation += 1
        gen = self._generation
        csr = problem.dataset.csr
        if eng.shards is not None:
            groups = eng.shards.store.partition(n_workers)
            parts = [eng.shards.store.coords_of(g) for g in groups]
        else:
            groups = None
            rng = np.random.default_rng(eng.seed + 7_000_000 + 10_000 * gen)
            if capacities is not None:
                parts = load_proportional_partition(problem.n, capacities, rng)
            else:
                parts = eng.partitioner(problem.n, n_workers, rng)
        y = problem.y.astype(np.float64)
        self.workers = [
            self._bind_worker(
                rank, rows, csr, y, tracer, groups,
                eng.seed + 1000 + rank + 100_000 * gen,
                alpha_global=alpha_global,
            )
            for rank, rows in enumerate(parts)
        ]
        self.n_workers = int(n_workers)

    def local_round(self, rank: int, shared: np.ndarray) -> WorkerUpdate:
        wk = self.workers[rank]
        kernel, alpha, rng = wk["kernel"], wk["alpha"], wk["rng"]
        before = alpha.copy()
        local_w = shared.copy()
        kernel.run_epoch(alpha, local_w, rng.permutation(kernel.n_coords), rng)
        return WorkerUpdate(
            rank=rank,
            dshared=local_w - shared,
            dmodel=alpha - before,
            compute_s=kernel.epoch_seconds(),
            n_updates=kernel.n_coords,
        )

    def delivery_stats(
        self, rank: int, upd: WorkerUpdate
    ) -> tuple[float, float, float]:
        # never consulted: the scaled rule's gamma = sigma'/K' reads no stats
        return 0.0, 0.0, 0.0

    def fold(self, rank: int, gamma: float, upd: WorkerUpdate) -> None:
        # scale the local dual variables to stay consistent with the
        # gamma-scaled global update
        if gamma != 1.0:
            alpha = self.workers[rank]["alpha"]
            alpha -= (1.0 - gamma) * upd.dmodel
            np.clip(alpha, 0.0, 1.0, out=alpha)

    def discard(self, rank: int, upd: WorkerUpdate) -> None:
        # the master never saw this delta; revert the local dual variables
        # so they stay consistent with w
        self.workers[rank]["alpha"] -= upd.dmodel

    def streamer(self, rank: int):
        return self.workers[rank]["streamer"]

    def alpha_global(self) -> np.ndarray:
        out = np.zeros(self.problem.n)
        for wk in self.workers:
            out[wk["rows"]] = wk["alpha"]
        return out

    def gap_objective(self, problem: SvmProblem) -> tuple[float, float]:
        alpha_global = self.alpha_global()
        return (
            problem.duality_gap(alpha_global),
            problem.dual_objective(alpha_global),
        )

    def global_model(self, problem: SvmProblem, shared: np.ndarray) -> np.ndarray:
        # the SVM's shared vector *is* the primal model w
        return shared.copy()

    def close(self) -> None:
        for wk in self.workers:
            if wk["streamer"] is not None:
                wk["streamer"].close()


class DistributedSvm:
    """Synchronous distributed SDCA for the hinge-loss SVM.

    Parameters mirror the ridge engine where they apply; ``sigma_prime``
    scales the aggregation between averaging (1) and adding (K).
    ``partitioner`` overrides the paper's random example partition;
    ``shards`` switches the data path to an out-of-core
    :class:`~repro.shards.ShardStore` (rows axis), with worker partitions
    aligned to shard-group boundaries and per-epoch streaming billed into
    the ledger's ``shard_stream`` / ``shard_retry`` phases.
    """

    def __init__(
        self,
        *,
        n_workers: int = 4,
        sigma_prime: float = 1.0,
        network: Link | None = None,
        spec: CpuSpec = XEON_8C,
        paper_scale: PaperScale | None = None,
        seed: int = 0,
        faults: FaultInjector | FaultSpec | str | None = None,
        partitioner=None,
        shards: ShardingConfig | ShardStore | None = None,
        membership: MembershipSchedule | Sequence | None = None,
        rebalance_every: int = 0,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if sigma_prime <= 0:
            raise ValueError("sigma_prime must be positive")
        if rebalance_every < 0:
            raise ValueError("rebalance_every must be >= 0")
        self.n_workers = int(n_workers)
        self.sigma_prime = float(sigma_prime)
        self.comm = (
            SimCommunicator(self.n_workers, network)
            if network
            else SimCommunicator(self.n_workers)
        )
        self.spec = spec
        self.paper_scale = paper_scale
        self.seed = int(seed)
        self.faults = make_fault_injector(faults)
        self.partitioner = partitioner or random_partition
        self.shards = sharding_config(shards)
        if self.shards is not None and self.shards.store.axis != "rows":
            raise ValueError(
                "DistributedSvm partitions examples: needs a 'rows'-axis "
                f"shard set, got {self.shards.store.axis!r}"
            )
        if membership is not None and not isinstance(membership, MembershipSchedule):
            membership = MembershipSchedule(membership)
        self.membership = membership
        self.rebalance = LoadBalancer(rebalance_every) if rebalance_every else None
        #: populated by :meth:`solve`: applied membership/rebalance steps
        self.membership_log: list = []
        #: populated by :meth:`solve` when fault injection is active
        self.fault_report: FaultReport | None = None
        self.name = f"DistributedSVM[x{self.n_workers}, sigma'={sigma_prime:g}]"

    def solve(
        self,
        problem: SvmProblem,
        n_epochs: int,
        *,
        monitor_every: int = 1,
        target_gap: float | None = None,
        tracer=None,
        on_epoch=None,
    ) -> SvmTrainResult:
        """Train; returns a :class:`SvmTrainResult`."""
        pool = _SvmWorkerPool(self)
        runtime = ClusterRuntime(
            backend=InProcessBackend(self.comm, pool),
            aggregator=ScaledAggregator(self.sigma_prime),
            formulation="dual",
            faults=FaultPolicy(
                injector=self.faults,
                stale_buffering=False,  # SDCA keeps no stale buffer: lost
                retry=self.comm.retry,
            ),
            name=lambda: self.name,
            membership=self.membership,
            rebalance=self.rebalance,
        )
        shared_bytes = 4 * (
            self.paper_scale.n_features if self.paper_scale else problem.m
        )
        rt = runtime.run(
            problem,
            n_epochs,
            shared_len=problem.m,
            comm_bytes=shared_bytes,
            monitor_every=monitor_every,
            target_gap=target_gap,
            tracer=tracer,
            on_epoch=on_epoch,
        )
        self.fault_report = rt.report
        self.membership_log = rt.membership_log
        return SvmTrainResult(
            formulation="dual",
            weights=rt.shared,
            shared=rt.shared,
            history=rt.history,
            solver_name=self.name,
            ledger=rt.ledger,
            alpha=pool.alpha_global(),
            fault_report=rt.report,
            membership_log=rt.membership_log,
            trace=rt.tracer if rt.tracer.enabled else None,
            metrics=rt.tracer.metrics if rt.tracer.enabled else None,
        )
