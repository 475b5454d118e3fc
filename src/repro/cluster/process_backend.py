"""The real-process CommBackend: Algorithm 3/4 over OS worker processes.

The simulated engine executes the workers' epochs in-process and *models*
time.  :class:`PipeProcessBackend` runs the same synchronous scheme through
the same :class:`~repro.cluster.runtime.ClusterRuntime` epoch loop, but each
worker lives in its own ``multiprocessing`` process and exchanges
shared-vector deltas with the parent over a pipe: true parallel execution,
real synchronization, real wall-clock.  It is selected as
``DistributedSCD(SequentialKernelFactory(), ..., comm="process")``, the
way ``comm="async"`` selects the parameter-server backend.

Because both backends run identical kernels with identical precompute and
permutation streams (same seeds, same partitioner), their trajectories agree
*bitwise* — the strongest available check that the simulated engine's
*semantics* (as opposed to its time model) are faithful.

Scope: sequential-SCD local solvers (the paper's CPU cluster), both
formulations, every aggregation rule.  GPU solvers stay simulation-only —
their device model has no OS-process counterpart — and so do elastic
membership (workers are bound at :meth:`PipeProcessBackend.open`) and the
Section V PCIe pricing.

Shard stores: the worker partitions align to the store's contiguous shard
groups and each child's payload is assembled from disk (bitwise identical to
``take_major`` over the same coordinates).  Children hold their partition
for the whole run: per-epoch re-reads only exist to *model* cache pressure.

Faults: dropout (the child is not asked to run the epoch) and lost updates
(drop, stale-as-drop, retry exhaustion: the child's delta is excluded and it
folds gamma = 0) are honoured, with the aggregation rescaled over the K'
survivors.  Time-only faults (stragglers, retry latency) have no meaning
against real wall-clock and are ignored.

Child protocol: the parent sends ``("epoch", shared)`` and receives
``(dshared, dweights, stats, elapsed)``; after aggregation it sends
``("gamma", g)``.  ``("stop", None)`` is accepted at either wait, so a
failed run can always shut down the surviving children cleanly.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from ..solvers.kernels import dual_epoch_sequential, primal_epoch_sequential
from .runtime import (
    _BENIGN,
    RoundOutcome,
    WorkerUpdate,
    plan_partitions,
    scatter_weights,
)

if TYPE_CHECKING:
    from ..shards import ShardingConfig

__all__ = ["PipeProcessBackend", "build_payloads"]


def _worker_loop(conn, payload: dict) -> None:
    """Child process: bind the local partition, then serve epoch requests."""
    formulation = payload["formulation"]
    indptr = payload["indptr"]
    indices = payload["indices"]
    data = payload["data"]
    y = payload["y"]
    lam = payload["lam"]
    n_local = payload["n_local"]
    rng = np.random.default_rng(payload["perm_seed"])
    weights = np.zeros(n_local)
    nlam = payload["n_global"] * lam
    # precomputed by the parent through the same matrix routines the
    # simulated factory binds with, so both backends run bitwise-identical
    # kernels (a per-row dot product here would differ in the last ulp)
    y_dots = payload["y_dots"]
    inv_denom = payload["inv_denom"]

    try:
        while True:
            msg, shared = conn.recv()
            if msg == "stop":
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
            msg, gamma = conn.recv()
            if msg == "stop":
                return
            weights = weights + gamma * dweights
    except (EOFError, OSError):
        return  # the parent closed the pipe: nothing left to serve
    finally:
        conn.close()


def build_payloads(
    formulation: str,
    problem,
    parts: Sequence[np.ndarray],
    seed: int,
    shards: ShardingConfig | None = None,
    groups: list[list[int]] | None = None,
) -> list[dict]:
    """Each child's partition, labels and kernel precompute, as plain arrays.

    The precompute takes the same matrix-level reductions as
    :class:`~repro.solvers.scd.SequentialKernelFactory` (not per-row dot
    products), so a child's kernel inputs match the simulated worker's
    bitwise.  With shard ``groups`` a child's partition is assembled from
    the store — bitwise identical to ``take_major`` over the same
    coordinates.
    """
    matrix = problem.dataset.csc if formulation == "primal" else problem.dataset.csr
    nlam = problem.n * problem.lam
    payloads = []
    for rank, coords in enumerate(parts):
        if groups is not None:
            local, _ = shards.store.assemble(groups[rank])
        else:
            local = matrix.take_major(coords)
        if local.dtype != np.float64:
            local = local.astype(np.float64)
        if formulation == "primal":
            y_local = problem.y.astype(np.float64)
            y_dots = local.rmatvec(y_local)
            inv_denom = 1.0 / (local.col_norms_sq() + nlam)
        else:
            y_local = problem.y[coords].astype(np.float64)
            y_dots = None
            inv_denom = 1.0 / (nlam + local.row_norms_sq())
        payloads.append(
            {
                "formulation": formulation,
                "indptr": local.indptr,
                "indices": local.indices,
                "data": local.data,
                "y": y_local,
                "y_dots": y_dots,
                "inv_denom": inv_denom,
                "n_global": problem.n,
                "lam": problem.lam,
                "n_local": coords.shape[0],
                "perm_seed": seed + 1000 + rank,
            }
        )
    return payloads


class PipeProcessBackend:
    """Real ``multiprocessing`` workers over pipes; time is real wall-clock.

    The parent broadcasts the shared vector, children run one local epoch and
    reply; after aggregation the parent sends gamma back (0 for a lost
    update, so the child reverts and stays consistent with the broadcast).
    A dropout skips the send entirely — the child's permutation stream does
    not advance, matching the simulated engine.  A child that dies mid-run
    raises a :class:`RuntimeError` naming its rank and exit code.
    """

    models_time = False
    asynchronous = False
    elastic = False

    def __init__(
        self,
        formulation: str,
        n_workers: int,
        *,
        seed: int,
        partitioner: Callable[[int, int, np.random.Generator], Sequence[np.ndarray]],
        shards: ShardingConfig | None = None,
        mp_context: str | None = None,
    ) -> None:
        self.formulation = formulation
        self.n_workers = int(n_workers)
        self.seed = int(seed)
        self.partitioner = partitioner
        self.shards = shards
        self.ctx = mp.get_context(mp_context)
        self.parts: list[np.ndarray] = []
        self.n_model_coords = 0
        self.weights_by_rank: list[np.ndarray] = []
        self.pipes: list[Any] = []
        self.procs: list[Any] = []
        self._active: list[int] = []
        self._dweights: dict[int, np.ndarray] = {}

    def install(self, tracer) -> None:
        pass

    def open(self, problem, tracer) -> None:
        primal = self.formulation == "primal"
        matrix = problem.dataset.csc if primal else problem.dataset.csr
        self.n_model_coords = problem.m if primal else problem.n
        self.parts, groups = plan_partitions(
            self.n_model_coords, self.n_workers, self.seed,
            self.partitioner, self.shards, matrix.shape,
        )
        payloads = build_payloads(
            self.formulation, problem, self.parts, self.seed, self.shards, groups
        )
        self.weights_by_rank = [np.zeros(p.shape[0]) for p in self.parts]
        for rank, payload in enumerate(payloads):
            parent_conn, child_conn = self.ctx.Pipe()
            proc = self.ctx.Process(
                target=_worker_loop, args=(child_conn, payload),
                name=f"process-worker-{rank}", daemon=True,
            )
            proc.start()
            child_conn.close()
            self.pipes.append(parent_conn)
            self.procs.append(proc)

    def _died(self, rank: int, exc: BaseException) -> RuntimeError:
        proc = self.procs[rank]
        proc.join(timeout=1.0)
        return RuntimeError(
            f"process worker rank {rank} died (exitcode {proc.exitcode}); "
            f"the pipe to it failed with {type(exc).__name__}"
        )

    def _send(self, rank: int, msg) -> None:
        try:
            self.pipes[rank].send(msg)
        except OSError as exc:
            raise self._died(rank, exc) from exc

    def _recv(self, rank: int):
        try:
            return self.pipes[rank].recv()
        except (EOFError, OSError) as exc:
            raise self._died(rank, exc) from exc

    def run_round(
        self, epoch, shared, plan, report, policy, ledger, comm_bytes, needs_stats
    ) -> RoundOutcome:
        out = RoundOutcome()
        active = [
            rank
            for rank in range(self.n_workers)
            if plan is None or not plan[rank].dropout
        ]
        if report is not None:
            report.dropouts += self.n_workers - len(active)
        for rank in active:
            self._send(rank, ("epoch", shared))
        self._active = active
        self._dweights = {}
        for rank in active:
            dshared, dweights, stats, elapsed = self._recv(rank)
            wf = plan[rank] if plan is not None else _BENIGN
            out.fault_free_compute_s = max(out.fault_free_compute_s, elapsed)
            out.n_updates += self.parts[rank].shape[0]
            out.worker_wall[rank] = elapsed
            self._dweights[rank] = dweights
            verdict, exhausted = policy.verdict(wf)
            if verdict == "lost":
                report.dropped_updates += 1
                if exhausted:
                    report.retry_exhausted += 1
                continue
            out.delivered.append(
                WorkerUpdate(
                    rank=rank,
                    dshared=dshared,
                    dmodel=dweights,
                    compute_s=elapsed,
                    n_updates=self.parts[rank].shape[0],
                )
            )
            out.model_dot += stats[0]
            out.dmodel_norm_sq += stats[1]
            out.dmodel_dot_y += stats[2]
        out.any_computed = bool(active)
        return out

    def reduce(self, parts: list[np.ndarray], like: np.ndarray) -> np.ndarray:
        # master-side accumulation over whatever arrived, in rank order
        out = np.zeros_like(like)
        for p in parts:
            out += p
        return out

    def finish_round(self, gamma: float, outcome: RoundOutcome) -> None:
        arrived = {upd.rank for upd in outcome.delivered}
        for rank in self._active:
            # a lost update folds gamma = 0 so the child reverts and stays
            # consistent with the broadcast shared vector
            g = gamma if rank in arrived else 0.0
            self._send(rank, ("gamma", g))
            self.weights_by_rank[rank] = (
                self.weights_by_rank[rank] + g * self._dweights[rank]
            )
        self._active = []
        self._dweights = {}

    def network_seconds(self, nbytes: int, n_scalars: int) -> float:
        return 0.0  # real pipes: network time is inside the measured elapsed

    def global_weights(self) -> np.ndarray:
        return scatter_weights(
            zip(self.parts, self.weights_by_rank), self.n_model_coords
        )

    def gap_objective(self, problem) -> tuple[float, float]:
        from ..objectives.ridge import gap_and_objective

        return gap_and_objective(problem, self.global_weights(), self.formulation)

    def global_model(self, problem, shared: np.ndarray) -> np.ndarray:
        return self.global_weights()

    def close(self) -> None:
        for conn in self.pipes:
            try:
                conn.send(("stop", None))
            except OSError:
                pass  # that child is already gone
            conn.close()
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hung child guard
                proc.terminate()
                proc.join()
        self.pipes = []
        self.procs = []
