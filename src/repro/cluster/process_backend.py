"""The real-process CommBackend: Algorithm 3/4 over OS worker processes.

The simulated engine executes the workers' epochs in-process and *models*
time.  :class:`PipeProcessBackend` runs the same synchronous scheme through
the same :class:`~repro.cluster.runtime.ClusterRuntime` epoch loop, but each
worker lives in its own ``multiprocessing`` process and exchanges
shared-vector deltas with the parent over a pipe: true parallel execution,
real synchronization, real wall-clock.  It is selected as
``DistributedSCD(SequentialKernelFactory(), ..., comm="process")``, the
way ``comm="async"`` selects the parameter-server backend.

Both backends bind their workers through the same worker pool
(:class:`~repro.core.distributed._ScdWorkerPool`): the parent's pool plans
the partitions and hands each child its factory, local matrix, local labels
and seed; the child binds them with the same helper and runs the same
local-round code as the in-process worker, with the same permutation stream.
Their trajectories therefore agree *bitwise* — the strongest available check
that the simulated engine's *semantics* (as opposed to its time model) are
faithful.  The parent's pool keeps each rank's weights, computes Algorithm
4's worker scalars and folds ``gamma * dweights`` in step with the child.

Scope: sequential-SCD local solvers (the paper's CPU cluster), both
formulations, every aggregation rule.  GPU solvers stay simulation-only —
their device model has no OS-process counterpart — and so do elastic
membership (workers are bound at :meth:`PipeProcessBackend.open`) and the
Section V PCIe pricing.

Shard stores: the worker partitions align to the store's contiguous shard
groups and each child's local matrix is assembled from disk (bitwise
identical to ``take_major`` over the same coordinates).  Children hold their
partition for the whole run: per-epoch re-reads only exist to *model* cache
pressure.

Faults: dropout (the child is not asked to run the epoch) and lost updates
(drop, stale-as-drop, retry exhaustion: the child's delta is excluded and it
folds gamma = 0) are honoured, with the aggregation rescaled over the K'
survivors.  Time-only faults (stragglers, retry latency) have no meaning
against real wall-clock and are ignored.

Child protocol: the parent sends ``("epoch", shared)`` and receives the
round's :class:`~repro.cluster.runtime.WorkerUpdate` (``compute_s`` = the
child's elapsed seconds); after aggregation it sends ``("gamma", g)``.
``("stop", None)`` is accepted at either wait, so a failed run can always
shut down the surviving children cleanly.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.distributed import _bind_state
from .runtime import _BENIGN, RoundOutcome, WorkerUpdate

if TYPE_CHECKING:
    from ..core.distributed import _ScdWorkerPool

__all__ = ["PipeProcessBackend"]


def _worker_loop(conn, rank: int, bind_args: tuple) -> None:
    """Child process: bind the rank's worker, then serve epoch requests."""
    try:
        wk = _bind_state(*bind_args)
        while True:
            msg, shared = conn.recv()
            if msg == "stop":
                return
            t0 = time.perf_counter()
            upd = wk.local_round(rank, shared, 1.0)
            upd.compute_s = time.perf_counter() - t0
            conn.send(upd)
            msg, gamma = conn.recv()
            if msg == "stop":
                return
            wk.fold(gamma, upd.dmodel)
    except (EOFError, OSError):
        return  # the parent closed the pipe: nothing left to serve
    finally:
        conn.close()


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
        self, pool: _ScdWorkerPool, *, mp_context: str | None = None
    ) -> None:
        self.pool = pool
        self.ctx = mp.get_context(mp_context)
        self.pipes: list[Any] = []
        self.procs: list[Any] = []
        #: this round's update per active rank, folded at finish_round
        self._updates: dict[int, WorkerUpdate] = {}

    @property
    def n_workers(self) -> int:
        return self.pool.n_workers

    def install(self, tracer) -> None:
        pass

    def open(self, problem, tracer) -> None:
        self.pool.bind(problem, tracer, ship=self._start_child)

    def _start_child(self, rank: int, bind_args: tuple) -> None:
        parent_conn, child_conn = self.ctx.Pipe()
        proc = self.ctx.Process(
            target=_worker_loop, args=(child_conn, rank, bind_args),
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
        self._updates = {}
        for rank in active:
            upd = self._recv(rank)
            self._updates[rank] = upd
            wf = plan[rank] if plan is not None else _BENIGN
            out.fault_free_compute_s = max(out.fault_free_compute_s, upd.compute_s)
            out.n_updates += upd.n_updates
            out.worker_wall[rank] = upd.compute_s
            verdict, exhausted = policy.verdict(wf)
            if verdict == "lost":
                report.dropped_updates += 1
                if exhausted:
                    report.retry_exhausted += 1
                continue
            out.delivered.append(upd)
            if needs_stats:
                md, dn, dy = self.pool.delivery_stats(rank, upd)
                out.model_dot += md
                out.dmodel_norm_sq += dn
                out.dmodel_dot_y += dy
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
        for rank, upd in self._updates.items():
            # a lost update folds gamma = 0 so the child reverts and stays
            # consistent with the broadcast shared vector
            g = gamma if rank in arrived else 0.0
            self._send(rank, ("gamma", g))
            self.pool.fold(rank, g, upd)
        self._updates = {}

    def network_seconds(self, nbytes: int, n_scalars: int) -> float:
        return 0.0  # real pipes: network time is inside the measured elapsed

    def gap_objective(self, problem) -> tuple[float, float]:
        return self.pool.gap_objective(problem)

    def global_model(self, problem, shared: np.ndarray) -> np.ndarray:
        return self.pool.global_model(problem, shared)

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
        self.pool.close()
