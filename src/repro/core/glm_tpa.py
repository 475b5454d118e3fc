"""GPU (TPA) solvers for the GLM extensions: elastic net and SVM.

The paper's Section I argument — stochastic coordinate methods power more
than ridge regression — made concrete: the same twice-parallel asynchronous
execution (waves of thread blocks, strided tree-reduced inner products,
atomic scatter) drives the elastic-net soft-threshold update and the SVM's
box-clipped SDCA step via :class:`~repro.gpu.glm_engine.GlmTpaEngine`.
"""

from __future__ import annotations

import time

import numpy as np

from ..gpu.device import GpuDevice
from ..gpu.glm_engine import ElasticNetPrimalRule, GlmTpaEngine, SvmDualRule
from ..gpu.profiler import KernelProfile
from ..gpu.spec import GTX_TITAN_X, GpuSpec
from ..gpu.timing import GpuTimingModel
from ..metrics import ConvergenceHistory, ConvergenceRecord
from ..objectives.elasticnet import ElasticNetProblem
from ..objectives.svm import SvmProblem
from ..obs import resolve_tracer
from ..perf.timing import EpochWorkload
from .tpa_scd import _effective_wave

__all__ = ["TpaElasticNet", "TpaSvm"]


class _GlmTpaBase:
    """Shared scaffolding: device booking, timing, epoch loop."""

    def __init__(
        self,
        device: GpuDevice | GpuSpec = GTX_TITAN_X,
        *,
        n_threads: int = 256,
        wave_size: int | None = None,
        dtype=np.float32,
        seed: int = 0,
        profiler: KernelProfile | None = None,
        timing_workload: EpochWorkload | None = None,
    ) -> None:
        if isinstance(device, GpuSpec):
            device = GpuDevice(device)
        self.device = device
        self.n_threads = int(n_threads)
        self.wave_size = wave_size
        self.dtype = np.dtype(dtype)
        self.seed = int(seed)
        self.profiler = profiler
        self.timing_workload = timing_workload

    def _book(self, matrix, n_vec: int) -> None:
        self.device.reset()
        nbytes = (
            matrix.indptr.nbytes
            + matrix.indices.nbytes
            + matrix.nnz * self.dtype.itemsize
        )
        self.device.memory.alloc("dataset", nbytes)
        self.device.alloc_vector("vectors", n_vec, self.dtype.itemsize)

    def _epoch_seconds(self, matrix, shared_len: int) -> float:
        wl = self.timing_workload or EpochWorkload(
            n_coords=matrix.n_major, nnz=matrix.nnz, shared_len=shared_len
        )
        return GpuTimingModel(self.device.spec).epoch_seconds(wl)


class TpaElasticNet(_GlmTpaBase):
    """Elastic-net coordinate descent on the simulated GPU."""

    name = "TPA-ElasticNet"

    def solve(
        self,
        problem: ElasticNetProblem,
        n_epochs: int,
        *,
        monitor_every: int = 1,
        tol: float | None = None,
        tracer=None,
    ):
        """Train; returns ``(beta, history)`` like the CPU solver."""
        if n_epochs < 0:
            raise ValueError("n_epochs must be non-negative")
        if monitor_every < 1:
            raise ValueError("monitor_every must be >= 1")
        tracer = resolve_tracer(tracer)
        ledger = tracer.open_ledger()
        csc = problem.dataset.csc
        self._book(csc, problem.m + problem.n)
        rule = ElasticNetPrimalRule(
            csc.col_norms_sq(), problem.n, problem.lam, problem.l1_ratio,
            dtype=self.dtype,
        )
        engine = GlmTpaEngine(
            csc.indptr,
            csc.indices,
            csc.data,
            rule=rule,
            wave_size=_effective_wave(self.wave_size, self.device.spec),
            n_threads=self.n_threads,
            dtype=self.dtype,
            y=problem.y,
            profiler=self.profiler,
            tracer=tracer,
        )
        beta = np.zeros(problem.m, dtype=self.dtype)
        w = np.zeros(problem.n, dtype=self.dtype)
        rng = np.random.default_rng(self.seed)
        history = ConvergenceHistory(label=self.name)
        epoch_s = self._epoch_seconds(csc, problem.n)
        with tracer.span(
            "train", category="driver", solver=self.name, n_epochs=n_epochs
        ):
            t0 = time.perf_counter()
            history.append(
                ConvergenceRecord(
                    epoch=0,
                    gap=problem.subgradient_optimality(beta.astype(np.float64)),
                    objective=problem.objective(beta.astype(np.float64)),
                    sim_time=0.0,
                    wall_time=0.0,
                    updates=0,
                )
            )
            sim = 0.0
            updates = 0
            for epoch in range(1, n_epochs + 1):
                with tracer.span("epoch", category="driver", epoch=epoch):
                    engine.run_epoch(beta, w, rng.permutation(problem.m), rng)
                    ledger.add("compute_gpu", epoch_s)
                sim += epoch_s
                updates += problem.m
                tracer.count("train.epochs")
                tracer.count("scd.updates", problem.m)
                if epoch % monitor_every == 0 or epoch == n_epochs:
                    b64 = beta.astype(np.float64)
                    with tracer.span("gap_eval", category="monitor", epoch=epoch):
                        kkt = problem.subgradient_optimality(b64)
                    history.append(
                        ConvergenceRecord(
                            epoch=epoch,
                            gap=kkt,
                            objective=problem.objective(b64),
                            sim_time=sim,
                            wall_time=time.perf_counter() - t0,
                            updates=updates,
                            extras={"nnz_beta": int(np.count_nonzero(beta))},
                        )
                    )
                    if tol is not None and kkt <= tol:
                        break
        return beta.astype(np.float64), history


class TpaSvm(_GlmTpaBase):
    """SVM-SDCA on the simulated GPU."""

    name = "TPA-SVM"

    def solve(
        self,
        problem: SvmProblem,
        n_epochs: int,
        *,
        monitor_every: int = 1,
        target_gap: float | None = None,
        tracer=None,
    ):
        """Train; returns ``(w, alpha, history)`` like the CPU solver."""
        if n_epochs < 0:
            raise ValueError("n_epochs must be non-negative")
        if monitor_every < 1:
            raise ValueError("monitor_every must be >= 1")
        tracer = resolve_tracer(tracer)
        ledger = tracer.open_ledger()
        csr = problem.dataset.csr
        self._book(csr, problem.n + problem.m)
        rule = SvmDualRule(
            problem.y, csr.row_norms_sq(), problem.n, problem.lam, dtype=self.dtype
        )
        engine = GlmTpaEngine(
            csr.indptr,
            csr.indices,
            csr.data,
            rule=rule,
            wave_size=_effective_wave(self.wave_size, self.device.spec),
            n_threads=self.n_threads,
            dtype=self.dtype,
            profiler=self.profiler,
            tracer=tracer,
        )
        alpha = np.zeros(problem.n, dtype=self.dtype)
        w = np.zeros(problem.m, dtype=self.dtype)
        rng = np.random.default_rng(self.seed)
        history = ConvergenceHistory(label=self.name)
        epoch_s = self._epoch_seconds(csr, problem.m)
        with tracer.span(
            "train", category="driver", solver=self.name, n_epochs=n_epochs
        ):
            t0 = time.perf_counter()
            history.append(
                ConvergenceRecord(
                    epoch=0,
                    gap=problem.duality_gap(alpha.astype(np.float64)),
                    objective=problem.dual_objective(alpha.astype(np.float64)),
                    sim_time=0.0,
                    wall_time=0.0,
                    updates=0,
                )
            )
            sim = 0.0
            updates = 0
            for epoch in range(1, n_epochs + 1):
                with tracer.span("epoch", category="driver", epoch=epoch):
                    engine.run_epoch(alpha, w, rng.permutation(problem.n), rng)
                    ledger.add("compute_gpu", epoch_s)
                sim += epoch_s
                updates += problem.n
                tracer.count("train.epochs")
                tracer.count("scd.updates", problem.n)
                if epoch % monitor_every == 0 or epoch == n_epochs:
                    a64 = np.clip(alpha.astype(np.float64), 0.0, 1.0)
                    with tracer.span("gap_eval", category="monitor", epoch=epoch):
                        gap = problem.duality_gap(a64)
                    history.append(
                        ConvergenceRecord(
                            epoch=epoch,
                            gap=gap,
                            objective=problem.dual_objective(a64),
                            sim_time=sim,
                            wall_time=time.perf_counter() - t0,
                            updates=updates,
                            extras={"support_vectors": int(np.count_nonzero(alpha))},
                        )
                    )
                    if target_gap is not None and gap <= target_gap:
                        break
        return (
            w.astype(np.float64),
            np.clip(alpha.astype(np.float64), 0.0, 1.0),
            history,
        )
