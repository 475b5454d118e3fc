"""GPU (TPA) solvers for the GLM extensions: elastic net and SVM.

The paper's Section I argument — stochastic coordinate methods power more
than ridge regression — made concrete: the same twice-parallel asynchronous
execution (waves of thread blocks, strided tree-reduced inner products,
atomic scatter) drives the elastic-net soft-threshold update and the SVM's
box-clipped SDCA step.  Both are :class:`ScdSolver` subclasses over
:class:`TpaScdKernelFactory`: :meth:`TpaScdKernelFactory.bind_rule` binds
the GLM rule of :mod:`repro.gpu.engine`, the monitor recomputes the shared
vector from the float32 weights instead of reading the float32 one the
kernel kept, and the result holds float64 copies (the SVM's alpha clipped
to its box).  ``TpaSvm`` reuses ``SvmSdca``'s result shape and ``on_epoch``
model (the primal ``w``).
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import GpuDevice
from ..gpu.engine import ElasticNetPrimalRule, SvmDualRule
from ..gpu.spec import GTX_TITAN_X, GpuSpec
from ..objectives.elasticnet import ElasticNetProblem
from ..objectives.svm import SvmProblem
from ..perf.timing import EpochWorkload
from ..solvers.base import BoundKernel, ScdSolver
from ..solvers.svm import SvmSdca
from .tpa_scd import TpaScdKernelFactory

__all__ = ["TpaElasticNet", "TpaSvm"]


class TpaElasticNet(ScdSolver):
    """Elastic-net coordinate descent on the simulated GPU."""

    name = "TPA-ElasticNet"

    def __init__(
        self,
        device: GpuDevice | GpuSpec = GTX_TITAN_X,
        *,
        n_threads: int = 256,
        wave_size: int | None = None,
        dtype=np.float32,
        seed: int = 0,
        timing_workload: EpochWorkload | None = None,
    ) -> None:
        factory = TpaScdKernelFactory(
            device,
            n_threads=n_threads,
            wave_size=wave_size,
            dtype=dtype,
            timing_workload=timing_workload,
        )
        super().__init__(factory, "primal", seed)

    def _bind(self, problem: ElasticNetProblem) -> BoundKernel:
        csc = problem.dataset.csc
        rule = ElasticNetPrimalRule(
            csc.col_norms_sq(), problem.n, problem.lam, problem.l1_ratio,
            dtype=self.factory.dtype,
        )
        return self.factory.bind_rule(csc, rule, problem.y)

    def _monitor(self, problem: ElasticNetProblem, weights, shared):
        b64 = weights.astype(np.float64)
        return (
            problem.subgradient_optimality(b64),
            problem.objective(b64),
            {"nnz_beta": int(np.count_nonzero(weights))},
        )

    def _result(self, weights, shared, **fields):
        return super()._result(
            weights.astype(np.float64), shared.astype(np.float64), **fields
        )


class TpaSvm(SvmSdca):
    """SVM-SDCA on the simulated GPU."""

    name = "TPA-SVM"

    def __init__(
        self,
        device: GpuDevice | GpuSpec = GTX_TITAN_X,
        *,
        n_threads: int = 256,
        wave_size: int | None = None,
        dtype=np.float32,
        seed: int = 0,
        timing_workload: EpochWorkload | None = None,
    ) -> None:
        factory = TpaScdKernelFactory(
            device,
            n_threads=n_threads,
            wave_size=wave_size,
            dtype=dtype,
            timing_workload=timing_workload,
        )
        ScdSolver.__init__(self, factory, "dual", seed)

    def _bind(self, problem: SvmProblem) -> BoundKernel:
        csr = problem.dataset.csr
        rule = SvmDualRule(
            problem.y, csr.row_norms_sq(), problem.n, problem.lam,
            dtype=self.factory.dtype,
        )
        return self.factory.bind_rule(csr, rule)

    def _monitor(self, problem: SvmProblem, weights, shared):
        a64 = np.clip(weights.astype(np.float64), 0.0, 1.0)
        return (
            problem.duality_gap(a64),
            problem.dual_objective(a64),
            {"support_vectors": int(np.count_nonzero(weights))},
        )

    def _result(self, weights, shared, **fields):
        # float32 steps can leave alpha a rounding error outside [0, 1]
        return super()._result(
            np.clip(weights.astype(np.float64), 0.0, 1.0),
            shared.astype(np.float64),
            **fields,
        )
