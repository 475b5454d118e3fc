"""Stochastic dual coordinate ascent for the linear SVM (extension).

One epoch is a random permutation over the training examples; the shared
vector is the primal weight vector ``w = A^T(alpha*y)/(lam N)`` itself, kept
exactly consistent with the dual variables (the SDCA invariant).  Monitored
through the true hinge duality gap.

:class:`SdcaKernelFactory` binds the SDCA epoch for any GLM dual whose
per-example maximizer is a scalar ``step`` (the hinge step here, the
logistic bisection in :mod:`repro.solvers.logistic`); the distributed SVM
runs the same bound kernel on every worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..cpu import XEON_8C, CpuSpec, SequentialCpuTiming
from ..objectives.svm import SvmProblem, hinge_step
from ..perf.timing import EpochWorkload
from ..sparse import CsrMatrix
from .base import BoundKernel, ScdSolver, TrainResult
from .kernels import sdca_epoch

if TYPE_CHECKING:
    from ..cluster.faults import FaultReport

__all__ = ["SdcaKernelFactory", "SvmSdca", "SvmTrainResult"]


@dataclass(kw_only=True)
class SvmTrainResult(TrainResult):
    """SDCA outcome: the canonical shape plus the dual variables.

    ``weights`` (and ``shared``) is the primal model ``w``; ``alpha`` the
    dual variables.  The distributed SVM also fills the fault and
    membership fields.
    """

    alpha: np.ndarray
    fault_report: FaultReport | None = None
    #: applied membership/rebalance steps, in epoch order (empty when static)
    membership_log: list = field(default_factory=list)

    def primal_weights(self, problem=None) -> np.ndarray:
        """The SVM's shared vector *is* the primal model."""
        return self.weights


class SdcaKernelFactory:
    """Binds exact SDCA epochs for a GLM dual with single-thread timing.

    ``step(y_i, alpha_i, <w, x_i>, ||x_i||^2, lam N)`` returns an example's
    new dual value (:func:`~repro.objectives.svm.hinge_step`,
    :func:`~repro.objectives.logistic.logistic_step`).  ``timing_workload``
    optionally overrides the workload an epoch is priced at, as in
    :class:`~repro.solvers.scd.SequentialKernelFactory`.
    """

    def __init__(
        self,
        step: Callable[[float, float, float, float, float], float],
        *,
        spec: CpuSpec = XEON_8C,
        timing_workload: EpochWorkload | None = None,
    ) -> None:
        self.step = step
        self.spec = spec
        self.timing_workload = timing_workload
        self.name = "SDCA(1 thread)"

    def bind_dual(
        self, csr: CsrMatrix, y_local: np.ndarray, n_global: int, lam: float
    ) -> BoundKernel:
        indptr, indices = csr.indptr, csr.indices
        data = csr.data.astype(np.float64, copy=False)
        y = y_local.astype(np.float64, copy=False)
        norms = csr.row_norms_sq().astype(np.float64)
        lam_n = lam * n_global
        step = self.step

        def run_epoch(alpha, w, perm, rng):
            sdca_epoch(indptr, indices, data, y, norms, lam_n, step, alpha, w, perm)
            return 0

        return BoundKernel(
            run_epoch=run_epoch,
            workload=self.timing_workload
            or EpochWorkload(n_coords=csr.n_major, nnz=csr.nnz, shared_len=csr.shape[1]),
            timing=SequentialCpuTiming(self.spec),
            n_coords=csr.n_major,
            shared_len=csr.shape[1],
        )


class SvmSdca(ScdSolver):
    """SDCA solver for the L2-regularized hinge-loss SVM.

    The epoch loop is :meth:`ScdSolver.solve`; this class supplies the
    hinge step, the hinge duality gap on the maintained ``w`` and the
    :class:`SvmTrainResult` shape.
    """

    name = "SvmSdca"
    #: the per-example dual maximizer the SDCA kernel runs
    step = staticmethod(hinge_step)

    def __init__(self, seed: int = 0) -> None:
        super().__init__(SdcaKernelFactory(self.step), "dual", seed)

    def _monitor(self, problem: SvmProblem, weights, shared):
        return (
            problem.duality_gap(weights, shared),
            problem.dual_objective(weights),
            {"support_vectors": int(np.count_nonzero(weights))},
        )

    def _model(self, weights, shared):
        # the shared vector is the serveable primal model w, not alpha
        return shared

    def _result(self, weights, shared, **fields) -> SvmTrainResult:
        return SvmTrainResult(
            formulation="dual", weights=shared, shared=shared, alpha=weights, **fields
        )
