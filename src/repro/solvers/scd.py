"""Sequential stochastic coordinate descent (Algorithm 1).

The baseline all speed-ups in the paper are measured against: a
single-threaded solver that visits a fresh random permutation of the
coordinates each epoch and applies the closed-form coordinate update with a
fully consistent shared vector.  The pass itself is
:class:`~repro.solvers.syscd_kernels.ExactPass`, the library's one copy of
Algorithm 1 (compiled ``syscd.c`` or its bitwise numpy twin), which
``SySCD(n_threads=1)`` runs too; only the modelled clock is this module's.
"""

from __future__ import annotations

import numpy as np

from ..cpu import XEON_8C, CpuSpec, SequentialCpuTiming
from ..perf.timing import EpochWorkload
from ..sparse import CscMatrix, CsrMatrix
from .base import BoundKernel, ScdSolver
from .syscd_kernels import ExactPass, available_backend, dual_terms, primal_terms

__all__ = ["SequentialKernelFactory", "SequentialSCD"]


class SequentialKernelFactory:
    """Binds Algorithm 1's exact epoch kernel with single-thread timing.

    ``timing_workload`` optionally overrides the workload used for *pricing*
    an epoch: the experiment drivers run scaled-down data but price epochs at
    the paper-scale dataset dimensions so the reproduced time axes keep the
    original compute/overhead proportions (see DESIGN.md).

    Runs in float64.  The pass is ``syscd.c`` when the kernel library
    (:mod:`repro.native`) loads and its numpy twin otherwise, with no
    option; the two are bit-identical, and :attr:`backend` says which runs.
    """

    def __init__(
        self,
        spec: CpuSpec = XEON_8C,
        *,
        timing_workload: EpochWorkload | None = None,
    ) -> None:
        self.spec = spec
        self.timing_workload = timing_workload
        self.backend = available_backend()
        self.name = "SCD(1 thread)"

    def _bind(self, matrix, target, inv_denom, nlam, shared_len) -> BoundKernel:
        exact = ExactPass(
            matrix.indptr, matrix.indices, matrix.data, target, inv_denom, nlam,
            shared_len, self.backend,
        )

        def run_epoch(coef, shared, perm, rng):
            exact.bind(coef, shared, perm)(0, perm.shape[0])
            return 0

        return BoundKernel(
            run_epoch=run_epoch,
            workload=self.timing_workload
            or EpochWorkload(
                n_coords=matrix.n_major, nnz=matrix.nnz, shared_len=shared_len
            ),
            timing=SequentialCpuTiming(self.spec),
            n_coords=matrix.n_major,
            shared_len=shared_len,
        )

    def bind_primal(
        self, csc: CscMatrix, y: np.ndarray, n_global: int, lam: float
    ) -> BoundKernel:
        csc, target, inv_denom, nlam = primal_terms(csc, y, n_global, lam)
        return self._bind(csc, target, inv_denom, nlam, csc.shape[0])

    def bind_dual(
        self, csr: CsrMatrix, y_local: np.ndarray, n_global: int, lam: float
    ) -> BoundKernel:
        csr, target, inv_denom, nlam = dual_terms(csr, y_local, n_global, lam)
        return self._bind(csr, target, inv_denom, nlam, csr.shape[1])


class SequentialSCD(ScdSolver):
    """User-facing sequential SCD solver (the paper's "SCD (1 thread)")."""

    def __init__(
        self,
        formulation: str = "primal",
        *,
        spec: CpuSpec = XEON_8C,
        seed: int = 0,
    ) -> None:
        super().__init__(SequentialKernelFactory(spec), formulation, seed)
