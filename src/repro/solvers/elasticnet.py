"""Sequential coordinate-descent solver for the elastic-net objective.

Structurally identical to Algorithm 1: a random permutation of the feature
coordinates per epoch, a maintained shared vector ``w = A beta``, and the
closed-form coordinate step (here soft-thresholded) — so the epoch loop is
:meth:`ScdSolver.solve` over :class:`ElasticNetKernelFactory`'s kernel.
Convergence is monitored through the objective value and the KKT
violation, since the elastic net has no duality gap as convenient as
ridge's; ``target_gap`` stops on that violation.
"""

from __future__ import annotations

import copy

import numpy as np

from ..cpu import XEON_8C, SequentialCpuTiming
from ..objectives.elasticnet import ElasticNetProblem
from ..perf.timing import EpochWorkload
from ..sparse import CscMatrix
from .base import BoundKernel, ScdSolver, TrainResult
from .kernels import elastic_net_epoch

__all__ = [
    "ElasticNetCD",
    "ElasticNetKernelFactory",
    "elastic_net_path",
    "lambda_grid",
]


class ElasticNetKernelFactory:
    """Binds exact elastic-net CD epochs with single-thread timing."""

    name = "CD(1 thread)"

    def bind_primal(
        self, csc: CscMatrix, y: np.ndarray, n_global: int, lam: float, l1_ratio: float
    ) -> BoundKernel:
        """Bind the soft-thresholded update to a column set (shared ``w = A beta``)."""
        indptr, indices = csc.indptr, csc.indices
        data = csc.data.astype(np.float64, copy=False)
        y = y.astype(np.float64, copy=False)
        norms = csc.col_norms_sq().astype(np.float64)

        def run_epoch(beta, w, perm, rng):
            elastic_net_epoch(
                indptr, indices, data, y, norms, n_global, lam, l1_ratio, beta, w, perm
            )
            return 0

        return BoundKernel(
            run_epoch=run_epoch,
            workload=EpochWorkload(
                n_coords=csc.n_major, nnz=csc.nnz, shared_len=csc.shape[0]
            ),
            timing=SequentialCpuTiming(XEON_8C),
            n_coords=csc.n_major,
            shared_len=csc.shape[0],
        )


class ElasticNetCD(ScdSolver):
    """Cyclic-random coordinate descent for elastic-net regression.

    :meth:`solve` takes ``init_beta`` to warm-start the weights — the key
    ingredient of Friedman et al.'s pathwise strategy (the paper's [4]).
    """

    name = "ElasticNetCD"
    #: the warm start :meth:`_start` begins from; set only on the private
    #: copy a warm-started :meth:`solve` runs, never on the caller's solver
    _init_beta: np.ndarray | None = None

    def __init__(self, seed: int = 0) -> None:
        super().__init__(ElasticNetKernelFactory(), "primal", seed)

    def solve(
        self,
        problem: ElasticNetProblem,
        n_epochs: int,
        *,
        init_beta: np.ndarray | None = None,
        **kwargs,
    ) -> TrainResult:
        """:meth:`ScdSolver.solve`, started from ``init_beta`` when given."""
        if init_beta is None:
            return super().solve(problem, n_epochs, **kwargs)
        if init_beta.shape != (problem.m,):
            raise ValueError(
                f"init_beta has shape {init_beta.shape}, expected ({problem.m},)"
            )
        warm = copy.copy(self)
        warm._init_beta = init_beta
        return ScdSolver.solve(warm, problem, n_epochs, **kwargs)

    def _bind(self, problem: ElasticNetProblem) -> BoundKernel:
        return self.factory.bind_primal(
            problem.dataset.csc, problem.y, problem.n, problem.lam, problem.l1_ratio
        )

    def _start(self, problem: ElasticNetProblem, bound: BoundKernel):
        if self._init_beta is None:
            return super()._start(problem, bound)
        beta = self._init_beta.astype(np.float64)
        return beta, problem.dataset.csc.matvec(beta)

    def _monitor(self, problem: ElasticNetProblem, weights, shared):
        return (
            problem.subgradient_optimality(weights, shared),
            problem.objective(weights, shared),
            {"nnz_beta": int(np.count_nonzero(weights))},
        )


def lambda_grid(
    problem_dataset, l1_ratio: float, *, n_lambdas: int = 20, ratio: float = 1e-3
) -> np.ndarray:
    """Geometric lambda grid from lambda_max down, as in glmnet ([4]).

    ``lambda_max`` is the smallest lambda at which the all-zeros model is
    optimal: ``max_m |<a_m, y>| / (N * l1_ratio)``.  For ``l1_ratio = 0``
    there is no finite lambda_max; a unit-scale grid is returned instead.
    """
    if n_lambdas < 1:
        raise ValueError("n_lambdas must be >= 1")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
    csc = problem_dataset.csc
    y = problem_dataset.y.astype(np.float64)
    n = problem_dataset.n_examples
    corr = np.abs(csc.rmatvec(y)) / n
    top = float(corr.max()) if corr.size else 1.0
    if l1_ratio > 0.0:
        lam_max = top / l1_ratio
    else:
        lam_max = top
    # nudge above the boundary so rounding in `top / l1_ratio * l1_ratio`
    # cannot leave the largest-correlation coordinate marginally active
    lam_max *= 1.0 + 1e-9
    return np.geomspace(lam_max, lam_max * ratio, n_lambdas)


def elastic_net_path(
    dataset,
    lambdas: np.ndarray,
    *,
    l1_ratio: float = 0.5,
    n_epochs: int = 100,
    tol: float = 1e-8,
    seed: int = 0,
):
    """Warm-started regularization path (Friedman et al. [4]).

    Solves the elastic net along a decreasing ``lambdas`` grid, initializing
    each problem at the previous solution.  Returns a list of
    ``(lam, beta, history)`` triples in grid order.
    """
    lambdas = np.asarray(lambdas, dtype=np.float64)
    if lambdas.size == 0:
        return []
    if np.any(np.diff(lambdas) > 0):
        raise ValueError("lambdas must be non-increasing for warm starts")
    solver = ElasticNetCD(seed=seed)
    path = []
    beta = None
    for lam in lambdas:
        problem = ElasticNetProblem(dataset, float(lam), l1_ratio=l1_ratio)
        result = solver.solve(
            problem, n_epochs, monitor_every=1, target_gap=tol, init_beta=beta
        )
        beta = result.weights
        path.append((float(lam), beta.copy(), result.history))
    return path
