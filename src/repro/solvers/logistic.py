"""SDCA solver for L2-regularized logistic regression (extension).

The SVM's SDCA driver with three overrides: the per-coordinate maximizer is
the problem's safeguarded bisection (no closed form for the logistic
conjugate), the dual starts strictly inside the box, and the monitor
records no support-vector count (every alpha lies strictly inside (0, 1)).
"""

from __future__ import annotations

import numpy as np

from ..objectives.logistic import LogisticProblem, logistic_step
from .svm import SvmSdca

__all__ = ["LogisticSdca"]


class LogisticSdca(SvmSdca):
    """SDCA for logistic regression with entropy-regularized dual."""

    name = "LogisticSdca"
    step = staticmethod(logistic_step)

    def _start(self, problem: LogisticProblem, bound):
        # start strictly inside the box: the entropy term is singular at 0/1
        alpha = np.full(bound.n_coords, 0.5, dtype=np.float64)
        return alpha, problem.weights_from_alpha(alpha)

    def _monitor(self, problem: LogisticProblem, weights, shared):
        return problem.duality_gap(weights, shared), problem.dual_objective(weights), {}
