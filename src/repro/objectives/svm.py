"""L2-regularized linear SVM via stochastic dual coordinate ascent (extension).

The second problem family the paper names as a target of stochastic
coordinate methods.  Formulation follows Shalev-Shwartz & Zhang (2013) — the
paper's reference [9], the same source as the ridge dual update:

    primal:  P(w) = lam/2 ||w||^2 + 1/N sum_i max(0, 1 - y_i <w, x_i>)
    dual:    D(alpha) = 1/N sum_i alpha_i
                        - 1/(2 lam N^2) || sum_i alpha_i y_i x_i ||^2,
             with box constraint 0 <= alpha_i <= 1.

SDCA maintains ``w = (1/(lam N)) sum_i alpha_i y_i x_i`` as the shared
vector; each coordinate step has the closed-form clipped solution below.
The duality gap P(w) - D(alpha) >= 0 certifies convergence, mirroring the
ridge methodology of Section II-C.
"""

from __future__ import annotations

import numpy as np

from ..data import Dataset
from .ridge import checked_lambda

__all__ = ["SvmProblem", "hinge_step"]


def hinge_step(
    y_i: float, alpha_i: float, margin_dot: float, row_norm_sq: float, lam_n: float
) -> float:
    """The new ``alpha_i`` of one closed-form clipped SDCA step ([9]).

    ``margin_dot = <w, x_i>`` with the current shared vector and
    ``lam_n = lam * N``; the unconstrained maximizer is projected onto the
    box [0, 1].
    """
    if row_norm_sq <= 0.0:
        # example with no features contributes alpha_i/N to the dual and
        # nothing to the quadratic term: the box maximizer is alpha_i = 1
        return 1.0
    grad = lam_n * (1.0 - y_i * margin_dot) / row_norm_sq
    return min(max(alpha_i + grad, 0.0), 1.0)


class SvmProblem:
    """A hinge-loss SVM training problem bound to a dataset.

    Labels must be in {-1, +1} (validated at construction).
    """

    def __init__(self, dataset: Dataset, lam: float) -> None:
        lam = checked_lambda(lam)
        labels = np.unique(dataset.y)
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("SVM labels must be -1/+1")
        self.dataset = dataset
        self.lam = float(lam)

    @property
    def n(self) -> int:
        return self.dataset.n_examples

    @property
    def m(self) -> int:
        return self.dataset.n_features

    @property
    def y(self) -> np.ndarray:
        return self.dataset.y

    # -- objectives ----------------------------------------------------------
    def primal_objective(self, w: np.ndarray) -> float:
        margins = 1.0 - self.y * self.dataset.csr.matvec(w)
        hinge = np.maximum(margins, 0.0).sum() / self.n
        w64 = w.astype(np.float64)
        return float(0.5 * self.lam * (w64 @ w64) + hinge)

    def dual_objective(self, alpha: np.ndarray) -> float:
        if np.any(alpha < -1e-12) or np.any(alpha > 1 + 1e-12):
            raise ValueError("alpha must satisfy the box constraint [0, 1]")
        v = self.dataset.csr.rmatvec(alpha * self.y)
        return float(
            alpha.sum() / self.n
            - (v @ v) / (2.0 * self.lam * self.n**2)
        )

    def weights_from_alpha(self, alpha: np.ndarray) -> np.ndarray:
        """The SDCA primal-dual mapping w(alpha) = A^T (alpha*y) / (lam N)."""
        return self.dataset.csr.rmatvec(alpha * self.y) / (self.lam * self.n)

    def duality_gap(self, alpha: np.ndarray, w: np.ndarray | None = None) -> float:
        if w is None:
            w = self.weights_from_alpha(alpha)
        return self.primal_objective(w) - self.dual_objective(alpha)

    def predict(self, w: np.ndarray, matrix=None) -> np.ndarray:
        """Signed predictions (+/-1) on a CSR matrix (defaults to training)."""
        matrix = matrix if matrix is not None else self.dataset.csr
        scores = matrix.matvec(w)
        return np.where(scores >= 0.0, 1.0, -1.0)
