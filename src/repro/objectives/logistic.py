"""L2-regularized logistic regression via SDCA (extension).

Completes the GLM family alongside ridge, elastic net and the SVM.
Formulation follows Shalev-Shwartz & Zhang (2013) — the paper's [9]:

    primal:  P(w) = lam/2 ||w||^2 + 1/N sum_i log(1 + exp(-y_i <w, x_i>))
    dual:    D(alpha) = 1/N sum_i H(alpha_i)
                        - 1/(2 lam N^2) || sum_i alpha_i y_i x_i ||^2,
             H(a) = -a log a - (1-a) log(1-a),   0 <= alpha_i <= 1.

The shared vector is the SDCA mapping ``w = A^T(alpha*y)/(lam N)``.  Unlike
ridge/hinge, the per-coordinate maximizer has no closed form: the stationary
condition

    log((1 - a)/a) = y_i <w, x_i> + q (a - alpha_i),   q = ||x_i||^2/(lam N)

has a unique root in (0, 1) (the left side is strictly decreasing, the right
strictly increasing in ``a``), found here by safeguarded bisection.
"""

from __future__ import annotations

import numpy as np

from ..data import Dataset
from .ridge import checked_lambda

__all__ = ["LogisticProblem", "logistic_step"]

_EPS = 1e-12


def _entropy(alpha: np.ndarray) -> np.ndarray:
    """H(a) = -a log a - (1-a) log(1-a), continuous at the endpoints."""
    a = np.clip(alpha, _EPS, 1.0 - _EPS)
    return -(a * np.log(a) + (1.0 - a) * np.log(1.0 - a))


def logistic_step(
    y_i: float,
    alpha_i: float,
    margin_dot: float,
    row_norm_sq: float,
    lam_n: float,
) -> float:
    """The new optimal ``alpha_i`` of one SDCA step, by safeguarded bisection.

    ``margin_dot = <w, x_i>`` with the current shared vector and
    ``lam_n = lam * N``.  Solves ``log((1-a)/a) - m - q (a - alpha_i) = 0``
    where ``m = y_i margin`` and ``q = ||x_i||^2 / (lam N)``.
    """
    m = y_i * margin_dot
    q = row_norm_sq / lam_n
    if row_norm_sq <= 0.0:
        # the quadratic term vanishes: closed-form sigmoid maximizer
        return 1.0 / (1.0 + np.exp(m))

    def g(a: float) -> float:
        return np.log((1.0 - a) / a) - m - q * (a - alpha_i)

    lo, hi = _EPS, 1.0 - _EPS
    if g(lo) <= 0.0:
        return lo
    if g(hi) >= 0.0:
        return hi
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class LogisticProblem:
    """A logistic-regression training problem bound to a dataset.

    Labels must be in {-1, +1}.
    """

    def __init__(self, dataset: Dataset, lam: float) -> None:
        lam = checked_lambda(lam)
        labels = np.unique(dataset.y)
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("logistic labels must be -1/+1")
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
        margins = self.y * self.dataset.csr.matvec(w)
        # stable log(1 + exp(-m))
        loss = np.logaddexp(0.0, -margins).sum() / self.n
        w64 = w.astype(np.float64)
        return float(0.5 * self.lam * (w64 @ w64) + loss)

    def dual_objective(self, alpha: np.ndarray) -> float:
        if np.any(alpha < -1e-12) or np.any(alpha > 1 + 1e-12):
            raise ValueError("alpha must satisfy the box constraint [0, 1]")
        v = self.dataset.csr.rmatvec(alpha * self.y)
        return float(
            _entropy(alpha).sum() / self.n
            - (v @ v) / (2.0 * self.lam * self.n**2)
        )

    def weights_from_alpha(self, alpha: np.ndarray) -> np.ndarray:
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

    def predict_proba(self, w: np.ndarray, matrix=None) -> np.ndarray:
        """P(y = +1 | x) under the logistic model."""
        matrix = matrix if matrix is not None else self.dataset.csr
        scores = matrix.matvec(w)
        return 1.0 / (1.0 + np.exp(-scores))
