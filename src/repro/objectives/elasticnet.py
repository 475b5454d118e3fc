"""Elastic-net regression via coordinate descent (extension).

The paper notes that "stochastic coordinate methods are used in the field of
machine learning to solve other problems such as regression with elastic net
regularization as well as support vector machines".  This module implements
the elastic-net objective and its closed-form coordinate update following
Friedman, Hastie & Tibshirani (2010) — the paper's reference [4], the same
paper Algorithm 1 is based on:

    F(beta) = 1/(2N) ||A beta - y||^2
              + lam * (l1_ratio * ||beta||_1 + (1 - l1_ratio)/2 * ||beta||^2)

The coordinate minimizer is a soft-thresholded least-squares step.  With
``l1_ratio = 0`` the problem reduces exactly to ridge regression, which the
tests exploit for cross-validation against the ridge solvers.
"""

from __future__ import annotations

import numpy as np

from ..data import Dataset
from .ridge import checked_lambda

__all__ = ["ElasticNetProblem", "elastic_net_delta", "soft_threshold"]


def soft_threshold(z: float, t: float) -> float:
    """The scalar soft-thresholding operator S(z, t) = sign(z) max(|z|-t, 0)."""
    if z > t:
        return z - t
    if z < -t:
        return z + t
    return 0.0


def elastic_net_delta(
    beta_m: float,
    residual_dot: float,
    col_norm_sq: float,
    n: int,
    lam: float,
    l1_ratio: float,
) -> float:
    """Exact coordinate minimizer step for one feature.

    ``residual_dot = <y - w, a_m>`` with the current shared vector; the
    new optimal value of the coordinate is the soft-thresholded
    least-squares solution and the returned delta moves ``beta_m`` there.
    """
    # rho = (1/N) <y - w + a_m beta_m, a_m>: the coordinate-wise
    # least-squares target with coordinate m removed from the residual
    rho = (residual_dot + col_norm_sq * beta_m) / n
    denom = col_norm_sq / n + lam * (1.0 - l1_ratio)
    new_val = soft_threshold(rho, lam * l1_ratio) / denom
    return new_val - beta_m


class ElasticNetProblem:
    """An elastic-net training problem bound to a dataset.

    Parameters
    ----------
    dataset:
        Training data (CSC layout is used: coordinates are features).
    lam:
        Overall regularization strength (> 0).
    l1_ratio:
        Mix between L1 (1.0 = lasso) and L2 (0.0 = ridge) penalties.
    """

    def __init__(self, dataset: Dataset, lam: float, l1_ratio: float = 0.5) -> None:
        lam = checked_lambda(lam)
        if not 0.0 <= l1_ratio <= 1.0:
            raise ValueError("l1_ratio must be in [0, 1]")
        self.dataset = dataset
        self.lam = float(lam)
        self.l1_ratio = float(l1_ratio)

    @property
    def n(self) -> int:
        return self.dataset.n_examples

    @property
    def m(self) -> int:
        return self.dataset.n_features

    @property
    def y(self) -> np.ndarray:
        return self.dataset.y

    def objective(self, beta: np.ndarray, w: np.ndarray | None = None) -> float:
        """Evaluate F(beta); pass a maintained ``w = A beta`` to skip a matvec."""
        if w is None:
            w = self.dataset.csc.matvec(beta)
        r = w.astype(np.float64) - self.y.astype(np.float64)
        b = beta.astype(np.float64)
        l1 = np.abs(b).sum()
        l2 = b @ b
        return float(
            r @ r / (2.0 * self.n)
            + self.lam * (self.l1_ratio * l1 + 0.5 * (1.0 - self.l1_ratio) * l2)
        )

    def subgradient_optimality(
        self, beta: np.ndarray, w: np.ndarray | None = None
    ) -> float:
        """Max violation of the coordinate-wise KKT conditions.

        Zero (to tolerance) at the optimum: for active coordinates the
        smooth-part gradient must cancel the L1 subgradient; for inactive
        ones it must lie within the L1 threshold.
        """
        csc = self.dataset.csc
        if w is None:
            w = csc.matvec(beta)
        grad_smooth = (
            csc.rmatvec(w.astype(np.float64) - self.y.astype(np.float64)) / self.n
            + self.lam * (1.0 - self.l1_ratio) * beta
        )
        t = self.lam * self.l1_ratio
        active = beta != 0
        viol_active = np.abs(grad_smooth[active] + t * np.sign(beta[active]))
        viol_inactive = np.maximum(np.abs(grad_smooth[~active]) - t, 0.0)
        parts = [v.max() for v in (viol_active, viol_inactive) if v.size]
        return float(max(parts)) if parts else 0.0
