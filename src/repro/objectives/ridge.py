"""Ridge regression: primal and dual objectives, duality gap, exact solvers.

Implements Section II of the paper verbatim:

* primal:  P(beta) = 1/(2N) ||A beta - y||^2 + lambda/2 ||beta||^2      (Eq. 1)
* dual:    D(alpha) = -N/2 ||alpha||^2 - 1/(2 lambda) ||A^T alpha||^2
                      + alpha^T y                                       (Eq. 3)
* optimality mappings beta* = A^T alpha* / lambda (Eq. 5) and
  alpha* = (y - A beta*) / N (Eq. 6)
* duality gaps G_P, G_D used as the universal convergence metric in every
  figure of the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import Dataset

__all__ = [
    "RidgeProblem",
    "checked_lambda",
    "gap_and_objective",
    "primal_coordinate_delta",
    "dual_coordinate_delta",
    "solve_exact",
    "ExactSolution",
]


def checked_lambda(lam: float) -> float:
    """``lam`` as a float, or ``ValueError`` unless it is positive and finite
    (``nan <= 0`` is false, so a bare sign test lets NaN through)."""
    lam = float(lam)
    if not (0.0 < lam < np.inf):
        raise ValueError(f"lambda must be positive and finite, got {lam!r}")
    return lam


def gap_and_objective(
    problem: "RidgeProblem", weights: np.ndarray, formulation: str
) -> tuple[float, float]:
    """Offline ``(duality gap, objective)`` of an iterate under a formulation.

    The single shared monitoring helper for every ridge solver and engine:
    a primal iterate is scored with ``(G_P, P)``, a dual iterate with
    ``(G_D, D)``.  Deliberately recomputes the shared vector from the
    weights — maintained shared vectors can drift (wild writes) and the
    paper evaluates the model itself.  The recomputed vector is formed once
    and handed to both the gap and the objective, so a call costs two
    sparse products (the vector, and the one the conjugate objective
    needs), not three.
    """
    if formulation == "primal":
        w = problem.shared_vector(weights)
        return problem.primal_gap(weights, w), problem.primal_objective(weights, w)
    wbar = problem.dual_shared_vector(weights)
    return problem.dual_gap(weights, wbar), problem.dual_objective(weights, wbar)


@dataclass(frozen=True)
class ExactSolution:
    """Reference optimum produced by :func:`solve_exact`."""

    beta: np.ndarray
    alpha: np.ndarray
    primal_value: float
    dual_value: float


class RidgeProblem:
    """A ridge-regression training problem bound to a dataset.

    Parameters
    ----------
    dataset:
        The training data; both compressed layouts are reachable through it.
    lam:
        Regularization strength ``lambda > 0`` (the paper uses 1e-3 for
        webspam throughout).
    """

    def __init__(self, dataset: Dataset, lam: float) -> None:
        self.lam = checked_lambda(lam)
        self.dataset = dataset

    # -- geometry -------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of training examples N."""
        return self.dataset.n_examples

    @property
    def m(self) -> int:
        """Number of features M."""
        return self.dataset.n_features

    @property
    def y(self) -> np.ndarray:
        return self.dataset.y

    # -- shared vectors ---------------------------------------------------------
    def shared_vector(self, beta: np.ndarray) -> np.ndarray:
        """Primal shared vector ``w = A beta`` (length N)."""
        return self.dataset.csc.matvec(beta)

    def dual_shared_vector(self, alpha: np.ndarray) -> np.ndarray:
        """Dual shared vector ``wbar = A^T alpha`` (length M)."""
        return self.dataset.csr.rmatvec(alpha)

    # -- objectives -------------------------------------------------------------
    def primal_objective(
        self, beta: np.ndarray, w: np.ndarray | None = None
    ) -> float:
        """Evaluate P(beta); pass a maintained ``w = A beta`` to skip a matvec."""
        if w is None:
            w = self.shared_vector(beta)
        r = w.astype(np.float64) - self.y.astype(np.float64)
        beta64 = beta.astype(np.float64)
        return float(
            r @ r / (2.0 * self.n) + 0.5 * self.lam * (beta64 @ beta64)
        )

    def dual_objective(
        self, alpha: np.ndarray, wbar: np.ndarray | None = None
    ) -> float:
        """Evaluate D(alpha); pass ``wbar = A^T alpha`` to skip an rmatvec."""
        if wbar is None:
            wbar = self.dual_shared_vector(alpha)
        a64 = alpha.astype(np.float64)
        wb64 = wbar.astype(np.float64)
        return float(
            -0.5 * self.n * (a64 @ a64)
            - (wb64 @ wb64) / (2.0 * self.lam)
            + a64 @ self.y.astype(np.float64)
        )

    # -- optimality mappings (Eqs. 5-6) ------------------------------------------
    def beta_from_alpha(self, alpha: np.ndarray) -> np.ndarray:
        """Map a dual iterate to its primal candidate: beta = A^T alpha / lam."""
        return self.dual_shared_vector(alpha) / self.lam

    def alpha_from_beta(self, beta: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
        """Map a primal iterate to its dual candidate: alpha = (y - A beta)/N."""
        if w is None:
            w = self.shared_vector(beta)
        return (self.y - w) / self.n

    # -- duality gaps ---------------------------------------------------------------
    def primal_gap(self, beta: np.ndarray, w: np.ndarray | None = None) -> float:
        """G_P(beta) = |P(beta) - D((y - A beta)/N)|."""
        if w is None:
            w = self.shared_vector(beta)
        alpha = (self.y - w) / self.n
        return abs(self.primal_objective(beta, w) - self.dual_objective(alpha))

    def dual_gap(self, alpha: np.ndarray, wbar: np.ndarray | None = None) -> float:
        """G_D(alpha) = |P(A^T alpha / lam) - D(alpha)|."""
        if wbar is None:
            wbar = self.dual_shared_vector(alpha)
        beta = wbar / self.lam
        return abs(self.primal_objective(beta) - self.dual_objective(alpha, wbar))

    # -- optimality-condition residuals -------------------------------------------------
    def optimality_residuals(
        self, beta: np.ndarray, alpha: np.ndarray
    ) -> tuple[float, float]:
        """Relative residuals of Eq. 5 and Eq. 6.

        Used to demonstrate that PASSCoDe-Wild converges to a point violating
        the optimality conditions while the atomic algorithms do not.
        """
        lhs5 = beta
        rhs5 = self.beta_from_alpha(alpha)
        lhs6 = alpha
        rhs6 = self.alpha_from_beta(beta)
        r5 = np.linalg.norm(lhs5 - rhs5) / max(np.linalg.norm(rhs5), 1e-30)
        r6 = np.linalg.norm(lhs6 - rhs6) / max(np.linalg.norm(rhs6), 1e-30)
        return float(r5), float(r6)


def primal_coordinate_delta(
    residual_dot: float, col_norm_sq: float, beta_m: float, n: int, lam: float
) -> float:
    """Closed-form primal coordinate step (Eq. 2).

    ``residual_dot`` is ``<y - w, a_m>`` with the *current* shared vector.
    """
    return (residual_dot - n * lam * beta_m) / (col_norm_sq + n * lam)


def dual_coordinate_delta(
    wbar_dot: float, row_norm_sq: float, alpha_n: float, y_n: float, n: int, lam: float
) -> float:
    """Closed-form dual coordinate step (Eq. 4).

    ``wbar_dot`` is ``<wbar, a_n>`` with the current dual shared vector.
    """
    return (lam * y_n - wbar_dot - lam * n * alpha_n) / (lam * n + row_norm_sq)


def solve_exact(problem: RidgeProblem, *, method: str = "auto") -> ExactSolution:
    """Compute the exact optimum for validation and gap normalization.

    Solves whichever normal-equation system is smaller:

    * feature side  (M x M): ``(A^T A / N + lam I) beta = A^T y / N``
    * example side  (N x N): ``(lam N I + A A^T) alpha = lam y``

    ``method`` may be ``"auto"``, ``"primal"`` or ``"dual"``.  Dense solves
    are used — the reproduction datasets are laptop scale; for larger inputs
    callers should rely on the iterative solvers themselves.
    """
    ds = problem.dataset
    n, m, lam = problem.n, problem.m, problem.lam
    if method == "auto":
        method = "primal" if m <= n else "dual"
    dense = ds.csr.to_dense().astype(np.float64)
    y = problem.y.astype(np.float64)
    if method == "primal":
        gram = dense.T @ dense / n + lam * np.eye(m)
        beta = np.linalg.solve(gram, dense.T @ y / n)
        alpha = (y - dense @ beta) / n
    elif method == "dual":
        gram = dense @ dense.T + lam * n * np.eye(n)
        alpha = np.linalg.solve(gram, lam * y)
        beta = dense.T @ alpha / lam
    else:
        raise ValueError(f"unknown method {method!r}")
    return ExactSolution(
        beta=beta,
        alpha=alpha,
        primal_value=problem.primal_objective(beta),
        dual_value=problem.dual_objective(alpha),
    )
