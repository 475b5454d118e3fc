"""Ridge regression: primal and dual objectives, duality gap, exact solvers.

Implements Section II of the paper verbatim:

* primal:  P(beta) = 1/(2N) ||A beta - y||^2 + lambda/2 ||beta||^2      (Eq. 1)
* dual:    D(alpha) = -N/2 ||alpha||^2 - 1/(2 lambda) ||A^T alpha||^2
                      + alpha^T y                                       (Eq. 3)
* optimality mappings beta* = A^T alpha* / lambda (Eq. 5) and
  alpha* = (y - A beta*) / N (Eq. 6)
* duality gaps G_P, G_D used as the universal convergence metric in every
  figure of the evaluation.

From ``repro.sparse.matrix.NATIVE_MIN_NNZ`` float64 nonzeros up the gap
reads the data in row passes over the CSR layout (``repro/native/sparse.c``):
``A beta`` is summed row by row, and the primal gap forms ``w = A beta``,
``alpha = (y - w) / N`` and ``A^T alpha`` in one read of each row.  The bits
are those of ``CscMatrix.matvec`` then ``CsrMatrix.rmatvec`` whenever every
row's column indices are non-decreasing, which every constructor in the
package produces.  Below the crossover, without a C compiler and for a
matrix with a decreasing row, those two products run instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import Dataset
from ..sparse import matrix as sparse_matrix

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
    paper evaluates the model itself.  A primal call reads the data once
    (``w``, the dual candidate and its ``A^T alpha`` in one row pass) and
    forms ``P`` once; a dual call costs two products (``A^T alpha``, then
    ``A beta`` for the conjugate) and forms ``D`` once.
    """
    if formulation == "primal":
        w, alpha, wbar = problem.primal_gap_vectors(weights)
        primal = problem.primal_objective(weights, w)
        return abs(primal - problem.dual_objective(alpha, wbar)), primal
    wbar = problem.dual_shared_vector(weights)
    dual = problem.dual_objective(weights, wbar)
    return abs(problem.primal_objective(wbar / problem.lam) - dual), dual


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
        """Primal shared vector ``w = A beta`` (length N).

        ``sparse.c`` sums it row by row over the CSR layout, bitwise
        ``dataset.csc.matvec(beta)``, so a dual run on the compiled kernels
        never builds the CSC copy to monitor its gap.
        """
        out = _native_row_pass(self.dataset.csr, beta)
        return self.dataset.csc.matvec(beta) if out is None else out[0]

    def dual_shared_vector(self, alpha: np.ndarray) -> np.ndarray:
        """Dual shared vector ``wbar = A^T alpha`` (length M)."""
        return self.dataset.csr.rmatvec(alpha)

    def primal_gap_vectors(
        self, beta: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(w, alpha, wbar)``: ``w = A beta``, the dual candidate
        ``alpha = (y - w) / N`` (Eq. 6) and ``wbar = A^T alpha``.

        One read of the CSR layout when ``sparse.c`` takes it, otherwise
        ``csc.matvec`` then :meth:`dual_shared_vector`; the bits are the
        same.
        """
        out = _native_row_pass(self.dataset.csr, beta, self.y, self.n)
        if out is not None:
            return out
        w = self.dataset.csc.matvec(beta)
        alpha = (self.y - w) / self.n
        return w, alpha, self.dual_shared_vector(alpha)

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
            w, alpha, wbar = self.primal_gap_vectors(beta)
        else:
            alpha, wbar = (self.y - w) / self.n, None
        return abs(self.primal_objective(beta, w) - self.dual_objective(alpha, wbar))

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


#: ``sparse.c``'s status for a row whose column indices decrease: not a
#: defect, but the row passes then do not replay ``CscMatrix.matvec``
_ROW_ORDER = 6


def _native_row_pass(csr, beta, y=None, n=0) -> tuple[np.ndarray, ...] | None:
    """``sparse.c``'s row pass over ``csr``: ``(w,)`` from
    ``sparse_row_sums``, or with ``y`` and ``n`` ``(w, alpha, wbar)`` from
    ``sparse_gap_pass``.

    Returns ``None``, and the caller runs the two products, below :data:`~repro.sparse.matrix.NATIVE_MIN_NNZ` nonzeros, unless every
    operand is a float64 one (float64 data, and ``beta`` and ``y`` vectors
    numpy would promote to float64), when the library does not load, and
    when a row's column indices decrease.  A defect of the structure is a
    ``ValueError`` naming it, as for the products.
    """
    if beta.shape[0] != csr.shape[1]:
        raise ValueError(
            f"operand has length {beta.shape[0]}, expected {csr.shape[1]}"
        )
    if csr.nnz < sparse_matrix.NATIVE_MIN_NNZ or not (
        csr.data.dtype == np.float64
        and beta.ndim == 1
        and np.result_type(csr.data, beta) == np.float64
        and (y is None or np.result_type(y, np.float64) == np.float64)
    ):
        return None
    from .. import native

    try:
        lib = native.load_native()
    except native.NativeUnavailableError:
        return None
    n_rows, n_cols = csr.shape
    beta = np.ascontiguousarray(beta, np.float64)
    w = np.empty(n_rows, np.float64)
    args = [
        native.address(csr.indptr, np.int64, "indptr", n_rows + 1),
        native.address(csr.indices, np.int64, "indices"),
        native.address(csr.data, np.float64, "data", csr.nnz),
        n_rows, n_cols, csr.nnz,
        native.address(beta, np.float64, "beta"),
    ]
    if y is None:
        out: tuple[np.ndarray, ...] = (w,)
        status = lib.sparse_row_sums(
            *args, native.address(w, np.float64, "w", writeable=True)
        )
    else:
        y = np.ascontiguousarray(y, np.float64)
        alpha = np.empty(n_rows, np.float64)
        wbar = np.zeros(n_cols, np.float64)
        out = (w, alpha, wbar)
        status = lib.sparse_gap_pass(
            *args,
            native.address(y, np.float64, "y", n_rows),
            float(n),
            *(native.address(v, np.float64, name, writeable=True)
              for v, name in zip(out, ("w", "alpha", "wbar"))),
        )
    if status == _ROW_ORDER:
        return None
    if status:
        raise ValueError(f"CsrMatrix: {sparse_matrix._NATIVE_DEFECTS[status]}")
    return out


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
