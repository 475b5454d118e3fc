"""Algorithm 2 for any GLM coordinate rule: the rules and their engine.

The paper motivates stochastic coordinate methods beyond ridge regression —
"other problems such as regression with elastic net regularization as well
as support vector machines."  TPA-SCD's two-level parallel structure is
agnostic to the per-coordinate math: a thread block always (1) gathers its
coordinate's nonzeros, (2) computes an inner product against the shared
vector (or the residual) via the strided/tree-reduced arithmetic, (3)
applies a closed-form scalar update, (4) atomically scatters the scaled
column/row back into the shared vector.

Only step (3) — and the scaling of step (4) — is objective specific, so a
:class:`CoordinateRule` states both in numpy and names the ``tpa.c`` case
that replays them; :class:`GlmTpaEngine` runs the rule on the engine's one
wave loop (:mod:`repro.gpu.engine`):

* :class:`RidgePrimalRule` / :class:`RidgeDualRule` are Algorithm 2 itself;
* :class:`ElasticNetPrimalRule` soft-thresholds (Friedman et al. [4]);
* :class:`SvmDualRule` applies the box-clipped SDCA step ([9]).

Both loops' arithmetic is pinned bit for bit against
:func:`repro.gpu.engine.reference_epoch` by ``tests/test_plan_runtime.py``.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from .engine import RidgeDualRule, RidgePrimalRule, _WaveEngine
from .profiler import KernelProfile

__all__ = [
    "CoordinateRule",
    "RidgePrimalRule",
    "RidgeDualRule",
    "ElasticNetPrimalRule",
    "SvmDualRule",
    "GlmTpaEngine",
]


@runtime_checkable
class CoordinateRule(Protocol):
    """Objective-specific scalar update, vectorized over a wave."""

    #: ``"residual"`` gathers ``y - shared`` for the inner products (primal
    #: least-squares rules); ``"shared"`` gathers the shared vector itself
    needs: str

    #: ``(case, arrays, scalars)``: the ``tpa.c`` case that replays
    #: :meth:`deltas` and :meth:`shared_scale` in float32, then the names of
    #: the per-coordinate arrays and of the scalars it reads, in the case's
    #: order
    native: tuple[str, tuple[str, ...], tuple[str, ...]]

    def deltas(
        self, coords: np.ndarray, dots: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Closed-form weight changes for the wave's coordinates."""
        ...

    def shared_scale(self, coords: np.ndarray) -> np.ndarray | float:
        """Multiplier applied to ``deltas`` when scattering into shared."""
        ...


class ElasticNetPrimalRule:
    """Soft-thresholded coordinate minimizer of the elastic net.

    With ``l1_ratio = 0`` this reduces exactly to :class:`RidgePrimalRule`'s
    update (tested), so the generalized engine strictly extends Algorithm 2.
    """

    needs = "residual"
    native = ("elastic_net", ("norms", "inv_denom"), ("inv_n", "threshold"))

    def __init__(
        self,
        norms_sq: np.ndarray,
        n: int,
        lam: float,
        l1_ratio: float,
        dtype=np.float32,
    ):
        dt = np.dtype(dtype)
        if not 0.0 <= l1_ratio <= 1.0:
            raise ValueError("l1_ratio must be in [0, 1]")
        self.norms = norms_sq.astype(dt)
        self.inv_n = dt.type(1.0 / n)
        self.threshold = dt.type(lam * l1_ratio)
        self.inv_denom = (
            1.0 / (norms_sq.astype(np.float64) / n + lam * (1.0 - l1_ratio))
        ).astype(dt)

    def deltas(self, coords, dots, weights):
        # rho = (<y - w, a_m> + ||a_m||^2 beta_m) / N
        rho = (dots + self.norms[coords] * weights) * self.inv_n
        shrunk = np.sign(rho) * np.maximum(np.abs(rho) - self.threshold, 0.0)
        new = (shrunk * self.inv_denom[coords]).astype(dots.dtype)
        return new - weights

    def shared_scale(self, coords):
        return 1.0


class SvmDualRule:
    """Box-clipped SDCA step for the hinge-loss SVM.

    The shared vector is the primal ``w`` itself; a coordinate's scatter is
    scaled by ``y_i / (lam N)`` (the SDCA primal-dual mapping).
    """

    needs = "shared"
    native = ("svm", ("y", "inv_norms", "zero_norm", "scale"), ("lam_n",))

    def __init__(
        self, y_local: np.ndarray, norms_sq: np.ndarray, n: int, lam: float, dtype=np.float32
    ):
        dt = np.dtype(dtype)
        self.y = y_local.astype(dt, copy=False)
        self.lam_n = dt.type(lam * n)
        norms64 = norms_sq.astype(np.float64)
        with np.errstate(divide="ignore"):
            inv = np.where(norms64 > 0.0, 1.0 / norms64, 0.0)
        self.inv_norms = inv.astype(dt)
        self.zero_norm = (norms64 <= 0.0).astype(dt)
        self.scale = (self.y / (lam * n)).astype(dt)

    def deltas(self, coords, dots, weights):
        grad = self.lam_n * (1.0 - self.y[coords] * dots) * self.inv_norms[coords]
        # zero-norm rows: dual maximizer is alpha = 1
        unconstrained = weights + grad + self.zero_norm[coords] * (1.0 - weights - grad)
        new = np.clip(unconstrained, 0.0, 1.0)
        return (new - weights).astype(dots.dtype)

    def shared_scale(self, coords):
        return self.scale[coords]


class GlmTpaEngine(_WaveEngine):
    """Wave-scheduled thread-block execution for any :class:`CoordinateRule`.

    ``indptr, indices, data`` are the coordinate-major compressed arrays
    (CSC columns for primal rules, CSR rows for dual ones); ``wave_size`` is
    the number of concurrently resident thread blocks (the staleness
    window; 1 degenerates to sequential SCD) and ``n_threads`` the threads
    per block of the strided partials / tree reduction.  A float32 engine
    runs every epoch as one call of the compiled ``tpa_epoch`` wherever the
    kernel library loads; :attr:`backend` says which loop runs.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        *,
        rule: CoordinateRule,
        wave_size: int,
        n_threads: int,
        dtype=np.float32,
        y: np.ndarray | None = None,
        profiler: KernelProfile | None = None,
        tracer=None,
    ) -> None:
        if rule.needs not in ("residual", "shared"):
            raise ValueError(f"rule.needs must be residual|shared, got {rule.needs!r}")
        if rule.needs == "residual" and y is None:
            raise ValueError("residual rules require the label vector y")
        super().__init__(
            indptr, indices, data, wave_size=wave_size, n_threads=n_threads,
            dtype=dtype, profiler=profiler, tracer=tracer,
        )
        self.rule = rule
        self.y = None if y is None else y.astype(self.dtype, copy=False)

    def run_epoch(
        self,
        weights: np.ndarray,
        shared: np.ndarray,
        perm: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        """One pass over ``perm``; conforms to the BoundKernel contract."""
        return self._run(
            self.rule, self.y, weights, shared, perm,
            span="glm", rule=type(self.rule).__name__,
        )
