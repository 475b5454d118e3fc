"""Algorithm 2's wave loop, stated once for any GLM coordinate rule.

The paper motivates stochastic coordinate methods beyond ridge regression —
"other problems such as regression with elastic net regularization as well
as support vector machines."  TPA-SCD's two-level parallel structure is
agnostic to the per-coordinate math: a thread block always (1) gathers its
coordinate's nonzeros, (2) computes an inner product against the shared
vector (or the residual) via the strided/tree-reduced arithmetic, (3)
applies a closed-form scalar update, (4) atomically scatters the scaled
column/row back into the shared vector.

Only step (3) — and the scaling of step (4) — is objective specific, so the
numpy wave loop in this module delegates both to a
:class:`CoordinateRule` and runs everything else through a compiled,
pooled :class:`~repro.gpu.plan.WavePlan` (per-epoch bulk gathers,
slice-only waves, assignment-style reductions, zero steady-state
allocations):

* :class:`RidgePrimalRule` / :class:`RidgeDualRule` are Algorithm 2 itself;
  :class:`~repro.gpu.engine.TpaScdEngine` runs them in C
  (``repro/native/tpa.c``) and binds them to this loop only when the
  compiled library is unavailable or the engine is not float32;
* :class:`ElasticNetPrimalRule` soft-thresholds (Friedman et al. [4]);
* :class:`SvmDualRule` applies the box-clipped SDCA step ([9]).

The loop's arithmetic is pinned bit for bit against
:func:`repro.gpu.engine.reference_epoch` by ``tests/test_plan_runtime.py``.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from ..obs import NULL_SPAN, NULL_TRACER
from .plan import WavePlan, get_plan
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

    def deltas(
        self, coords: np.ndarray, dots: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Closed-form weight changes for the wave's coordinates."""
        ...

    def shared_scale(self, coords: np.ndarray) -> np.ndarray | float:
        """Multiplier applied to ``deltas`` when scattering into shared."""
        ...


class RidgePrimalRule:
    """Eq. 2: delta = (<y - w, a_m> - N lam beta_m) / (||a_m||^2 + N lam)."""

    needs = "residual"

    def __init__(self, norms_sq: np.ndarray, n: int, lam: float, dtype=np.float32):
        dt = np.dtype(dtype)
        self.nlam = dt.type(n * lam)
        self.inv_denom = (1.0 / (norms_sq.astype(np.float64) + n * lam)).astype(dt)

    @classmethod
    def from_arrays(cls, inv_denom: np.ndarray, nlam) -> "RidgePrimalRule":
        """Bind a precomputed ``1 / (||a_m||^2 + N lam)`` and ``N lam`` as given."""
        rule = cls.__new__(cls)
        rule.nlam, rule.inv_denom = nlam, inv_denom
        return rule

    def deltas(self, coords, dots, weights):
        return ((dots - self.nlam * weights) * self.inv_denom[coords]).astype(
            dots.dtype
        )

    def shared_scale(self, coords):
        return 1.0


class RidgeDualRule:
    """Eq. 4: delta = (lam y_n - <wbar, a_n> - lam N alpha_n) / (lam N + ||a_n||^2)."""

    needs = "shared"

    def __init__(
        self, y_local: np.ndarray, norms_sq: np.ndarray, n: int, lam: float, dtype=np.float32
    ):
        dt = np.dtype(dtype)
        self.y = y_local.astype(dt, copy=False)
        self.lam = dt.type(lam)
        self.nlam = dt.type(n * lam)
        self.inv_denom = (1.0 / (n * lam + norms_sq.astype(np.float64))).astype(dt)

    @classmethod
    def from_arrays(
        cls, y_local: np.ndarray, inv_denom: np.ndarray, lam, nlam
    ) -> "RidgeDualRule":
        """Bind labels, a precomputed ``1 / (lam N + ||a_n||^2)`` and scalars as given."""
        rule = cls.__new__(cls)
        rule.y, rule.inv_denom, rule.lam, rule.nlam = y_local, inv_denom, lam, nlam
        return rule

    def deltas(self, coords, dots, weights):
        return (
            (self.lam * self.y[coords] - dots - self.nlam * weights)
            * self.inv_denom[coords]
        ).astype(dots.dtype)

    def shared_scale(self, coords):
        return 1.0


class ElasticNetPrimalRule:
    """Soft-thresholded coordinate minimizer of the elastic net.

    With ``l1_ratio = 0`` this reduces exactly to :class:`RidgePrimalRule`'s
    update (tested), so the generalized engine strictly extends Algorithm 2.
    """

    needs = "residual"

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


def _bind_plan(indptr, wave_size: int, n_threads: int, dtype, plan) -> WavePlan:
    """``plan`` if injected, else the cached one (compiling it validates the geometry)."""
    if plan is not None:
        return plan
    return get_plan(indptr, wave_size=wave_size, n_threads=n_threads, dtype=dtype)


def _run_waves(
    plan: WavePlan, indices, data, rule, y, weights, shared, perm, /,
    *, profiler, tracer, span: str, **span_attrs,
) -> int:
    """One epoch of Algorithm 2 over ``perm`` — the numpy wave loop.

    Every block of a wave reads the shared vector as it stood when the wave
    was scheduled (the staleness window), then all their atomic updates are
    applied.  Returns 0: float32 atomic adds never lose updates.
    """
    dt = plan.dtype
    observed = tracer.enabled
    wave_spans = observed and tracer.detail == "wave"
    residual = rule.needs == "residual"
    with tracer.span(
        f"{span}.epoch", category="gpu", **span_attrs,
        n_coords=int(perm.shape[0]), wave_size=plan.wave_size,
    ) if observed else NULL_SPAN:
        # the plan's birthday-bound heuristic alone decides whether the
        # epoch conflict sort pays; observers count unclaimed waves themselves
        run = plan.begin_epoch(indices, data, perm, n_minor=int(shared.shape[0]))
        for wv in range(run.n_waves):
            s, e, a, b = run.bounds(wv)
            coords = perm[s:e]
            with tracer.span(
                f"{span}.wave", category="gpu", blocks=e - s
            ) if wave_spans else NULL_SPAN:
                if observed or profiler is not None:
                    conflicts = run.wave_conflicts(wv)
                    if conflicts is None:
                        conflicts = (b - a) - int(np.unique(run.flat_idx[a:b]).shape[0])
                if profiler is not None:
                    profiler.record_wave(
                        run.flat_idx[a:b], run.wave_seg_ptr(s, e), plan.n_threads,
                        conflicts=conflicts,
                    )
                if observed:
                    tracer.count("gpu.waves")
                    tracer.count("gpu.nnz_processed", b - a)
                    if b > a:
                        tracer.count("gpu.atomic_conflicts", conflicts)
                fv = run.flat_val[a:b]
                if residual:
                    gathered = run.gather_residual(y, shared, a, b)
                else:
                    gathered = run.gather_shared(shared, a, b)
                dots = run.block_dots(fv, gathered, wv, s, e, a, b)
                deltas = rule.deltas(coords, dots, weights[coords])
                weights[coords] += deltas
                scaled = deltas * rule.shared_scale(coords)
                contrib = run.expand_deltas(scaled.astype(dt, copy=False), wv, s, e)
                np.multiply(fv, contrib, out=contrib)
                run.scatter_shared(shared, contrib, wv, a, b)
        if observed:
            tracer.gauge("pool.bytes_reused", plan.pool.bytes_reused)
    return 0


class GlmTpaEngine:
    """Wave-scheduled thread-block execution for any :class:`CoordinateRule`.

    ``indptr, indices, data`` are the coordinate-major compressed arrays
    (CSC columns for primal rules, CSR rows for dual ones); ``wave_size`` is
    the number of concurrently resident thread blocks (the staleness
    window; 1 degenerates to sequential SCD) and ``n_threads`` the threads
    per block of the strided partials / tree reduction.  ``plan`` injects a
    pre-compiled :class:`WavePlan`; by default the module-wide plan cache
    is consulted (:func:`~repro.gpu.plan.get_plan`).
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
        plan: WavePlan | None = None,
    ) -> None:
        if rule.needs not in ("residual", "shared"):
            raise ValueError(f"rule.needs must be residual|shared, got {rule.needs!r}")
        if rule.needs == "residual" and y is None:
            raise ValueError("residual rules require the label vector y")
        self.dtype = np.dtype(dtype)
        self.plan = _bind_plan(indptr, wave_size, n_threads, self.dtype, plan)
        self.indices = indices
        self.data = data.astype(self.dtype, copy=False)
        self.rule = rule
        self.y = None if y is None else y.astype(self.dtype, copy=False)
        self.profiler = profiler
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def run_epoch(
        self,
        weights: np.ndarray,
        shared: np.ndarray,
        perm: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        """One pass over ``perm``; conforms to the BoundKernel contract."""
        return _run_waves(
            self.plan, self.indices, self.data, self.rule, self.y,
            weights, shared, perm,
            profiler=self.profiler, tracer=self.tracer,
            span="glm", rule=type(self.rule).__name__,
        )
