"""Functional emulation of the TPA-SCD GPU kernel (Algorithm 2).

This module states, at the numerical level, what one epoch of TPA-SCD does
on real hardware:

* **Level-1 parallelism** — each coordinate is one thread block; the block
  scheduler keeps ``spec.resident_blocks`` blocks concurrently resident on
  the SMs.  We execute the epoch in *waves* of that size: all blocks in a
  wave read the shared vector as it stood when the wave was scheduled
  (this is the asynchronous-staleness window), then their atomic updates
  are all applied.  A wave size of 1 degenerates to sequential SCD, which
  the property tests exploit.
* **Level-2 parallelism** — inside a block, ``n_threads`` threads compute a
  strided partial inner product in float32 and combine the partials with a
  shared-memory *tree reduction*, exactly as the pseudo-code: lane ``u``
  accumulates elements ``u, u + n_threads, ...`` in order, then
  ``cache[u] += cache[u + v]`` for ``v = n_threads/2, n_threads/4, ..., 1``.
  We reproduce that arithmetic (order and precision) rather than calling a
  fused dot product, so the float32 rounding behaviour of the simulated
  kernel matches the real one's character.
* **Atomic write-back** — every shared-vector contribution is applied
  (float32 atomic adds never lose updates).

Two definitions of those semantics live here and only tests call them:
:func:`block_tree_dots` (the thread-block arithmetic) and
:func:`reference_epoch` (a rule-generic epoch written the obvious way).
:class:`TpaScdEngine` is the ridge binding of the one production wave loop
in :mod:`repro.gpu.glm_engine`, which must match them bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..obs import NULL_TRACER
from ..solvers.kernels import gather_chunk
from .glm_engine import RidgeDualRule, RidgePrimalRule, _bind_plan, _run_waves
from .plan import WavePlan
from .profiler import KernelProfile

__all__ = ["block_tree_dots", "reference_epoch", "TpaScdEngine"]


def block_tree_dots(
    flat_vals: np.ndarray,
    flat_gathered: np.ndarray,
    seg_ptr: np.ndarray,
    n_threads: int,
    dtype=np.float32,
) -> np.ndarray:
    """Per-coordinate inner products using the thread-block arithmetic.

    ``flat_vals`` and ``flat_gathered`` are the per-nonzero factor pairs for
    all coordinates of one wave, concatenated; ``seg_ptr`` delimits the
    coordinates.  Lane assignment and reduction order replicate Algorithm 2.
    """
    n_coords = seg_ptr.shape[0] - 1
    if n_coords == 0:
        return np.zeros(0, dtype=dtype)
    prods = (flat_vals * flat_gathered).astype(dtype, copy=False)
    lengths = np.diff(seg_ptr)
    seg_ids = np.repeat(np.arange(n_coords), lengths)
    pos_in_seg = np.arange(prods.shape[0]) - np.repeat(seg_ptr[:-1], lengths)
    lanes = pos_in_seg % n_threads

    # per-(block, lane) strided accumulation, in flat (i.e. stride) order —
    # the same order a CUDA thread walks i = u, u + n_threads, ...
    cache = np.zeros((n_coords, n_threads), dtype=dtype)
    np.add.at(cache, (seg_ids, lanes), prods)

    # shared-memory tree reduction: cache[u] += cache[u + v]
    v = n_threads // 2
    while v:
        cache[:, :v] += cache[:, v : 2 * v]
        v //= 2
    return cache[:, 0].copy()


def reference_epoch(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    rule,
    weights: np.ndarray,
    shared: np.ndarray,
    perm: np.ndarray,
    *,
    wave_size: int,
    n_threads: int,
    y: np.ndarray | None = None,
    dtype=np.float32,
    tracer=None,
) -> int:
    """Reference semantics of one epoch for any coordinate rule (tests only).

    Every wave re-derives its gather with
    :func:`~repro.solvers.kernels.gather_chunk`, takes its inner products
    through :func:`block_tree_dots` and scatters through the unbuffered,
    ordered ``np.add.at``.  A ``tracer`` receives the brute-force wave
    counters the production loop has to reproduce.
    """
    dt = np.dtype(dtype)
    data = data.astype(dt, copy=False)
    for start in range(0, perm.shape[0], wave_size):
        coords = perm[start : start + wave_size]
        flat_idx, flat_val, seg_ptr = gather_chunk(indptr, indices, data, coords)
        nnz = int(flat_idx.shape[0])
        if tracer is not None:
            tracer.count("gpu.waves")
            tracer.count("gpu.nnz_processed", nnz)
            if nnz:
                tracer.count(
                    "gpu.atomic_conflicts", nnz - int(np.unique(flat_idx).shape[0])
                )
        gathered = shared[flat_idx]
        if rule.needs == "residual":
            gathered = y[flat_idx] - gathered
        dots = block_tree_dots(
            flat_val, gathered.astype(dt, copy=False), seg_ptr, n_threads, dtype=dt
        )
        deltas = rule.deltas(coords, dots, weights[coords])
        weights[coords] += deltas
        scaled = (deltas * rule.shared_scale(coords)).astype(dt, copy=False)
        np.add.at(shared, flat_idx, flat_val * np.repeat(scaled, np.diff(seg_ptr)))
    return 0


class TpaScdEngine:
    """One bound ridge TPA-SCD kernel: data arrays + the planned wave loop.

    Parameters
    ----------
    indptr, indices, data:
        The coordinate-major compressed arrays (CSC columns for primal,
        CSR rows for dual); ``data`` is cast to ``dtype``.
    wave_size:
        Number of concurrently resident thread blocks (staleness window).
    n_threads:
        Threads per block used for the strided partials / tree reduction.
    plan:
        Inject a pre-compiled plan; by default the module-wide plan cache
        is consulted (:func:`~repro.gpu.plan.get_plan`).
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        *,
        wave_size: int,
        n_threads: int,
        dtype=np.float32,
        profiler: KernelProfile | None = None,
        tracer=None,
        plan: WavePlan | None = None,
    ) -> None:
        self.dtype = np.dtype(dtype)
        self.plan = _bind_plan(indptr, wave_size, n_threads, self.dtype, plan)
        self.indptr = indptr
        self.indices = indices
        self.data = data.astype(self.dtype, copy=False)
        self.profiler = profiler
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def _run(self, rule, y, weights, shared, perm) -> int:
        return _run_waves(
            self.plan, self.indices, self.data, rule, y, weights, shared, perm,
            profiler=self.profiler, tracer=self.tracer, span="tpa",
        )

    def run_primal_epoch(
        self,
        y: np.ndarray,
        inv_denom: np.ndarray,
        nlam: float,
        beta: np.ndarray,
        w: np.ndarray,
        perm: np.ndarray,
    ) -> int:
        """One primal epoch: blocks compute ``<y - w, a_m>`` then update.

        Returns 0 (atomic writes never lose updates), matching the
        :class:`~repro.solvers.base.BoundKernel` contract.
        """
        rule = RidgePrimalRule.from_arrays(inv_denom, nlam)
        return self._run(rule, y, beta, w, perm)

    def run_dual_epoch(
        self,
        y_local: np.ndarray,
        inv_denom: np.ndarray,
        lam: float,
        nlam: float,
        alpha: np.ndarray,
        wbar: np.ndarray,
        perm: np.ndarray,
    ) -> int:
        """One dual epoch: blocks compute ``<wbar, a_n>`` then update."""
        rule = RidgeDualRule.from_arrays(y_local, inv_denom, lam, nlam)
        return self._run(rule, None, alpha, wbar, perm)
