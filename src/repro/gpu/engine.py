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
:class:`TpaScdEngine` runs ridge epochs through their compiled twin
(``tpa_epoch`` in ``repro/native/tpa.c``, one foreign call per epoch) and,
where that library cannot be built or the engine is not float32, through
the numpy wave loop of :mod:`repro.gpu.glm_engine`.  Both must match the
reference bit for bit.
"""

from __future__ import annotations

import numpy as np

from .. import native
from ..obs import NULL_SPAN, NULL_TRACER
from ..solvers.kernels import gather_chunk
from .glm_engine import RidgeDualRule, RidgePrimalRule, _run_waves
from .plan import check_geometry, get_plan
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


#: the slots ``tpa_epoch`` fills when an epoch is observed (``enum`` in tpa.c)
_STATS = ("waves", "blocks", "nnz", "conflicts", "min_nnz", "max_nnz", "lanes_active")


def _float32_scalar(value, name: str) -> float:
    """``value`` as the float32 numpy computes the reference update with.

    A Python number or a float32 scalar enters numpy's float32 arithmetic as
    a float32; a wider numpy scalar would promote the reference's update to
    float64, which the float32 kernel does not replay.
    """
    if isinstance(value, np.generic):
        ok = value.dtype == np.float32
    else:
        ok = isinstance(value, (int, float))
    if not ok:
        raise ValueError(
            f"native kernel: {name} must be a Python number or a float32 "
            f"scalar, got {type(value).__name__}"
        )
    return float(value)


class _NativeWaveLoop:
    """``tpa_epoch`` bound to one matrix (see ``repro/native/tpa.c``).

    The matrix arrays are checked here (dtype, C order, lengths, index
    bounds) and the caller's vectors, scalars and permutation once per
    epoch in :meth:`bind`, always before the first foreign call.
    """

    def __init__(self, lib, indptr, indices, data, *, wave_size: int, n_threads: int):
        self._head = (
            native.address(indptr, np.int64, "indptr"),
            native.address(indices, np.int64, "indices"),
            native.address(data, np.float32, "data", indices.shape[0]),
        )
        nnz = indices.shape[0]
        self.n_coords = indptr.shape[0] - 1
        if self.n_coords < 0 or indptr.min() < 0 or indptr.max() > nnz:
            raise ValueError("native kernel: indptr points outside indices")
        if nnz and indices.min() < 0:
            raise ValueError("native kernel: indices must be non-negative")
        #: the shortest shared vector every index fits in
        self.n_minor = int(indices.max()) + 1 if nnz else 0
        # the arrays behind the addresses above stay alive with the binding
        self._arrays = (indptr, indices, data)
        self._fn = lib.tpa_epoch
        self.wave_size = wave_size
        self.n_threads = n_threads

    def bind(self, y, inv_denom, lam, nlam, weights, shared, perm, *,
             dual: bool, observe: bool):
        """Check one epoch's arguments; return ``run(lo, hi)`` over ``perm[lo:hi]``.

        ``run`` returns the range's wave counters (a dict keyed by
        ``_STATS``) when ``observe`` is set, else ``None``.
        """
        n = self.n_coords
        shared_addr = native.address(shared, np.float32, "shared", writeable=True)
        n_shared = shared.shape[0]
        if n_shared < self.n_minor:
            raise ValueError(f"native kernel: indices outside [0, {n_shared})")
        args = (
            *self._head,
            native.address(y, np.float32, "y", n if dual else n_shared),
            native.address(inv_denom, np.float32, "inv_denom", n),
            _float32_scalar(lam, "lam"),
            _float32_scalar(nlam, "nlam"),
            native.address(weights, np.float32, "weights", n, writeable=True),
            shared_addr,
        )
        base = native.address(perm, np.int64, "perm")
        if perm.shape[0] and (perm.min() < 0 or perm.max() >= n):
            raise ValueError(f"native kernel: perm outside [0, {n})")
        geometry = (self.wave_size, self.n_threads, int(dual))
        scratch = np.empty(
            self.n_threads + 2 * min(self.wave_size, perm.shape[0]), np.float32
        )
        stats = np.empty(len(_STATS), np.int64) if observe else None
        marks = np.zeros(n_shared, np.uint8) if observe else None
        fn = self._fn
        step = perm.itemsize

        def run(lo: int, hi: int) -> dict[str, int] | None:
            fn(
                *args, base + step * lo, hi - lo, *geometry, scratch.ctypes.data,
                None if stats is None else stats.ctypes.data,
                None if marks is None else marks.ctypes.data,
            )
            return None if stats is None else dict(zip(_STATS, stats.tolist()))

        return run


class TpaScdEngine:
    """One bound ridge TPA-SCD kernel: the data arrays and their wave loop.

    A float32 engine runs every epoch as one call of the compiled
    ``tpa_epoch`` (:mod:`repro.native`).  Where that library cannot be
    built, and for other dtypes, the engine runs the numpy wave loop
    through a :class:`~repro.gpu.plan.WavePlan` from the module-wide plan
    cache.  The two are bit-identical; :attr:`backend` says which one runs.

    Parameters
    ----------
    indptr, indices, data:
        The coordinate-major compressed arrays (CSC columns for primal,
        CSR rows for dual); ``data`` is cast to ``dtype``.
    wave_size:
        Number of concurrently resident thread blocks (staleness window).
    n_threads:
        Threads per block used for the strided partials / tree reduction.
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
    ) -> None:
        check_geometry(wave_size, n_threads)
        self.dtype = np.dtype(dtype)
        self.wave_size = int(wave_size)
        self.n_threads = int(n_threads)
        self.indptr = indptr
        self.indices = indices
        self.data = data.astype(self.dtype, copy=False)
        self.profiler = profiler
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._native = self._bind_native() if self.dtype == np.float32 else None
        self.plan = None if self._native is not None else get_plan(
            indptr, wave_size=self.wave_size, n_threads=self.n_threads, dtype=self.dtype
        )

    def _bind_native(self) -> _NativeWaveLoop | None:
        try:
            lib = native.load_native()
        except native.NativeUnavailableError:
            return None
        return _NativeWaveLoop(
            lib, self.indptr, self.indices, self.data,
            wave_size=self.wave_size, n_threads=self.n_threads,
        )

    @property
    def backend(self) -> str:
        """``"native"`` (compiled ``tpa_epoch``) or ``"numpy"`` (planned wave loop)."""
        return "numpy" if self._native is None else "native"

    def _run_planned(self, rule, y, weights, shared, perm) -> int:
        return _run_waves(
            self.plan, self.indices, self.data, rule, y, weights, shared, perm,
            profiler=self.profiler, tracer=self.tracer, span="tpa",
        )

    def _run_native(self, y, inv_denom, lam, nlam, weights, shared, perm, *,
                    dual: bool) -> int:
        """One foreign call per epoch; one per wave under a wave-detail tracer.

        Observing asks the same kernel for its wave counters; it never
        changes the arithmetic.
        """
        tracer, profiler = self.tracer, self.profiler
        run = self._native.bind(
            y, inv_denom, lam, nlam, weights, shared, perm,
            dual=dual, observe=tracer.enabled or profiler is not None,
        )
        n = int(perm.shape[0])
        with tracer.span(
            "tpa.epoch", category="gpu", n_coords=n, wave_size=self.wave_size
        ) if tracer.enabled else NULL_SPAN:
            if tracer.enabled and tracer.detail == "wave":
                for s in range(0, n, self.wave_size):
                    e = min(s + self.wave_size, n)
                    with tracer.span("tpa.wave", category="gpu", blocks=e - s):
                        self._book(run(s, e))
            else:
                self._book(run(0, n))
        return 0

    def _book(self, stats: dict[str, int] | None) -> None:
        """Hand observed wave counters to the tracer and the profiler."""
        if stats is None:
            return
        if self.tracer.enabled:
            self.tracer.count("gpu.waves", stats["waves"])
            self.tracer.count("gpu.nnz_processed", stats["nnz"])
            if stats["nnz"]:
                self.tracer.count("gpu.atomic_conflicts", stats["conflicts"])
        if self.profiler is not None:
            self.profiler.record_waves(self.n_threads, **stats)

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
        if self._native is None:
            rule = RidgePrimalRule.from_arrays(inv_denom, nlam)
            return self._run_planned(rule, y, beta, w, perm)
        return self._run_native(y, inv_denom, 0.0, nlam, beta, w, perm, dual=False)

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
        if self._native is None:
            rule = RidgeDualRule.from_arrays(y_local, inv_denom, lam, nlam)
            return self._run_planned(rule, None, alpha, wbar, perm)
        return self._run_native(
            y_local, inv_denom, lam, nlam, alpha, wbar, perm, dual=True
        )
