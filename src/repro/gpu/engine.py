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

The wave loop exists twice.  :func:`reference_epoch` writes it the obvious
way in numpy, for any coordinate rule; ``tpa_epoch`` in
``repro/native/tpa.c`` is its compiled twin, one foreign call per epoch,
with one ``switch`` case per rule.  An engine runs the compiled loop when
the library loads and the engine is float32, and the reference otherwise;
the two are bit-identical.

TpaScd's two-level parallel structure is agnostic to the per-coordinate
math: a thread block always gathers its coordinate's nonzeros, takes an
inner product against the shared vector (or the residual), applies a
closed-form scalar update and scatters the scaled column/row back.  Only
the update, and the scaling of its scatter, is objective specific, so a
:class:`CoordinateRule` states both in numpy and names the ``tpa.c`` case
that replays them.  :class:`RidgePrimalRule` / :class:`RidgeDualRule`
(Eqs. 2 and 4) are Algorithm 2's own updates; :class:`ElasticNetPrimalRule`
soft-thresholds (Friedman et al. [4]) and :class:`SvmDualRule` applies the
box-clipped SDCA step ([9]).  :class:`TpaScdEngine` runs every rule.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from .. import native
from ..obs import NULL_SPAN, NULL_TRACER
from ..solvers.kernels import gather_chunk

__all__ = [
    "block_tree_dots",
    "check_geometry",
    "reference_epoch",
    "CoordinateRule",
    "RidgePrimalRule",
    "RidgeDualRule",
    "ElasticNetPrimalRule",
    "SvmDualRule",
    "TpaScdEngine",
]

#: the update cases of ``tpa_epoch``, in the order of tpa.c's ``RULE_*`` enum,
#: each with the number of per-coordinate arrays and of scalars it reads
_NATIVE_RULES = {
    "ridge_primal": (1, 1),
    "ridge_dual": (2, 2),
    "elastic_net": (2, 2),
    "svm": (4, 1),
}


def check_geometry(wave_size: int, n_threads: int) -> None:
    """Reject a kernel geometry Algorithm 2 cannot run: an empty wave, or a
    thread block whose tree reduction does not halve down to one lane."""
    if wave_size < 1:
        raise ValueError("wave_size must be >= 1")
    if n_threads < 1 or (n_threads & (n_threads - 1)) != 0:
        raise ValueError("n_threads must be a positive power of two")


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


class RidgePrimalRule:
    """Eq. 2: delta = (<y - w, a_m> - N lam beta_m) / (||a_m||^2 + N lam)."""

    needs = "residual"
    #: ``tpa.c``'s case for this update, the per-coordinate arrays and the
    #: scalars it reads (attribute names, in the order the case lists them)
    native = ("ridge_primal", ("inv_denom",), ("nlam",))

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
    native = ("ridge_dual", ("y", "inv_denom"), ("lam", "nlam"))

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
    /,
    *,
    wave_size: int,
    n_threads: int,
    y: np.ndarray | None = None,
    dtype=np.float32,
    tracer=None,
    span: str = "tpa",
    **span_attrs,
) -> int:
    """One epoch of Algorithm 2 over ``perm`` for any coordinate rule, in numpy.

    Every wave gathers its coordinates with
    :func:`~repro.solvers.kernels.gather_chunk`, takes its inner products
    through :func:`block_tree_dots` against the shared vector as the wave
    found it, applies the rule, and scatters through the unbuffered, ordered
    ``np.add.at``.  A ``tracer`` gets a ``<span>.epoch`` span (and a
    ``<span>.wave`` span per wave at ``detail="wave"``) and the ``gpu.*``
    wave counters.  Returns 0: float32 atomic adds never lose updates.
    """
    tracer = NULL_TRACER if tracer is None else tracer
    observed = tracer.enabled
    wave_spans = observed and tracer.detail == "wave"
    dt = np.dtype(dtype)
    data = data.astype(dt, copy=False)
    with tracer.span(
        f"{span}.epoch", category="gpu", **span_attrs,
        n_coords=int(perm.shape[0]), wave_size=wave_size,
    ) if observed else NULL_SPAN:
        for start in range(0, perm.shape[0], wave_size):
            coords = perm[start : start + wave_size]
            with tracer.span(
                f"{span}.wave", category="gpu", blocks=int(coords.shape[0])
            ) if wave_spans else NULL_SPAN:
                flat_idx, flat_val, seg_ptr = gather_chunk(indptr, indices, data, coords)
                if observed:
                    nnz = int(flat_idx.shape[0])
                    lanes = np.minimum(np.diff(seg_ptr), n_threads)
                    tracer.count("gpu.waves")
                    tracer.count("gpu.blocks", int(coords.shape[0]))
                    tracer.count("gpu.nnz_processed", nnz)
                    tracer.count("gpu.lanes_active", int(lanes.sum()))
                    tracer.count(
                        "gpu.atomic_conflicts", nnz - int(np.unique(flat_idx).shape[0])
                    )
                gathered = shared[flat_idx]
                if rule.needs == "residual":
                    gathered = y[flat_idx] - gathered
                dots = block_tree_dots(
                    flat_val, gathered.astype(dt, copy=False), seg_ptr, n_threads,
                    dtype=dt,
                )
                deltas = rule.deltas(coords, dots, weights[coords])
                weights[coords] += deltas
                scaled = (deltas * rule.shared_scale(coords)).astype(dt, copy=False)
                np.add.at(
                    shared, flat_idx, flat_val * np.repeat(scaled, np.diff(seg_ptr))
                )
    return 0


#: the tracer counters ``tpa_epoch`` fills when an epoch is observed, in the
#: order of tpa.c's ``ST_*`` slots
_STATS = (
    "gpu.waves", "gpu.blocks", "gpu.nnz_processed", "gpu.atomic_conflicts",
    "gpu.lanes_active",
)


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
    """``tpa_epoch`` bound to one matrix whose structure the engine checked.

    The data array is checked here (dtype, C order, length); the rule's
    arrays and scalars, the caller's vectors and the permutation once per
    epoch in :meth:`bind`, always before the first foreign call.
    """

    def __init__(self, lib, indptr, indices, data, *, n_minor: int,
                 wave_size: int, n_threads: int):
        self._head = (
            native.address(indptr, np.int64, "indptr"),
            native.address(indices, np.int64, "indices"),
            native.address(data, np.float32, "data", indices.shape[0]),
        )
        self.n_coords = indptr.shape[0] - 1
        #: the shortest shared vector every index fits in
        self.n_minor = n_minor
        # the arrays behind the addresses above stay alive with the binding
        self._arrays = (indptr, indices, data)
        self._fn = lib.tpa_epoch
        self.wave_size = wave_size
        self.n_threads = n_threads

    def bind(self, rule, y, weights, shared, perm, *, observe: bool):
        """Check one epoch's arguments; return ``run(lo, hi)`` over ``perm[lo:hi]``.

        ``run`` returns the range's wave counters (a dict keyed by the
        counter names of ``_STATS``) when ``observe`` is set, else ``None``.
        """
        n = self.n_coords
        shared_addr = native.address(shared, np.float32, "shared", writeable=True)
        n_shared = shared.shape[0]
        if n_shared < self.n_minor:
            raise ValueError(f"native kernel: indices outside [0, {n_shared})")
        case, arrays, scalars = rule.native
        if _NATIVE_RULES.get(case) != (len(arrays), len(scalars)):
            raise ValueError(
                f"native kernel: no tpa.c case {case!r} reads {len(arrays)} "
                f"arrays and {len(scalars)} scalars"
            )
        y_addr = (
            native.address(y, np.float32, "y", n_shared)
            if rule.needs == "residual" else None
        )
        vecs = np.array(
            [native.address(getattr(rule, a), np.float32, a, n) for a in arrays],
            dtype=np.uintp,
        )
        params = np.array(
            [_float32_scalar(getattr(rule, s), s) for s in scalars], dtype=np.float32
        )
        head = (*self._head, y_addr, list(_NATIVE_RULES).index(case))
        tail = (
            native.address(weights, np.float32, "weights", n, writeable=True),
            shared_addr,
        )
        base = native.address(perm, np.int64, "perm")
        if perm.shape[0] and (perm.min() < 0 or perm.max() >= n):
            raise ValueError(f"native kernel: perm outside [0, {n})")
        geometry = (self.wave_size, self.n_threads)
        scratch = np.empty(
            self.n_threads + 2 * min(self.wave_size, perm.shape[0]), np.float32
        )
        stats = np.empty(len(_STATS), np.int64) if observe else None
        marks = np.zeros(n_shared, np.uint8) if observe else None
        fn = self._fn
        step = perm.itemsize

        def run(lo: int, hi: int) -> dict[str, int] | None:
            fn(
                *head, vecs.ctypes.data, params.ctypes.data, *tail,
                base + step * lo, hi - lo, *geometry, scratch.ctypes.data,
                None if stats is None else stats.ctypes.data,
                None if marks is None else marks.ctypes.data,
            )
            return None if stats is None else dict(zip(_STATS, stats.tolist()))

        return run


class TpaScdEngine:
    """One bound matrix and the wave loop that runs its epochs, for any rule.

    Parameters
    ----------
    indptr, indices, data:
        The coordinate-major compressed arrays (CSC columns for primal
        rules, CSR rows for dual ones); ``data`` is cast to ``dtype``.
    wave_size:
        Number of concurrently resident thread blocks (staleness window;
        1 degenerates to sequential SCD).
    n_threads:
        Threads per block used for the strided partials / tree reduction.

    The structure check and the geometry check run first, for both loops.
    Two observable facts then choose the loop, with no option: a float32
    engine whose kernel library loads runs ``tpa_epoch``
    (:mod:`repro.native`), any other engine runs :func:`reference_epoch`.
    The two are bit-identical; :attr:`backend` says which one runs.  Both
    loops report their waves to :attr:`tracer` only.
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
        tracer=None,
    ) -> None:
        check_geometry(wave_size, n_threads)
        n_minor = native.check_structure(indptr, indices)
        self.dtype = np.dtype(dtype)
        self.wave_size = int(wave_size)
        self.n_threads = int(n_threads)
        self.indptr = indptr
        self.indices = indices
        self.data = data.astype(self.dtype, copy=False)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._native = self._bind_native(n_minor) if self.dtype == np.float32 else None

    def _bind_native(self, n_minor: int) -> _NativeWaveLoop | None:
        try:
            lib = native.load_native()
        except native.NativeUnavailableError:
            return None
        return _NativeWaveLoop(
            lib, self.indptr, self.indices, self.data, n_minor=n_minor,
            wave_size=self.wave_size, n_threads=self.n_threads,
        )

    @property
    def backend(self) -> str:
        """``"native"`` (compiled ``tpa_epoch``) or ``"numpy"`` (:func:`reference_epoch`)."""
        return "numpy" if self._native is None else "native"

    def _run(self, rule, y, weights, shared, perm, /, *, span: str, **span_attrs) -> int:
        """One epoch of ``rule`` over ``perm`` on this engine's loop."""
        if self._native is None:
            return reference_epoch(
                self.indptr, self.indices, self.data, rule, weights, shared, perm,
                wave_size=self.wave_size, n_threads=self.n_threads, y=y,
                dtype=self.dtype, tracer=self.tracer, span=span, **span_attrs,
            )
        return self._run_native(rule, y, weights, shared, perm, span=span, **span_attrs)

    def _run_native(self, rule, y, weights, shared, perm, /, *, span: str,
                    **span_attrs) -> int:
        """One foreign call per epoch; one per wave under a wave-detail tracer.

        Observing asks the same kernel for its wave counters; it never
        changes the arithmetic.
        """
        tracer = self.tracer
        run = self._native.bind(rule, y, weights, shared, perm, observe=tracer.enabled)
        n = int(perm.shape[0])
        with tracer.span(
            f"{span}.epoch", category="gpu", **span_attrs, n_coords=n,
            wave_size=self.wave_size,
        ) if tracer.enabled else NULL_SPAN:
            if tracer.enabled and tracer.detail == "wave":
                for s in range(0, n, self.wave_size):
                    e = min(s + self.wave_size, n)
                    with tracer.span(f"{span}.wave", category="gpu", blocks=e - s):
                        self._book(run(s, e))
            else:
                self._book(run(0, n))
        return 0

    def _book(self, stats: dict[str, int] | None) -> None:
        """Hand observed wave counters to the tracer."""
        if stats is not None:
            for name, value in stats.items():
                self.tracer.count(name, value)

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
        return self._run(rule, y, beta, w, perm, span="tpa")

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
        return self._run(rule, None, alpha, wbar, perm, span="tpa")

    def run_epoch(
        self,
        rule: CoordinateRule,
        weights: np.ndarray,
        shared: np.ndarray,
        perm: np.ndarray,
        *,
        y: np.ndarray | None = None,
    ) -> int:
        """One epoch of any :class:`CoordinateRule` over ``perm``.

        A ``"residual"`` rule needs the label vector ``y``; returns 0, like
        the ridge epochs.
        """
        if rule.needs not in ("residual", "shared"):
            raise ValueError(f"rule.needs must be residual|shared, got {rule.needs!r}")
        if rule.needs == "residual" and y is None:
            raise ValueError("residual rules require the label vector y")
        if y is not None:
            y = y.astype(self.dtype, copy=False)
        return self._run(
            rule, y, weights, shared, perm, span="glm", rule=type(rule).__name__
        )
