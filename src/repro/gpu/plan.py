"""Epoch plan compiler and pooled scratch memory for the wave kernels.

The simulated TPA-SCD hot path used to re-derive every wave's gather
metadata from scratch: ``gather_chunk`` rebuilt the flattened nonzero
ranges, ``block_tree_dots`` re-expanded segment ids / lane assignments with
``np.repeat``/``np.arange``, and both scatters went through ``np.add.at`` —
an order of magnitude slower than assignment-style reductions.  None of
that work depends on the epoch permutation except through a *gather order*,
so it can be compiled once per bound matrix and re-parameterised per epoch:

* :class:`WavePlan` — compiled from the permutation-independent structure
  (per-coordinate nnz, per-nonzero lane and depth assignments).  Cached
  module-wide keyed on ``(indptr identity, wave_size, n_threads, dtype)``
  via :func:`get_plan`.
* :meth:`WavePlan.begin_epoch` — one bulk vectorized pass per epoch builds
  the flattened gather order and index/value arrays; every wave afterwards
  is pure slicing plus O(wave) index arithmetic.
* :class:`BufferPool` — named reusable scratch arrays, so steady-state
  epochs perform **zero large allocations**; reuse is accounted in
  ``bytes_reused`` and surfaced as the ``pool.bytes_reused`` gauge.

Bit-identity with the reference semantics
(:func:`repro.gpu.engine.reference_epoch` — "the seed" below, after the
per-wave loop it replaced) is the hard constraint and is preserved by
construction:

* the per-(block, lane) float32 accumulation replays the seed's
  ``np.add.at`` order exactly: within one bucket the seed adds elements in
  flat (stride) order, i.e. in increasing *depth* (``pos // n_threads``);
  the planned kernel assigns all depth-0 elements (each bucket has at most
  one) and then applies one exact fancy ``+=`` per further depth level —
  the same sequence of rounded binary adds per bucket;
* tree-reduction levels whose source lanes hold no nonzero add exact
  ``+0.0`` to every target, so they are skipped — except when a product of
  the wave is a (signed) zero, where ``x + 0.0`` may flip ``-0.0`` to
  ``+0.0``; such waves take the full-width reduction;
* the shared-vector scatter uses buffered fancy ``+=`` only for waves the
  epoch conflict analysis proved duplicate-free (where it is bit-identical
  to ``np.add.at``) and keeps the unbuffered ordered ``np.add.at`` path
  behind the same interface otherwise.

The conflict analysis (one ``sort`` of ``wave_id * n_minor + index`` per
epoch) runs when a birthday-bound heuristic says conflict-free waves are
plausible; heavily contended epochs skip it and scatter through
``np.add.at`` — the counters are then simply not claimed
(``conflicts_known`` is False).  Observers never switch it on: a tracer or
profiler that needs unclaimed counters counts them itself.

This is the numpy side of the wave loop: the GLM rules always run here, and
ridge TPA-SCD runs here only when the compiled twin (``repro/native/tpa.c``)
is unavailable.
"""

from __future__ import annotations

import weakref

import numpy as np

__all__ = [
    "BufferPool",
    "WavePlan",
    "EpochRun",
    "get_plan",
    "plan_cache_stats",
    "clear_plan_cache",
]

#: deepest (block, lane) bucket replayed with per-depth fancy adds before
#: falling back to the seed's ordered ``np.add.at`` (still exact, just slow)
_RAKE_MAX_DEPTH = 4


def _pow2ceil(n: int) -> int:
    return 1 << max(int(n) - 1, 0).bit_length()


def check_geometry(wave_size: int, n_threads: int) -> None:
    """Reject a kernel geometry Algorithm 2 cannot run: an empty wave, or a
    thread block whose tree reduction does not halve down to one lane."""
    if wave_size < 1:
        raise ValueError("wave_size must be >= 1")
    if n_threads < 1 or (n_threads & (n_threads - 1)) != 0:
        raise ValueError("n_threads must be a positive power of two")


class BufferPool:
    """Named, reusable scratch arrays for the wave runtime.

    ``take(name, size, dtype)`` returns the first ``size`` elements of a
    cached array, growing (never shrinking) the backing allocation on
    demand.  Buffers are identified by name, so each call site owns its
    slot and aliasing is impossible by construction.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        #: bytes served from an existing backing allocation
        self.bytes_reused = 0
        #: bytes freshly allocated (cold takes and growth)
        self.bytes_allocated = 0

    def take(self, name: str, size: int, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        buf = self._buffers.get(name)
        if buf is None or buf.dtype != dtype or buf.shape[0] < size:
            buf = np.empty(max(size, 1), dtype=dtype)
            self._buffers[name] = buf
            self.bytes_allocated += buf.nbytes
        else:
            self.bytes_reused += size * dtype.itemsize
        return buf[:size]

    @property
    def resident_bytes(self) -> int:
        return sum(b.nbytes for b in self._buffers.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BufferPool({len(self._buffers)} buffers, "
            f"{self.resident_bytes:,} B resident, "
            f"{self.bytes_reused:,} B reused)"
        )


def _fill_ranges(
    starts: np.ndarray, lengths: np.ndarray, out: np.ndarray, step: int = 1
) -> None:
    """``out[:] = concat([arange(s, s + l*step, step) ...])`` without
    allocating the result.

    Same cumulative-offset trick as :func:`repro.sparse.matrix._ranges_concat`
    but writing into a pooled buffer, generalized to strided ranges.
    """
    total = out.shape[0]
    if total == 0:
        return
    out[:] = step
    seg_ends = np.cumsum(lengths)
    nonzero = lengths > 0
    first_pos = np.concatenate(([0], seg_ends[:-1]))[nonzero]
    out[first_pos] = starts[nonzero]
    prev_start = starts[nonzero][:-1]
    prev_len = lengths[nonzero][:-1]
    if first_pos.shape[0] > 1:
        out[first_pos[1:]] -= prev_start + step * prev_len - step
    np.cumsum(out, out=out)


class EpochRun:
    """One epoch's compiled wave schedule: flat gathers plus per-wave slices.

    Produced by :meth:`WavePlan.begin_epoch`; every array is a view into the
    plan's :class:`BufferPool`, valid until the next ``begin_epoch`` on the
    same plan (the engines are single-threaded and never interleave epochs
    of the same bound matrix).
    """

    __slots__ = (
        "plan",
        "n_waves",
        "seg_ptr",
        "lens",
        "order",
        "flat_idx",
        "flat_val",
        "cache_idx",
        "wave_depth",
        "conflicts_known",
        "conflicts",
        "total_conflicts",
        "_g1",
        "_g2",
        "_prods",
        "_cache",
        "_level",
    )

    def __init__(self, plan: "WavePlan") -> None:
        self.plan = plan

    def bounds(self, wave: int) -> tuple[int, int, int, int]:
        """``(s, e, a, b)``: coordinate and nonzero ranges of one wave."""
        s = wave * self.plan.wave_size
        e = min(s + self.plan.wave_size, self.seg_ptr.shape[0] - 1)
        return s, e, int(self.seg_ptr[s]), int(self.seg_ptr[e])

    def wave_seg_ptr(self, s: int, e: int) -> np.ndarray:
        """The seed-style local segment pointer of wave ``[s, e)``."""
        return self.seg_ptr[s : e + 1] - self.seg_ptr[s]

    def wave_lens(self, wave: int, s: int, e: int) -> np.ndarray:
        """Per-coordinate nonzero counts of one wave."""
        return self.lens[s:e]

    def wave_conflicts(self, wave: int) -> int | None:
        """Duplicate-write count of one wave; ``None`` when not analyzed."""
        if not self.conflicts_known:
            return None
        if self.conflicts is None:
            return 0
        return int(self.conflicts[wave])

    # -- gathers -----------------------------------------------------------
    def gather_shared(self, vec: np.ndarray, a: int, b: int) -> np.ndarray:
        """``vec[flat_idx[a:b]]`` into a pooled buffer."""
        out = self._g1[: b - a]
        vec.take(self.flat_idx[a:b], out=out)
        return out

    def gather_residual(
        self, y: np.ndarray, vec: np.ndarray, a: int, b: int
    ) -> np.ndarray:
        """``(y - vec)[flat_idx[a:b]]`` into a pooled buffer."""
        idx = self.flat_idx[a:b]
        out = self._g1[: b - a]
        tmp = self._g2[: b - a]
        y.take(idx, out=out)
        vec.take(idx, out=tmp)
        np.subtract(out, tmp, out=out)
        return out

    # -- thread-block arithmetic ------------------------------------------
    def block_dots(
        self,
        vals: np.ndarray,
        gathered: np.ndarray,
        wave: int,
        s: int,
        e: int,
        a: int,
        b: int,
    ) -> np.ndarray:
        """Per-coordinate inner products of one wave, replaying the seed's
        lane-accumulation and tree-reduction arithmetic bit for bit.

        The cache is laid out *transposed* relative to the seed —
        ``(lane, block)`` at a fixed block stride of ``wave_size`` — so
        every tree-reduction level is one contiguous vector add instead of
        a strided 2D one.  The addends per (block, lane) pair and the level
        order are unchanged, so every float operation is the seed's.
        """
        plan = self.plan
        stride = plan.wave_size
        n_blocks = e - s
        if b == a:
            out = self._cache[:n_blocks]
            out[:] = 0
            return out

        prods = self._prods[: b - a]
        np.multiply(vals, gathered, out=prods)

        # reduction width: lanes >= the matrix's max active lane are exact
        # +0.0 in the seed cache, so tree levels sourcing only them are
        # no-ops — *unless* a product of the wave is a (signed) zero, where
        # x + 0.0 can flip -0.0 to +0.0; such waves take the seed's
        # full-width reduction (the transposed cache index is independent
        # of the reduction width, so only more levels run)
        width = plan.red_width
        if width < plan.n_threads and np.count_nonzero(prods) != prods.shape[0]:
            width = plan.n_threads
        idx = self.cache_idx[a:b]

        cache = self._cache[: width * stride]
        cache[:] = 0
        depth = int(self.wave_depth[wave]) if plan.multi_depth else 1
        if depth <= 1:
            # every (block, lane) bucket holds at most one product
            cache[idx] = prods
        elif depth <= _RAKE_MAX_DEPTH:
            # deep buckets: replay the seed's per-bucket add order — depth
            # level k is conflict-free, and level k lands after level k-1
            # exactly like the flat-order ``np.add.at`` of the seed kernel.
            # Depths are gathered lazily (deep waves only), so shallow-heavy
            # epochs never pay an epoch-wide depth gather.
            d = plan.pool.take("depths_w", b - a, np.int64)
            plan.depths_flat.take(self.order[a:b], out=d)
            level = self._level[: b - a]
            np.equal(d, 0, out=level)
            cache[idx[level]] = prods[level]
            for k in range(1, depth):
                np.equal(d, k, out=level)
                cache[idx[level]] += prods[level]
        else:
            np.add.at(cache, idx, prods)

        lanes = cache.reshape(width, stride)
        v = width // 2
        while v:
            lanes[:v] += lanes[v : 2 * v]
            v //= 2
        return lanes[0, :n_blocks]

    def expand_deltas(self, deltas: np.ndarray, wave: int, s: int, e: int) -> np.ndarray:
        """Per-nonzero delta of its owning block (seed's ``np.repeat``)."""
        return np.repeat(deltas, self.wave_lens(wave, s, e))

    def scatter_shared(
        self, vec: np.ndarray, contrib: np.ndarray, wave: int, a: int, b: int
    ) -> None:
        """Apply one wave's shared-vector contributions (atomic semantics).

        Waves the epoch conflict analysis proved duplicate-free take the
        buffered fancy ``+=`` (bit-identical when every target element is
        written once); contended or un-analyzed waves keep the seed's
        unbuffered ordered ``np.add.at``.
        """
        idx = self.flat_idx[a:b]
        if self.conflicts_known and (
            self.conflicts is None or self.conflicts[wave] == 0
        ):
            vec[idx] += contrib
        else:
            np.add.at(vec, idx, contrib)


class WavePlan:
    """Permutation-independent wave metadata for one bound matrix.

    Compiled once from ``indptr`` (the coordinate-major segment structure)
    for a fixed ``(wave_size, n_threads, dtype)``; :meth:`begin_epoch`
    specialises it to an epoch permutation with one bulk vectorized pass.
    """

    def __init__(
        self, indptr: np.ndarray, *, wave_size: int, n_threads: int, dtype
    ) -> None:
        check_geometry(wave_size, n_threads)
        # a copy, not a view: the plan cache must not keep the matrix alive
        self.starts = indptr[:-1].copy()
        self.wave_size = int(wave_size)
        self.n_threads = int(n_threads)
        self.dtype = np.dtype(dtype)
        self.pool = BufferPool()
        self.n_coords = int(indptr.shape[0] - 1)
        self.nnz = int(indptr[-1])

        self.lengths = np.diff(indptr)
        #: per-coordinate bucket depth: ceil(len / n_threads)
        self.coord_depth = (self.lengths + self.n_threads - 1) // self.n_threads
        self.multi_depth = bool(self.coord_depth.max(initial=0) > 1)
        #: truncated tree-reduction width — lanes past the matrix's longest
        #: column are +0.0 in every wave's seed cache, so the reduction can
        #: start at the next power of two (== n_threads for deep matrices)
        self.red_width = min(
            _pow2ceil(int(self.lengths.max(initial=0))), self.n_threads
        )
        self._block_off: np.ndarray | None = None
        self._base_arr: np.ndarray | None = None
        if self.multi_depth:
            # per-nonzero lane and depth in *storage* order: element p of a
            # segment goes to lane p % T at depth p // T (Algorithm 2's
            # stride); only deep matrices ever consult these.  Lanes are
            # pre-scaled by the transposed cache's block stride.
            pos = np.arange(self.nnz, dtype=np.int64)
            pos -= np.repeat(indptr[:-1], self.lengths)
            self.lanes_flat = pos % self.n_threads
            self.depths_flat = pos // self.n_threads
            self._lanes_scaled = self.lanes_flat * self.wave_size
        else:
            self.lanes_flat = None
            self.depths_flat = None
            self._lanes_scaled = None

    def _block_offsets(self, k: int) -> np.ndarray:
        """``epoch position % wave_size`` — each coordinate's block column
        in the transposed cache, permutation-independent (memoized)."""
        off = self._block_off
        if off is None or off.shape[0] < k:
            off = np.arange(k, dtype=np.int64)
            off %= self.wave_size
            self._block_off = off
        return off[:k]

    def _base(self, total: int) -> np.ndarray:
        """Memoized ``arange(total)`` — the flat-position template that
        turns per-segment range concatenation into one ``np.repeat`` + add
        (NumPy's 98k-element ``cumsum`` costs ~5x a ``repeat``)."""
        base = self._base_arr
        if base is None or base.shape[0] < total:
            base = np.arange(max(total, 1), dtype=np.int64)
            self._base_arr = base
        return base[:total]

    # -- epoch specialisation ---------------------------------------------
    def begin_epoch(
        self,
        indices: np.ndarray,
        data: np.ndarray,
        perm: np.ndarray,
        *,
        n_minor: int,
        analyze_conflicts: bool | None = None,
    ) -> EpochRun:
        """Compile one epoch: bulk gathers now, pure slicing per wave.

        ``analyze_conflicts`` — True forces the per-wave duplicate-write
        analysis (tracing/profiling need exact counters), False skips it,
        and None (default) lets a birthday-bound heuristic decide whether
        conflict-free waves are plausible enough to pay for the sort.
        """
        pool = self.pool
        k = int(perm.shape[0])
        run = EpochRun(self)
        run.n_waves = -(-k // self.wave_size) if k else 0

        lens = self.lengths[perm]
        run.lens = lens
        seg_ptr = pool.take("seg_ptr", k + 1, np.int64)
        seg_ptr[0] = 0
        np.cumsum(lens, out=seg_ptr[1:])
        total = int(seg_ptr[-1])
        run.seg_ptr = seg_ptr

        # order[i] = start_j + (i - seg_ptr[j]) for flat position i of
        # segment j: one repeat + add off the arange template (NumPy's
        # cumsum over nnz elements is far slower than repeat)
        base = self._base(total)
        starts = self.starts[perm]
        np.subtract(starts, seg_ptr[:-1], out=starts)
        order = pool.take("order", total, np.int64)
        np.add(base, np.repeat(starts, lens), out=order)
        run.order = order

        run.flat_idx = pool.take("flat_idx", total, np.int64)
        indices.take(order, out=run.flat_idx)
        run.flat_val = pool.take("flat_val", total, self.dtype)
        data.take(order, out=run.flat_val)

        # the cache target of every nonzero in the transposed (lane, block)
        # layout: ``lane * wave_size + block``.  Shallow plans have lane ==
        # position-in-segment, so the whole epoch's index is one strided
        # ranges-concat off the block columns; deep plans gather the
        # compiled (pre-scaled) lane assignments through the epoch order
        run.cache_idx = pool.take("cache_idx", total, np.int64)
        if self.multi_depth:
            self._lanes_scaled.take(order, out=run.cache_idx)
            run.cache_idx += np.repeat(self._block_offsets(k), lens)
            if k:
                wave_starts = np.arange(0, k, self.wave_size, dtype=np.int64)
                run.wave_depth = np.maximum.reduceat(
                    self.coord_depth[perm], wave_starts
                )
            else:
                run.wave_depth = np.zeros(0, dtype=np.int64)
        else:
            # lane == position-in-segment, so cache_idx[i] = ws*i +
            # (block_j - ws*seg_ptr[j]) — template multiply + repeat + add
            ws = self.wave_size
            adjust = self._block_offsets(k) - ws * seg_ptr[:k]
            np.multiply(base, ws, out=run.cache_idx)
            run.cache_idx += np.repeat(adjust, lens)
            run.wave_depth = None

        # per-wave nonzero counts (for scratch sizing and the conflict
        # analysis); wave_size == 1 makes them the coordinate lengths
        if self.wave_size == 1:
            wave_nnz = lens
        else:
            wave_bounds = seg_ptr[:: self.wave_size]
            if wave_bounds.shape[0] != run.n_waves + 1:
                wave_bounds = np.append(wave_bounds, total)
            wave_nnz = np.diff(wave_bounds)

        # per-wave scratch, taken once per epoch so the wave loop touches
        # the pool dictionary zero times
        max_wnnz = int(wave_nnz.max(initial=0))
        dt = self.dtype
        run._g1 = pool.take("g1", max_wnnz, dt)
        run._g2 = pool.take("g2", max_wnnz, dt)
        run._prods = pool.take("prods", max_wnnz, dt)
        run._cache = pool.take("cache", self.n_threads * self.wave_size, dt)
        run._level = (
            pool.take("level", max_wnnz, np.bool_) if self.multi_depth else None
        )

        # per-wave duplicate-write counts: one sort per epoch replaces the
        # seed's per-wave np.unique and licences the fast scatter path
        run.conflicts_known = False
        run.conflicts = None
        run.total_conflicts = 0
        if self.wave_size == 1 or total == 0:
            # a single coordinate's minor indices are unique by construction
            run.conflicts_known = True
            return run
        if analyze_conflicts is None:
            # birthday bound: a wave of w random writes into n_minor slots is
            # conflict-free with probability ~exp(-w^2 / 2 n_minor); only pay
            # for the sort when that is non-negligible
            analyze_conflicts = max_wnnz * max_wnnz <= 4 * n_minor
        if analyze_conflicts:
            waves = np.repeat(np.arange(run.n_waves, dtype=np.int64), wave_nnz)
            keys = pool.take("keys", total, np.int64)
            np.multiply(waves, n_minor, out=keys)
            keys += run.flat_idx
            keys.sort()
            dup = pool.take("dup", max(total - 1, 0), np.bool_)
            np.equal(keys[1:], keys[:-1], out=dup)
            n_dup = int(dup.sum())
            run.conflicts_known = True
            run.total_conflicts = n_dup
            if n_dup:
                dup_waves = keys[1:][dup] // n_minor
                run.conflicts = np.bincount(dup_waves, minlength=run.n_waves)
        return run


# ---------------------------------------------------------------------------
# module-wide plan cache
# ---------------------------------------------------------------------------

_PLAN_CACHE: dict[tuple, tuple[weakref.ref, WavePlan]] = {}
_PLAN_STATS = {"hits": 0, "misses": 0, "evictions": 0}
_PLAN_CACHE_CAP = 64


def get_plan(
    indptr: np.ndarray, *, wave_size: int, n_threads: int, dtype
) -> WavePlan:
    """The cached :class:`WavePlan` for this exact ``indptr`` array.

    Keyed on the array's *identity* (plus the kernel geometry), so
    re-binding the same matrix — every epoch of a shard-streamed run, or
    repeated solves over one dataset — reuses the compiled plan and its
    buffer pool.  The cache holds ``indptr`` only weakly (a plan keeps a
    copy of what it needs): when the array is garbage-collected its entry
    is dropped and the plan freed, so a reused ``id`` never finds it.
    """
    key = (id(indptr), int(wave_size), int(n_threads), np.dtype(dtype).str)
    entry = _PLAN_CACHE.get(key)
    if entry is not None and entry[0]() is indptr:
        _PLAN_STATS["hits"] += 1
        return entry[1]
    _PLAN_STATS["misses"] += 1
    plan = WavePlan(
        indptr, wave_size=wave_size, n_threads=n_threads, dtype=dtype
    )
    while len(_PLAN_CACHE) >= _PLAN_CACHE_CAP:
        # every entry is alive: drop the oldest (FIFO)
        del _PLAN_CACHE[next(iter(_PLAN_CACHE))]
        _PLAN_STATS["evictions"] += 1
    _PLAN_CACHE[key] = (weakref.ref(indptr, lambda dead, key=key: _drop(key, dead)), plan)
    return plan


def _drop(key: tuple, ref: weakref.ref) -> None:
    """Weakref callback: the array behind ``key`` died, free its plan."""
    entry = _PLAN_CACHE.get(key)
    if entry is not None and entry[0] is ref:
        del _PLAN_CACHE[key]
        _PLAN_STATS["evictions"] += 1


def plan_cache_stats() -> dict[str, int]:
    """Counters of the module-wide plan cache (hits / misses / evictions)."""
    return dict(_PLAN_STATS, size=len(_PLAN_CACHE))


def clear_plan_cache() -> None:
    """Drop every cached plan and zero the counters (tests, benchmarks)."""
    _PLAN_CACHE.clear()
    for k in _PLAN_STATS:
        _PLAN_STATS[k] = 0
