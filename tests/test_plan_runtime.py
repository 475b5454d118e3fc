"""Tests for the epoch plan compiler and pooled wave runtime (repro.gpu.plan).

The load-bearing guarantee: the one production wave loop is **bit-identical**
to :func:`repro.gpu.engine.reference_epoch` (the "seed" semantics the test
names still refer to) — same float32 lane accumulation, tree reduction and
scatter arithmetic — across every structural regime (wave size 1/2,
non-power-of-two coordinate counts, empty columns, deep rake buckets,
signed-zero products, out-of-core shard streaming).  On top of that the
plan cache, the buffer pool's zero-steady-state-allocation property, the
epoch conflict analysis, the hoisted chunked gathers, and the bench
payload/regression gate are exercised directly.
"""

import gc

import numpy as np
import pytest

from repro.cli import main
from repro.core.distributed import DistributedSCD
from repro.core.tpa_scd import TpaScdKernelFactory
from repro.data import make_webspam_like
from repro.gpu import (
    BufferPool,
    GlmTpaEngine,
    RidgeDualRule,
    RidgePrimalRule,
    SvmDualRule,
    TpaScdEngine,
    WavePlan,
    clear_plan_cache,
    get_plan,
    plan_cache_stats,
)
from repro.gpu.engine import reference_epoch
from repro.objectives.ridge import RidgeProblem
from repro.obs import Tracer
from repro.perf.bench import (
    compare,
    find_baselines,
    latest_baseline,
    load_payload,
    render_trajectory,
    run_suite,
    validate_payload,
    write_payload,
)
from repro.shards import ShardingConfig, ShardStore, pack_dataset
from repro.solvers.kernels import (
    _chunk_conflicts,
    _epoch_gather,
    apply_chunk_updates,
    gather_chunk,
)


def random_structure(
    rng,
    n_coords,
    n_minor,
    max_len,
    *,
    empty_frac=0.0,
    dtype=np.float32,
    signed_zeros=False,
):
    """Random CSC/CSR-style (indptr, indices, data) with optional empties."""
    lengths = rng.integers(1, max_len + 1, size=n_coords)
    if empty_frac:
        lengths[rng.random(n_coords) < empty_frac] = 0
    indptr = np.zeros(n_coords + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    indices = np.concatenate(
        [rng.choice(n_minor, size=n, replace=False) for n in lengths]
        or [np.zeros(0, np.int64)]
    ).astype(np.int64)
    data = rng.standard_normal(indptr[-1]).astype(dtype)
    if signed_zeros and data.shape[0]:
        # sprinkle exact +0.0 / -0.0 values to hit the reduction-width
        # signed-zero guard (x + 0.0 flips -0.0 to +0.0)
        zero_at = rng.random(data.shape[0]) < 0.25
        data[zero_at] = np.where(rng.random(int(zero_at.sum())) < 0.5, 0.0, -0.0)
    return indptr, indices, data


def build_engine(indptr, indices, data, *, wave_size, n_threads, **kw):
    """The production engine on a cold plan cache."""
    clear_plan_cache()
    return TpaScdEngine(
        indptr, indices, data, wave_size=wave_size, n_threads=n_threads, **kw
    )


def reference_primal_epoch(engine, y, inv, nlam, beta, w, perm, **kw):
    """``engine.run_primal_epoch`` restated through the reference loop."""
    return reference_epoch(
        engine.indptr, engine.indices, engine.data,
        RidgePrimalRule.from_arrays(inv, nlam), beta, w, perm,
        wave_size=engine.plan.wave_size, n_threads=engine.plan.n_threads,
        y=y, dtype=engine.dtype, **kw,
    )


def reference_dual_epoch(engine, y, inv, lam, nlam, alpha, wbar, perm):
    """``engine.run_dual_epoch`` restated through the reference loop."""
    return reference_epoch(
        engine.indptr, engine.indices, engine.data,
        RidgeDualRule.from_arrays(y, inv, lam, nlam), alpha, wbar, perm,
        wave_size=engine.plan.wave_size, n_threads=engine.plan.n_threads,
        dtype=engine.dtype,
    )


def assert_bits_equal(a, b, label):
    __tracebackhide__ = True
    assert a.dtype == b.dtype
    if not np.array_equal(a.view(np.uint32), b.view(np.uint32)):
        i = int(np.flatnonzero(a.view(np.uint32) != b.view(np.uint32))[0])
        raise AssertionError(
            f"{label} diverges at [{i}]: {a[i]!r} vs {b[i]!r}"
        )


# a spread of structural regimes; every entry is (wave_size, n_threads,
# n_coords, n_minor, max_len, kwargs)
CONFIGS = [
    pytest.param(1, 16, 23, 40, 8, {}, id="wave1"),
    pytest.param(2, 16, 24, 40, 8, {}, id="wave2"),
    pytest.param(7, 8, 29, 50, 6, {}, id="nonpow2-wave-and-coords"),
    pytest.param(8, 4, 30, 64, 12, {}, id="rake-depth3"),
    pytest.param(4, 4, 21, 128, 70, {}, id="addat-fallback-depth18"),
    pytest.param(16, 32, 40, 48, 10, {"empty_frac": 0.3}, id="empty-columns"),
    pytest.param(8, 16, 33, 64, 9, {"signed_zeros": True}, id="signed-zeros"),
    pytest.param(32, 256, 64, 128, 5, {}, id="wave-wider-than-tail"),
]


class TestPlannedBitIdentity:
    @pytest.mark.parametrize("wave_size,n_threads,n_coords,n_minor,max_len,kw", CONFIGS)
    def test_primal_epochs_bit_identical(
        self, wave_size, n_threads, n_coords, n_minor, max_len, kw
    ):
        rng = np.random.default_rng(3)
        indptr, indices, data = random_structure(
            rng, n_coords, n_minor, max_len, **kw
        )
        engine = build_engine(
            indptr, indices, data, wave_size=wave_size, n_threads=n_threads
        )
        y = rng.standard_normal(n_minor).astype(np.float32)
        inv = (1.0 / (1.0 + rng.random(n_coords))).astype(np.float32)
        nlam = np.float32(0.37)
        b1 = np.zeros(n_coords, np.float32)
        w1 = np.zeros(n_minor, np.float32)
        b2, w2 = b1.copy(), w1.copy()
        for ep in range(3):
            perm = np.random.default_rng(100 + ep).permutation(n_coords)
            reference_primal_epoch(engine, y, inv, nlam, b1, w1, perm)
            engine.run_primal_epoch(y, inv, nlam, b2, w2, perm)
            assert_bits_equal(b1, b2, f"beta after epoch {ep}")
            assert_bits_equal(w1, w2, f"w after epoch {ep}")

    @pytest.mark.parametrize("wave_size,n_threads,n_coords,n_minor,max_len,kw", CONFIGS)
    def test_dual_epochs_bit_identical(
        self, wave_size, n_threads, n_coords, n_minor, max_len, kw
    ):
        rng = np.random.default_rng(5)
        indptr, indices, data = random_structure(
            rng, n_coords, n_minor, max_len, **kw
        )
        engine = build_engine(
            indptr, indices, data, wave_size=wave_size, n_threads=n_threads
        )
        y = np.sign(rng.standard_normal(n_coords)).astype(np.float32)
        inv = (1.0 / (1.0 + rng.random(n_coords))).astype(np.float32)
        lam, nlam = np.float32(0.01), np.float32(0.01 * n_coords)
        a1 = np.zeros(n_coords, np.float32)
        wb1 = np.zeros(n_minor, np.float32)
        a2, wb2 = a1.copy(), wb1.copy()
        for ep in range(3):
            perm = np.random.default_rng(200 + ep).permutation(n_coords)
            reference_dual_epoch(engine, y, inv, lam, nlam, a1, wb1, perm)
            engine.run_dual_epoch(y, inv, lam, nlam, a2, wb2, perm)
            assert_bits_equal(a1, a2, f"alpha after epoch {ep}")
            assert_bits_equal(wb1, wb2, f"wbar after epoch {ep}")

    def test_partial_permutation(self):
        """Epochs over a subset of coordinates (mini-batch style perm)."""
        rng = np.random.default_rng(11)
        indptr, indices, data = random_structure(rng, 40, 64, 7)
        engine = build_engine(
            indptr, indices, data, wave_size=8, n_threads=16
        )
        y = rng.standard_normal(64).astype(np.float32)
        inv = (1.0 / (1.0 + rng.random(40))).astype(np.float32)
        b1, w1 = np.zeros(40, np.float32), np.zeros(64, np.float32)
        b2, w2 = b1.copy(), w1.copy()
        perm = np.random.default_rng(9).permutation(40)[:13]
        reference_primal_epoch(engine, y, inv, np.float32(0.1), b1, w1, perm)
        engine.run_primal_epoch(y, inv, np.float32(0.1), b2, w2, perm)
        assert_bits_equal(b1, b2, "beta (partial perm)")
        assert_bits_equal(w1, w2, "w (partial perm)")

    def test_traced_counters_match_seed(self):
        """Production tracing claims exactly the reference's wave counters."""
        rng = np.random.default_rng(17)
        indptr, indices, data = random_structure(rng, 36, 50, 6)
        y = rng.standard_normal(50).astype(np.float32)
        inv = (1.0 / (1.0 + rng.random(36))).astype(np.float32)
        counters = {}
        for production in (False, True):
            tracer = Tracer()
            eng = build_engine(
                indptr, indices, data, wave_size=6, n_threads=16, tracer=tracer
            )
            b, w = np.zeros(36, np.float32), np.zeros(50, np.float32)
            for ep in range(2):
                perm = np.random.default_rng(ep).permutation(36)
                if production:
                    eng.run_primal_epoch(y, inv, np.float32(0.2), b, w, perm)
                else:
                    reference_primal_epoch(
                        eng, y, inv, np.float32(0.2), b, w, perm, tracer=tracer
                    )
            counters[production] = {
                name: tracer.metrics.counter(name)
                for name in ("gpu.waves", "gpu.nnz_processed", "gpu.atomic_conflicts")
            }
        assert counters[True] == counters[False]
        assert counters[True]["gpu.waves"] == 12


class TestGlmPlannedBitIdentity:
    def _structure(self):
        rng = np.random.default_rng(23)
        indptr, indices, data = random_structure(
            rng, 30, 45, 8, empty_frac=0.15
        )
        return rng, indptr, indices, data

    def _both(
        self, indptr, indices, data, rule, rng, *, wave_size, n_threads, y, perm_seed
    ):
        """(weights, shared) after 3 epochs: reference loop, production loop."""
        clear_plan_cache()
        eng = GlmTpaEngine(
            indptr, indices, data, rule=rule,
            wave_size=wave_size, n_threads=n_threads, y=y,
        )
        results = []
        for production in (False, True):
            wts = np.zeros(30, np.float32)
            shared = np.zeros(45, np.float32)
            for ep in range(3):
                perm = np.random.default_rng(perm_seed + ep).permutation(30)
                if production:
                    eng.run_epoch(wts, shared, perm, rng)
                else:
                    reference_epoch(
                        indptr, indices, data, rule, wts, shared, perm,
                        wave_size=wave_size, n_threads=n_threads, y=y,
                    )
            results.append((wts, shared))
        return results

    def test_residual_rule_bit_identical(self):
        rng, indptr, indices, data = self._structure()
        norms = np.zeros(30)
        np.add.at(norms, np.repeat(np.arange(30), np.diff(indptr)), data**2)
        y = rng.standard_normal(45).astype(np.float32)
        rule = RidgePrimalRule(norms, 45, 1e-2)
        ref, prod = self._both(
            indptr, indices, data, rule, rng,
            wave_size=7, n_threads=16, y=y, perm_seed=40,
        )
        assert_bits_equal(ref[0], prod[0], "glm weights")
        assert_bits_equal(ref[1], prod[1], "glm shared")

    def test_shared_scale_rule_bit_identical(self):
        """SVM dual rule exercises per-coordinate shared scaling."""
        rng, indptr, indices, data = self._structure()
        norms = np.zeros(30)
        np.add.at(norms, np.repeat(np.arange(30), np.diff(indptr)), data**2)
        y = np.sign(rng.standard_normal(30)).astype(np.float32)
        rule = SvmDualRule(y, norms, n=30, lam=1e-2)
        ref, prod = self._both(
            indptr, indices, data, rule, rng,
            wave_size=5, n_threads=8, y=None, perm_seed=60,
        )
        assert_bits_equal(ref[0], prod[0], "svm alphas")
        assert_bits_equal(ref[1], prod[1], "svm shared")


class TestOutOfCoreBitIdentity:
    def test_shard_streamed_planned_matches_seed(self, tmp_path, monkeypatch):
        """Production == reference through the full OOC shard-streaming stack."""
        dataset = make_webspam_like(
            n_examples=60, n_features=40, nnz_per_example=6, seed=2
        )
        problem = RidgeProblem(dataset, 5e-3)
        pack_dataset(dataset, tmp_path, axis="rows", n_shards=3)
        store = ShardStore(tmp_path)

        def solve():
            clear_plan_cache()
            engine = DistributedSCD(
                lambda rank: TpaScdKernelFactory(n_threads=16, wave_size=4),
                "dual",
                n_workers=2,
                seed=13,
                shards=ShardingConfig(store),
            )
            return engine.solve(problem, 3)

        production_res = solve()
        monkeypatch.setattr(TpaScdEngine, "run_dual_epoch", reference_dual_epoch)
        reference_res = solve()
        assert_bits_equal(
            reference_res.weights.astype(np.float32),
            production_res.weights.astype(np.float32),
            "OOC weights",
        )
        assert reference_res.history.gaps == pytest.approx(
            production_res.history.gaps, abs=0
        )


class TestPlanCache:
    def test_hit_on_same_indptr_identity(self):
        clear_plan_cache()
        indptr = np.array([0, 2, 5, 5, 9], dtype=np.int64)
        p1 = get_plan(indptr, wave_size=2, n_threads=8, dtype=np.float32)
        p2 = get_plan(indptr, wave_size=2, n_threads=8, dtype=np.float32)
        assert p1 is p2
        stats = plan_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_geometry_is_part_of_the_key(self):
        clear_plan_cache()
        indptr = np.array([0, 2, 5, 5, 9], dtype=np.int64)
        p1 = get_plan(indptr, wave_size=2, n_threads=8, dtype=np.float32)
        p2 = get_plan(indptr, wave_size=4, n_threads=8, dtype=np.float32)
        p3 = get_plan(indptr, wave_size=2, n_threads=16, dtype=np.float32)
        p4 = get_plan(indptr, wave_size=2, n_threads=8, dtype=np.float64)
        assert len({id(p) for p in (p1, p2, p3, p4)}) == 4
        assert plan_cache_stats()["misses"] == 4

    def test_weakref_guards_id_reuse(self):
        """A dead indptr's cache slot must never serve a new array."""
        clear_plan_cache()
        indptr = np.array([0, 3, 4], dtype=np.int64)
        plan = get_plan(indptr, wave_size=1, n_threads=4, dtype=np.float32)
        key_id = id(indptr)
        del indptr
        gc.collect()
        # craft a *different* structure; even if the allocator reuses the
        # address, the weakref is dead and the stale plan must not be served
        other = np.array([0, 1, 2], dtype=np.int64)
        got = get_plan(other, wave_size=1, n_threads=4, dtype=np.float32)
        assert got is not plan or id(other) != key_id
        assert got.n_coords == 2

    def test_cache_capacity_is_bounded(self):
        clear_plan_cache()
        keep = []  # hold references so ids stay distinct
        for i in range(70):
            indptr = np.array([0, 1 + i % 3], dtype=np.int64)
            keep.append(indptr)
            get_plan(indptr, wave_size=1, n_threads=2, dtype=np.float32)
        assert plan_cache_stats()["size"] <= 64
        assert plan_cache_stats()["evictions"] >= 6

    def test_clear_resets_counters(self):
        indptr = np.array([0, 2], dtype=np.int64)
        get_plan(indptr, wave_size=1, n_threads=2, dtype=np.float32)
        clear_plan_cache()
        stats = plan_cache_stats()
        assert stats == {"hits": 0, "misses": 0, "evictions": 0, "size": 0}

    def test_invalid_geometry_rejected(self):
        indptr = np.array([0, 2], dtype=np.int64)
        with pytest.raises(ValueError):
            WavePlan(indptr, wave_size=0, n_threads=8, dtype=np.float32)
        with pytest.raises(ValueError):
            WavePlan(indptr, wave_size=2, n_threads=6, dtype=np.float32)


class TestBufferPool:
    def test_take_reuses_and_grows(self):
        pool = BufferPool()
        a = pool.take("x", 100, np.float32)
        assert a.shape == (100,) and pool.bytes_allocated == 400
        b = pool.take("x", 50, np.float32)
        assert b.base is a.base or b.base is a  # same backing allocation
        assert pool.bytes_reused == 200
        c = pool.take("x", 200, np.float32)
        assert c.shape == (200,)
        assert pool.bytes_allocated == 400 + 800

    def test_dtype_change_reallocates(self):
        pool = BufferPool()
        pool.take("x", 10, np.float32)
        before = pool.bytes_allocated
        pool.take("x", 10, np.int64)
        assert pool.bytes_allocated > before

    def test_distinct_names_never_alias(self):
        pool = BufferPool()
        a = pool.take("a", 8, np.float32)
        b = pool.take("b", 8, np.float32)
        a[:] = 1.0
        b[:] = 2.0
        assert a[0] == 1.0 and b[0] == 2.0

    def test_steady_state_epochs_allocate_nothing(self):
        """After warmup, epochs do zero pool allocations."""
        rng = np.random.default_rng(31)
        indptr, indices, data = random_structure(rng, 48, 64, 9)
        eng = build_engine(indptr, indices, data, wave_size=8, n_threads=16)
        y = rng.standard_normal(64).astype(np.float32)
        inv = (1.0 / (1.0 + rng.random(48))).astype(np.float32)
        b, w = np.zeros(48, np.float32), np.zeros(64, np.float32)

        def one_epoch(ep):
            perm = np.random.default_rng(ep).permutation(48)
            eng.run_primal_epoch(y, inv, np.float32(0.3), b, w, perm)

        # warm the pool over the whole permutation set (a later epoch's
        # largest wave may be bigger, which is allowed to grow buffers once)
        for ep in range(6):
            one_epoch(ep)
        pool = eng.plan.pool
        allocated = pool.bytes_allocated
        reused = pool.bytes_reused
        for ep in range(6):
            one_epoch(ep)
        assert pool.bytes_allocated == allocated
        assert pool.bytes_reused > reused


class TestConflictAnalysis:
    def _epoch(self, indptr, indices, data, perm, n_minor, **kw):
        plan = WavePlan(indptr, wave_size=4, n_threads=8, dtype=np.float32)
        return plan.begin_epoch(indices, data, perm, n_minor=n_minor, **kw)

    def test_wave_size_one_is_conflict_free_by_construction(self):
        rng = np.random.default_rng(41)
        indptr, indices, data = random_structure(rng, 10, 20, 5)
        plan = WavePlan(indptr, wave_size=1, n_threads=8, dtype=np.float32)
        run = plan.begin_epoch(
            indices, data, np.arange(10), n_minor=20
        )
        assert run.conflicts_known
        assert all(run.wave_conflicts(wv) == 0 for wv in range(run.n_waves))

    def test_forced_analysis_matches_bruteforce(self):
        rng = np.random.default_rng(43)
        indptr, indices, data = random_structure(rng, 25, 12, 6)
        perm = rng.permutation(25)
        run = self._epoch(
            indptr, indices, data, perm, 12, analyze_conflicts=True
        )
        assert run.conflicts_known
        for wv in range(run.n_waves):
            _, _, a, b = run.bounds(wv)
            flat = run.flat_idx[a:b]
            expected = int(flat.shape[0] - np.unique(flat).shape[0])
            assert run.wave_conflicts(wv) == expected

    def test_skipped_analysis_claims_nothing(self):
        rng = np.random.default_rng(47)
        indptr, indices, data = random_structure(rng, 25, 12, 6)
        run = self._epoch(
            indptr, indices, data, rng.permutation(25), 12,
            analyze_conflicts=False,
        )
        assert not run.conflicts_known
        assert run.wave_conflicts(0) is None

    def test_heuristic_skips_contended_epochs(self):
        """Tiny minor dimension: birthday bound says don't pay for the sort."""
        rng = np.random.default_rng(53)
        indptr, indices, data = random_structure(rng, 24, 4, 4)
        run = self._epoch(indptr, indices, data, rng.permutation(24), 4)
        assert not run.conflicts_known
        # huge minor dimension: conflict-free waves plausible, analysis runs
        indptr2, indices2, data2 = random_structure(rng, 24, 10_000, 4)
        run2 = self._epoch(indptr2, indices2, data2, rng.permutation(24), 10_000)
        assert run2.conflicts_known


class TestChunkedHoist:
    def test_epoch_gather_slices_match_gather_chunk(self):
        rng = np.random.default_rng(61)
        indptr, indices, data = random_structure(rng, 30, 40, 7, empty_frac=0.2)
        perm = rng.permutation(30)
        e_idx, e_val, eptr = _epoch_gather(indptr, indices, data, perm)
        for start in range(0, 30, 8):
            coords = perm[start : start + 8]
            c_idx, c_val, c_ptr = gather_chunk(indptr, indices, data, coords)
            a, b = eptr[start], eptr[min(start + 8, 30)]
            assert np.array_equal(e_idx[a:b], c_idx)
            assert np.array_equal(e_val[a:b], c_val)
            assert np.array_equal(eptr[start : start + coords.shape[0] + 1] - a, c_ptr)

    def test_chunk_conflicts_matches_bruteforce(self):
        rng = np.random.default_rng(67)
        indptr, indices, data = random_structure(rng, 40, 15, 5)
        perm = rng.permutation(40)
        e_idx, _, eptr = _epoch_gather(indptr, indices, data, perm)
        counts = _chunk_conflicts(e_idx, eptr, 8, 15)
        for chunk, start in enumerate(range(0, 40, 8)):
            a, b = eptr[start], eptr[min(start + 8, 40)]
            flat = e_idx[a:b]
            expected = int(flat.shape[0] - np.unique(flat).shape[0])
            got = 0 if counts is None else int(counts[chunk])
            assert got == expected

    def test_chunk_conflicts_none_when_clean(self):
        # disjoint minor indices per coordinate, chunk_size 1: always clean
        indptr = np.array([0, 2, 4], dtype=np.int64)
        indices = np.array([0, 1, 2, 3], dtype=np.int64)
        assert _chunk_conflicts(indices, indptr, 1, 4) is None

    def test_apply_chunk_updates_conflict_free_fast_path(self):
        vec1 = np.zeros(16, np.float32)
        vec2 = np.zeros(16, np.float32)
        idx = np.array([3, 1, 7, 12], dtype=np.int64)
        contrib = np.array([0.5, -1.25, 2.0, 0.125], dtype=np.float32)
        lost1 = apply_chunk_updates(
            vec1, idx, contrib, write_mode="atomic",
            loss_prob=0.0, rng=None, conflicts=0,
        )
        lost2 = apply_chunk_updates(
            vec2, idx, contrib, write_mode="atomic",
            loss_prob=0.0, rng=None, conflicts=None,
        )
        assert lost1 == lost2 == 0
        assert_bits_equal(vec1, vec2, "conflict-free scatter")


class TestBenchHarness:
    @pytest.fixture(scope="class")
    def smoke_payload(self):
        return run_suite("smoke")

    def test_smoke_payload_is_valid(self, smoke_payload):
        validate_payload(smoke_payload)
        cases = smoke_payload["cases"]
        for name in (
            "sequential", "chunked", "tpa_wave_planned", "distributed",
            "syscd_ref", "syscd_threads",
        ):
            assert cases[name]["median_s"] > 0
        assert smoke_payload["derived"]["normalized_throughput"]["sequential"] == 1.0
        assert "tpa_wave_seed" not in cases
        assert "tpa_planned_speedup" not in smoke_payload["derived"]
        assert smoke_payload["derived"]["syscd_measured_speedup"] > 0
        assert cases["syscd_threads"]["n_threads"] == 4

    def test_self_compare_has_no_regressions(self, smoke_payload):
        assert compare(smoke_payload, smoke_payload) == []

    def test_injected_regression_is_flagged(self, smoke_payload):
        import copy

        slowed = copy.deepcopy(smoke_payload)
        rel = slowed["derived"]["normalized_throughput"]
        rel["tpa_wave_planned"] *= 0.5  # a 2x slowdown
        msgs = compare(slowed, smoke_payload, threshold=0.25)
        assert len(msgs) == 1 and "tpa_wave_planned" in msgs[0]
        # within threshold: not flagged
        mild = copy.deepcopy(smoke_payload)
        mild["derived"]["normalized_throughput"]["chunked"] *= 0.9
        assert compare(mild, smoke_payload, threshold=0.25) == []

    def test_payload_roundtrip(self, smoke_payload, tmp_path):
        path = tmp_path / "bench.json"
        write_payload(smoke_payload, path)
        assert load_payload(path) == smoke_payload

    def test_validate_rejects_malformed(self, smoke_payload):
        import copy

        with pytest.raises(ValueError, match="schema"):
            validate_payload({"schema": "bogus/v0"})
        missing = copy.deepcopy(smoke_payload)
        del missing["cases"]["sequential"]
        with pytest.raises(ValueError, match="sequential"):
            validate_payload(missing)
        negative = copy.deepcopy(smoke_payload)
        negative["cases"]["chunked"]["median_s"] = -1.0
        with pytest.raises(ValueError, match="median_s"):
            validate_payload(negative)

    def test_compare_rejects_bad_threshold(self, smoke_payload):
        with pytest.raises(ValueError, match="threshold"):
            compare(smoke_payload, smoke_payload, threshold=1.5)

    def test_cli_gate(self, smoke_payload, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        write_payload(smoke_payload, baseline)
        # the smoke profile's threaded cases jitter between back-to-back
        # runs; the wide band keeps this a gate-mechanics test, not a
        # stability benchmark
        rc = main(
            ["bench", "--profile", "smoke", "--baseline", str(baseline),
             "--threshold", "0.6", "--out", str(tmp_path / "new.json")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "no regressions" in out
        assert (tmp_path / "new.json").exists()
        # sabotage the baseline: claim 100x the real throughput
        import copy

        inflated = copy.deepcopy(smoke_payload)
        for name in inflated["derived"]["normalized_throughput"]:
            inflated["derived"]["normalized_throughput"][name] *= 100.0
        write_payload(inflated, baseline)
        rc = main(["bench", "--profile", "smoke", "--baseline", str(baseline)])
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_find_baselines_numeric_order(self, smoke_payload, tmp_path):
        # PR10 must sort after PR9 (numeric, not lexicographic)
        for name in ("BENCH_PR10.json", "BENCH_PR4.json", "BENCH_PR9.json"):
            write_payload(smoke_payload, tmp_path / name)
        (tmp_path / "BENCH_PR7.json").write_text("{not json")  # skipped
        found = [p.name for p in find_baselines(tmp_path)]
        assert found == ["BENCH_PR4.json", "BENCH_PR9.json", "BENCH_PR10.json"]
        assert latest_baseline(tmp_path).name == "BENCH_PR10.json"
        assert latest_baseline(tmp_path / "empty-subdir") is None

    def test_committed_baselines_discoverable(self):
        # the repo root must always resolve to the newest landmark payload
        names = [p.name for p in find_baselines(".")]
        assert names == sorted(names, key=lambda n: int(n[8:-5]))
        assert latest_baseline(".").name == "BENCH_PR10.json"

    def test_render_trajectory(self, smoke_payload, tmp_path):
        import copy

        old = copy.deepcopy(smoke_payload)
        # older landmark predates the syscd cases entirely
        for name in ("syscd_ref", "syscd_threads"):
            del old["cases"][name]
            del old["derived"]["normalized_throughput"][name]
        write_payload(old, tmp_path / "BENCH_PR6.json")
        write_payload(smoke_payload, tmp_path / "BENCH_PR9.json")
        text = render_trajectory(find_baselines(tmp_path))
        assert "PR6" in text and "PR9" in text
        assert "syscd_threads" in text
        # every case row carries one cell per baseline column
        assert render_trajectory([]) == "no bench baselines found"

    def test_cli_prints_trajectory(self, smoke_payload, tmp_path, capsys):
        write_payload(smoke_payload, tmp_path / "BENCH_PR6.json")
        write_payload(smoke_payload, tmp_path / "BENCH_PR9.json")
        rc = main(
            ["bench", "--profile", "smoke",
             "--baseline", str(tmp_path / "BENCH_PR9.json")]
        )
        out = capsys.readouterr().out
        assert rc in (0, 1)  # the gate may trip on a noisy runner
        assert "trajectory" in out
        assert "PR6" in out and "PR9" in out
