"""Tests for Algorithm 2's two wave loops and the epoch plan compiler.

The load-bearing guarantee: both implementations of the TPA-SCD epoch — the
compiled ``tpa_epoch`` (``repro/native/tpa.c``) and the numpy wave loop over
a :class:`~repro.gpu.plan.WavePlan` (``glm_engine._run_waves``), which the
engine runs where no C compiler is available — are **bit-identical** to
:func:`repro.gpu.engine.reference_epoch` (the "seed" semantics the test
names still refer to): same float32 lane accumulation, tree reduction and
scatter arithmetic, across every structural regime (wave size 1/2,
non-power-of-two coordinate counts, empty columns, deep rake buckets,
signed-zero products, out-of-core shard streaming).  On top of that the
native argument checks, the plan cache, the buffer pool's
zero-steady-state-allocation property, the epoch conflict analysis, the
hoisted chunked gathers, and the bench payload/regression gate are
exercised directly.
"""

import gc
import shutil
import weakref

import numpy as np
import pytest

from repro import native
from repro.cli import main
from repro.core.distributed import DistributedSCD
from repro.core.tpa_scd import TpaScdKernelFactory
from repro.data import make_webspam_like
from repro.gpu import (
    BufferPool,
    GlmTpaEngine,
    KernelProfile,
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


#: the C compiler the native wave loop builds with, when the host has one
HOST_CC = shutil.which(native.CC)
needs_cc = pytest.mark.skipif(HOST_CC is None, reason="no C compiler on PATH")


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
        wave_size=engine.wave_size, n_threads=engine.n_threads,
        y=y, dtype=engine.dtype, **kw,
    )


def reference_dual_epoch(engine, y, inv, lam, nlam, alpha, wbar, perm):
    """``engine.run_dual_epoch`` restated through the reference loop."""
    return reference_epoch(
        engine.indptr, engine.indices, engine.data,
        RidgeDualRule.from_arrays(y, inv, lam, nlam), alpha, wbar, perm,
        wave_size=engine.wave_size, n_threads=engine.n_threads,
        dtype=engine.dtype,
    )


class _Backend:
    """Runs a class's tests on one wave loop: ``backend`` names which.

    ``"numpy"`` hides the C compiler, so every :class:`TpaScdEngine` falls
    back to the planned numpy loop; ``"native"`` requires the compiled one.
    """

    backend = "numpy"

    @pytest.fixture(autouse=True)
    def _select_backend(self, request):
        if self.backend == "numpy":
            request.getfixturevalue("no_compiler")
        else:
            native.load_native()

    def engine(self, *args, **kw):
        eng = build_engine(*args, **kw)
        assert eng.backend == self.backend
        return eng


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


class TestPlannedBitIdentity(_Backend):
    @pytest.mark.parametrize("wave_size,n_threads,n_coords,n_minor,max_len,kw", CONFIGS)
    def test_primal_epochs_bit_identical(
        self, wave_size, n_threads, n_coords, n_minor, max_len, kw
    ):
        rng = np.random.default_rng(3)
        indptr, indices, data = random_structure(
            rng, n_coords, n_minor, max_len, **kw
        )
        engine = self.engine(
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
        engine = self.engine(
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
        engine = self.engine(
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
            eng = self.engine(
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

    def test_observing_never_changes_the_bits(self):
        """Tracers (epoch and wave detail) and profilers only watch."""
        rng = np.random.default_rng(37)
        indptr, indices, data = random_structure(rng, 50, 30, 9, empty_frac=0.1)
        y = rng.standard_normal(30).astype(np.float32)
        inv = (1.0 / (1.0 + rng.random(50))).astype(np.float32)
        wave_tracer = Tracer(detail="wave")
        observers = ({}, {"tracer": Tracer()}, {"tracer": wave_tracer},
                     {"profiler": KernelProfile()})
        results = []
        for kw in observers:
            eng = self.engine(indptr, indices, data, wave_size=7, n_threads=8, **kw)
            b, w = np.zeros(50, np.float32), np.zeros(30, np.float32)
            for ep in range(2):
                perm = np.random.default_rng(ep).permutation(50)
                eng.run_primal_epoch(y, inv, np.float32(0.2), b, w, perm)
            results.append((b, w))
        for b, w in results[1:]:
            assert_bits_equal(results[0][0], b, "observed beta")
            assert_bits_equal(results[0][1], w, "observed w")
        waves = [span for span in wave_tracer.walk() if span.name == "tpa.wave"]
        assert len(waves) == 2 * 8

    def test_profiler_matches_bruteforce_waves(self):
        """The profiler books exactly what per-wave gathers of the epoch show."""
        rng = np.random.default_rng(41)
        indptr, indices, data = random_structure(rng, 45, 20, 11, empty_frac=0.2)
        y = np.sign(rng.standard_normal(45)).astype(np.float32)
        inv = (1.0 / (1.0 + rng.random(45))).astype(np.float32)
        prof, expected = KernelProfile(), KernelProfile()
        eng = self.engine(indptr, indices, data, wave_size=6, n_threads=8, profiler=prof)
        a, wb = np.zeros(45, np.float32), np.zeros(20, np.float32)
        for ep in range(2):
            perm = np.random.default_rng(50 + ep).permutation(45)
            eng.run_dual_epoch(y, inv, np.float32(0.01), np.float32(0.45), a, wb, perm)
            for start in range(0, 45, 6):
                flat_idx, _, seg_ptr = gather_chunk(
                    indptr, indices, data, perm[start:start + 6]
                )
                expected.record_wave(flat_idx, seg_ptr, 8)
        assert prof == expected
        assert prof.atomic_conflicts > 0


def adversarial_structure(rng, n_coords, n_minor, max_len):
    """CSC/CSR-style arrays whose values stress summation order.

    Magnitudes spread over 1e-4..1e4, float32 denormals and signed zeros,
    minor indices repeated within a coordinate and across a wave, and empty
    coordinates.  Coordinate 0 alone touches minor index 0, with one
    ``+0.0``: on a ``-0.0`` shared entry its product is ``-0.0``, which its
    lane (started at ``+0.0``) must turn into ``+0.0``.
    """
    lengths = rng.integers(0, max_len + 1, size=n_coords)
    lengths[0] = 1
    indptr = np.zeros(n_coords + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    nnz = int(indptr[-1])
    indices = rng.integers(1, n_minor, size=nnz).astype(np.int64)
    data = spread_values(rng, nnz)
    indices[0], data[0] = 0, 0.0
    return indptr, indices, data


def spread_values(rng, n):
    """float32 normals, a quarter rescaled across 1e-4..1e4 (wide enough to
    show any change of summation order, narrow enough to stay finite over
    two diverging epochs), a few signed zeros and denormals."""
    values = rng.standard_normal(n)
    picks = rng.permutation(n)
    wide, zero, tiny = picks[: n // 4], picks[n // 4: n // 3], picks[n // 3: n // 3 + 3]
    values[wide] *= 10.0 ** rng.integers(-4, 5, size=wide.size)
    values[zero] = rng.choice([0.0, -0.0], size=zero.size)
    values[tiny] = rng.choice([1e-45, -3e-42, 1e-39], size=tiny.size)
    return values.astype(np.float32)


@needs_cc
class TestNativeBitIdentity(TestPlannedBitIdentity):
    """Every test above on the compiled ``tpa_epoch``, plus adversarial values."""

    backend = "native"

    @pytest.mark.parametrize("formulation", ["primal", "dual"])
    def test_adversarial_values_bitwise(self, formulation):
        """Also a coordinate drawn twice within one wave, as a
        ``PermutationStream`` round spanning two permutations can: every
        delta reads the wave-start weight and the last update wins."""
        dual = formulation == "dual"
        rng = np.random.default_rng(29)
        n_coords, n_minor, wave_size = 40, 12, 9
        indptr, indices, data = adversarial_structure(rng, n_coords, n_minor, 12)
        engine = self.engine(indptr, indices, data, wave_size=wave_size, n_threads=4)
        y = spread_values(rng, n_coords if dual else n_minor)
        lam, nlam = np.float32(0.37), np.float32(3.1)
        # Eq. 2/4 denominators keep two epochs of this stale, contended run finite
        norms = np.bincount(
            np.repeat(np.arange(n_coords), np.diff(indptr)),
            weights=data.astype(np.float64) ** 2, minlength=n_coords,
        )
        inv = (1.0 / (norms + float(nlam))).astype(np.float32)
        weights0 = spread_values(rng, n_coords)
        shared0 = spread_values(rng, n_minor)
        # coordinate 0 opens the first wave on shared[0] == -0.0; for the
        # dual, the sign of its zero dot then reaches shared[0]
        y[0], weights0[0], shared0[0] = -0.0, 0.0, -0.0
        second = rng.permutation(n_coords)
        perms = [
            np.concatenate([[0], 1 + rng.permutation(n_coords - 1)]),
            # second[3:5] fall twice into the first wave
            np.concatenate([second[3:7], second]),
        ]
        assert len(set(perms[1][:wave_size].tolist())) < wave_size
        ref_w, ref_s = weights0.copy(), shared0.copy()
        got_w, got_s = weights0.copy(), shared0.copy()
        for perm in perms:
            if dual:
                reference_dual_epoch(engine, y, inv, lam, nlam, ref_w, ref_s, perm)
                engine.run_dual_epoch(y, inv, lam, nlam, got_w, got_s, perm)
            else:
                reference_primal_epoch(engine, y, inv, nlam, ref_w, ref_s, perm)
                engine.run_primal_epoch(y, inv, nlam, got_w, got_s, perm)
        assert np.isfinite(ref_w).all() and np.isfinite(ref_s).all()
        assert_bits_equal(ref_w, got_w, f"{formulation} weights")
        assert_bits_equal(ref_s, got_s, f"{formulation} shared")


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


class TestOutOfCoreBitIdentity(_Backend):
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


@needs_cc
class TestNativeOutOfCoreBitIdentity(TestOutOfCoreBitIdentity):
    backend = "native"


def _tiny_native_problem():
    """Two columns over three rows: (indptr, indices, data, y, inv, beta, w, perm)."""
    indptr = np.array([0, 2, 3], dtype=np.int64)
    indices = np.array([0, 2, 1], dtype=np.int64)
    data = np.array([1.0, 2.0, 3.0], dtype=np.float32)
    return (indptr, indices, data, np.ones(3, np.float32), np.ones(2, np.float32),
            np.zeros(2, np.float32), np.zeros(3, np.float32),
            np.array([1, 0], dtype=np.int64))


class TestNativeFailurePaths:
    @needs_cc
    def test_argument_mismatch_raises_before_any_foreign_call(self, monkeypatch):
        indptr, indices, data, y, inv, beta, w, perm = _tiny_native_problem()
        bad_matrices = {
            "indices must be a 1-D C-contiguous int64": (indptr, indices.astype(np.int32), data),
            "indptr must be a 1-D C-contiguous int64": (indptr.astype(np.int32), indices, data),
            "data must be a 1-D C-contiguous float32": (
                indptr, indices, np.repeat(data, 2)[::2]),
            "data has length 2": (indptr, indices, data[:2]),
            "indptr points outside indices": (indptr + 1, indices, data),
            "indices must be non-negative": (indptr, indices - 1, data),
        }
        for message, arrays in bad_matrices.items():
            with pytest.raises(ValueError, match=message):
                TpaScdEngine(*arrays, wave_size=2, n_threads=4)

        engine = TpaScdEngine(indptr, indices, data, wave_size=2, n_threads=4)
        assert engine.backend == "native"
        foreign_calls = []
        monkeypatch.setattr(engine._native, "_fn", lambda *a: foreign_calls.append(a))
        frozen = np.zeros(2, np.float32)
        frozen.flags.writeable = False
        bad = {
            "weights must be a 1-D C-contiguous float32": dict(beta=beta.astype(np.float64)),
            "weights has length 3": dict(beta=np.zeros(3, np.float32)),
            "weights is read-only": dict(beta=frozen),
            "shared must be a 1-D C-contiguous float32": dict(w=np.zeros(6, np.float32)[::2]),
            "not C-contiguous": dict(w=np.zeros(6, np.float32)[::2]),
            r"indices outside \[0, 2\)": dict(w=np.zeros(2, np.float32), y=np.ones(2, np.float32)),
            "y has length 2": dict(y=np.ones(2, np.float32)),
            "inv_denom must be a 1-D C-contiguous float32": dict(inv=inv.astype(np.float64)),
            "perm must be a 1-D C-contiguous int64": dict(perm=perm.astype(np.int32)),
            r"perm outside \[0, 2\)": dict(perm=np.array([0, 2], dtype=np.int64)),
            "nlam must be a Python number or a float32 scalar": dict(nlam=np.float64(0.5)),
        }
        good = dict(y=y, inv=inv, nlam=np.float32(0.5), beta=beta, w=w, perm=perm)
        for message, override in bad.items():
            args = good | override
            with pytest.raises(ValueError, match=message):
                engine.run_primal_epoch(
                    args["y"], args["inv"], args["nlam"], args["beta"], args["w"], args["perm"]
                )
        with pytest.raises(ValueError, match="lam must be a Python number"):
            engine.run_dual_epoch(
                np.ones(2, np.float32), inv, np.float64(0.1), 0.5, beta, w, perm
            )
        assert foreign_calls == []
        # the same arguments, correct, do reach the (stubbed) foreign call
        engine.run_primal_epoch(y, inv, 0.5, beta, w, perm)
        engine.run_dual_epoch(np.ones(2, np.float32), inv, 0.1, np.float32(0.5), beta, w, perm)
        assert len(foreign_calls) == 2

    @needs_cc
    def test_no_compiler_falls_back_with_the_same_bits(self, monkeypatch):
        rng = np.random.default_rng(71)
        indptr, indices, data = random_structure(rng, 60, 40, 9)
        y = rng.standard_normal(40).astype(np.float32)
        inv = (1.0 / (1.0 + rng.random(60))).astype(np.float32)
        runs = []
        for backend in ("native", "numpy"):
            if backend == "numpy":
                monkeypatch.setattr(native, "_NATIVE", {})
                monkeypatch.setattr(native, "CC", "repro-no-such-cc")
            engine = build_engine(indptr, indices, data, wave_size=8, n_threads=16)
            assert engine.backend == backend
            assert (engine.plan is None) is (backend == "native")
            b, w = np.zeros(60, np.float32), np.zeros(40, np.float32)
            for ep in range(3):
                perm = np.random.default_rng(ep).permutation(60)
                engine.run_primal_epoch(y, inv, np.float32(0.3), b, w, perm)
            runs.append((b, w))
        assert_bits_equal(runs[0][0], runs[1][0], "beta, native vs numpy")
        assert_bits_equal(runs[0][1], runs[1][1], "w, native vs numpy")

    def test_geometry_is_checked_without_a_plan(self):
        indptr = np.array([0, 2], dtype=np.int64)
        indices = np.array([0, 1], dtype=np.int64)
        data = np.ones(2, np.float32)
        with pytest.raises(ValueError, match="wave_size must be >= 1"):
            build_engine(indptr, indices, data, wave_size=0, n_threads=8)
        with pytest.raises(ValueError, match="n_threads must be a positive power of two"):
            build_engine(indptr, indices, data, wave_size=2, n_threads=6)
        assert plan_cache_stats()["misses"] == 0

    @needs_cc
    def test_native_engine_compiles_no_plan(self):
        indptr, indices, data, *_ = _tiny_native_problem()
        engine = build_engine(indptr, indices, data, wave_size=2, n_threads=4)
        assert engine.backend == "native" and engine.plan is None
        assert plan_cache_stats() == {"hits": 0, "misses": 0, "evictions": 0, "size": 0}
        # float64 has no compiled twin: it takes the planned numpy loop
        wide = build_engine(indptr, indices, data, wave_size=2, n_threads=4,
                            dtype=np.float64)
        assert wide.backend == "numpy" and wide.plan is not None


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
        """A dropped indptr frees its plan; its id never finds the stale one."""
        clear_plan_cache()
        indptr = np.array([0, 3, 4], dtype=np.int64)
        plan = get_plan(indptr, wave_size=1, n_threads=4, dtype=np.float32)
        alive = weakref.ref(indptr)
        del indptr
        gc.collect()
        # the plan kept no reference to the matrix, and its entry went with it
        assert alive() is None
        assert plan_cache_stats()["size"] == 0
        other = np.array([0, 1, 2], dtype=np.int64)
        got = get_plan(other, wave_size=1, n_threads=4, dtype=np.float32)
        assert got is not plan
        assert got.n_coords == 2
        # many short-lived matrices leave nothing behind
        for i in range(70):
            get_plan(np.array([0, 1 + i % 3], dtype=np.int64),
                     wave_size=1, n_threads=4, dtype=np.float32)
        gc.collect()
        assert plan_cache_stats()["size"] == 1

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

    def test_steady_state_epochs_allocate_nothing(self, no_compiler):
        """After warmup, the numpy wave loop's epochs do zero pool allocations."""
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
