"""Tests for Algorithm 2's wave loop: the compiled kernel and its reference.

The load-bearing guarantee: the compiled ``tpa_epoch``
(``repro/native/tpa.c``) is **bit-identical** to
:func:`repro.gpu.engine.reference_epoch` (the "seed" semantics the test
names still refer to), which the engines run where no C compiler is
available or the engine is not float32: same float32 lane accumulation,
tree reduction, rule arithmetic and scatter, for every coordinate rule
(ridge primal and dual, elastic net, SVM) and across every structural
regime (wave size 1/2, non-power-of-two coordinate counts, empty columns,
deep lane buckets, signed-zero products, out-of-core shard streaming).  The
suites run once per loop: the numpy classes hide the compiler, the native
ones require it.  On top of that the argument and structure checks and the
hoisted chunked gathers are exercised directly.
"""

import shutil

import numpy as np
import pytest

from repro import native
from repro.core.distributed import DistributedSCD
from repro.core.tpa_scd import TpaScdKernelFactory
from repro.data import make_webspam_like
from repro.gpu import (
    ElasticNetPrimalRule,
    RidgeDualRule,
    RidgePrimalRule,
    SvmDualRule,
    TpaScdEngine,
)
from repro.gpu.engine import reference_epoch
from repro.objectives.ridge import RidgeProblem
from repro.obs import Tracer
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
        # sprinkle exact +0.0 / -0.0 values: x + 0.0 flips -0.0 to +0.0, so
        # skipping the +0.0 lanes past a block's length must stay exact
        zero_at = rng.random(data.shape[0]) < 0.25
        data[zero_at] = np.where(rng.random(int(zero_at.sum())) < 0.5, 0.0, -0.0)
    return indptr, indices, data


#: every counter a wave loop records, in the order of tpa.c's stats slots
WAVE_COUNTERS = (
    "gpu.waves", "gpu.blocks", "gpu.nnz_processed", "gpu.atomic_conflicts",
    "gpu.lanes_active",
)


def bruteforce_wave_counters(indptr, indices, data, perms, wave_size, n_threads):
    """The :data:`WAVE_COUNTERS` of epochs over ``perms``, from per-wave gathers."""
    counters = dict.fromkeys(WAVE_COUNTERS, 0)
    for perm in perms:
        for start in range(0, perm.shape[0], wave_size):
            flat_idx, _, seg_ptr = gather_chunk(
                indptr, indices, data, perm[start:start + wave_size]
            )
            lengths = np.diff(seg_ptr)
            nnz = flat_idx.shape[0]
            counters["gpu.waves"] += 1
            counters["gpu.blocks"] += lengths.shape[0]
            counters["gpu.nnz_processed"] += nnz
            counters["gpu.atomic_conflicts"] += nnz - np.unique(flat_idx).shape[0]
            counters["gpu.lanes_active"] += int(np.minimum(lengths, n_threads).sum())
    return counters

#: the C compiler the native wave loop builds with, when the host has one
HOST_CC = shutil.which(native.CC)
needs_cc = pytest.mark.skipif(HOST_CC is None, reason="no C compiler on PATH")


def build_engine(indptr, indices, data, *, wave_size, n_threads, **kw):
    """The production engine."""
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

    ``"numpy"`` hides the C compiler, so every engine falls back to
    :func:`reference_epoch`; ``"native"`` requires the compiled loop.
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
                name: tracer.metrics.counter(name) for name in WAVE_COUNTERS
            }
        assert counters[True] == counters[False]
        assert counters[True]["gpu.waves"] == 12

    def test_observing_never_changes_the_bits(self):
        """Tracers (epoch and wave detail) only watch."""
        rng = np.random.default_rng(37)
        indptr, indices, data = random_structure(rng, 50, 30, 9, empty_frac=0.1)
        y = rng.standard_normal(30).astype(np.float32)
        inv = (1.0 / (1.0 + rng.random(50))).astype(np.float32)
        wave_tracer = Tracer(detail="wave")
        observers = ({}, {"tracer": Tracer()}, {"tracer": wave_tracer})
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
        """The tracer's wave counters are exactly what per-wave gathers of
        the epoch show."""
        rng = np.random.default_rng(41)
        indptr, indices, data = random_structure(rng, 45, 20, 11, empty_frac=0.2)
        y = np.sign(rng.standard_normal(45)).astype(np.float32)
        inv = (1.0 / (1.0 + rng.random(45))).astype(np.float32)
        tracer = Tracer()
        eng = self.engine(indptr, indices, data, wave_size=6, n_threads=8, tracer=tracer)
        a, wb = np.zeros(45, np.float32), np.zeros(20, np.float32)
        perms = [np.random.default_rng(50 + ep).permutation(45) for ep in range(2)]
        for perm in perms:
            eng.run_dual_epoch(y, inv, np.float32(0.01), np.float32(0.45), a, wb, perm)
        got = {name: tracer.metrics.counter(name) for name in WAVE_COUNTERS}
        assert got == bruteforce_wave_counters(indptr, indices, data, perms, 6, 8)
        assert got["gpu.atomic_conflicts"] > 0


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


def column_norms(indptr, data):
    """float64 ``||a_j||^2`` of every coordinate."""
    n = indptr.shape[0] - 1
    return np.bincount(
        np.repeat(np.arange(n), np.diff(indptr)),
        weights=data.astype(np.float64) ** 2, minlength=n,
    )


class TestGlmPlannedBitIdentity(_Backend):
    """The GLM rules through :meth:`TpaScdEngine.run_epoch` against the reference."""

    def _structure(self):
        rng = np.random.default_rng(23)
        indptr, indices, data = random_structure(
            rng, 30, 45, 8, empty_frac=0.15
        )
        return rng, indptr, indices, data

    def glm_engine(self, *args, **kw):
        eng = TpaScdEngine(*args, **kw)
        assert eng.backend == self.backend
        return eng

    def _both(self, indptr, indices, data, rule, rng, *, wave_size, n_threads, y,
              perms, weights0, shared0):
        """(weights, shared) after one epoch per perm: reference loop, engine."""
        eng = self.glm_engine(
            indptr, indices, data, wave_size=wave_size, n_threads=n_threads,
        )
        results = []
        for production in (False, True):
            wts, shared = weights0.copy(), shared0.copy()
            for perm in perms:
                if production:
                    eng.run_epoch(rule, wts, shared, perm, y=y)
                else:
                    reference_epoch(
                        indptr, indices, data, rule, wts, shared, perm,
                        wave_size=wave_size, n_threads=n_threads, y=y,
                    )
            results.append((wts, shared))
        return results

    def _three_epochs(self, indptr, indices, data, rule, rng, *, perm_seed, **kw):
        perms = [np.random.default_rng(perm_seed + ep).permutation(30) for ep in range(3)]
        return self._both(
            indptr, indices, data, rule, rng, perms=perms,
            weights0=np.zeros(30, np.float32), shared0=np.zeros(45, np.float32), **kw,
        )

    def test_residual_rule_bit_identical(self):
        rng, indptr, indices, data = self._structure()
        y = rng.standard_normal(45).astype(np.float32)
        rule = RidgePrimalRule(column_norms(indptr, data), 45, 1e-2)
        ref, prod = self._three_epochs(
            indptr, indices, data, rule, rng,
            wave_size=7, n_threads=16, y=y, perm_seed=40,
        )
        assert_bits_equal(ref[0], prod[0], "glm weights")
        assert_bits_equal(ref[1], prod[1], "glm shared")

    def test_shared_scale_rule_bit_identical(self):
        """SVM dual rule exercises per-coordinate shared scaling."""
        rng, indptr, indices, data = self._structure()
        y = np.sign(rng.standard_normal(30)).astype(np.float32)
        rule = SvmDualRule(y, column_norms(indptr, data), n=30, lam=1e-2)
        ref, prod = self._three_epochs(
            indptr, indices, data, rule, rng,
            wave_size=5, n_threads=8, y=None, perm_seed=60,
        )
        assert_bits_equal(ref[0], prod[0], "svm alphas")
        assert_bits_equal(ref[1], prod[1], "svm shared")

    @pytest.mark.parametrize("l1_ratio", [0.0, 0.5, 1.0])
    def test_elastic_net_rule_bit_identical(self, l1_ratio):
        # no empty columns: at l1_ratio 1 their update would be 0 * inf
        rng = np.random.default_rng(23)
        indptr, indices, data = random_structure(rng, 30, 45, 8)
        y = rng.standard_normal(45).astype(np.float32)
        rule = ElasticNetPrimalRule(column_norms(indptr, data), 45, 0.05, l1_ratio)
        ref, prod = self._three_epochs(
            indptr, indices, data, rule, rng,
            wave_size=6, n_threads=8, y=y, perm_seed=80,
        )
        assert_bits_equal(ref[0], prod[0], "elastic-net weights")
        assert_bits_equal(ref[1], prod[1], "elastic-net shared")
        if l1_ratio == 1.0:
            assert (ref[0] == 0).any(), "the l1 penalty should zero some weights"

    @pytest.mark.parametrize("kind", ["elastic_net", "svm"])
    def test_adversarial_values_bitwise(self, kind):
        """The kernel replays a rule's arithmetic for whatever its arrays
        hold: every per-coordinate array but the inverse denominators (which
        keep two epochs of this stale, contended run finite) is overwritten
        with spread values, so a reassociated or fused update shows, on the
        adversarial structure, with a coordinate drawn twice within one wave."""
        rng = np.random.default_rng(31)
        n_coords, n_minor, wave_size = 40, 12, 9
        indptr, indices, data = adversarial_structure(rng, n_coords, n_minor, 12)
        norms = column_norms(indptr, data)
        if kind == "elastic_net":
            rule = ElasticNetPrimalRule(norms, n_minor, 0.3, 0.5)
            y = spread_values(rng, n_minor)
        else:
            # denormal squares would overflow the inverse norms to inf
            rule = SvmDualRule(spread_values(rng, n_coords), norms + 1.0, n_coords, 0.1)
            y = None
        _, arrays, _ = rule.native
        for name in arrays:
            if name not in ("inv_denom", "inv_norms"):
                setattr(rule, name, spread_values(rng, n_coords))
        second = rng.permutation(n_coords)
        perms = [rng.permutation(n_coords), np.concatenate([second[3:7], second])]
        assert len(set(perms[1][:wave_size].tolist())) < wave_size
        ref, prod = self._both(
            indptr, indices, data, rule, rng, wave_size=wave_size, n_threads=4,
            y=y, perms=perms, weights0=spread_values(rng, n_coords),
            shared0=spread_values(rng, n_minor),
        )
        assert np.isfinite(ref[0]).all() and np.isfinite(ref[1]).all()
        assert_bits_equal(ref[0], prod[0], f"{kind} weights")
        assert_bits_equal(ref[1], prod[1], f"{kind} shared")

    @pytest.mark.parametrize("kind", ["elastic_net", "svm"])
    def test_update_arithmetic_bitwise(self, kind):
        """One nonzero of value 1 per coordinate, on its own minor index, so
        every block's dot is an input: the updates run on values chosen to
        land inside the l1 threshold and the SVM box, where a reordered or
        fused update rounds differently."""
        n = 256
        rng = np.random.default_rng(37)
        indptr = np.arange(n + 1, dtype=np.int64)
        indices = np.arange(n, dtype=np.int64)
        data = np.ones(n, np.float32)
        weights0 = rng.uniform(0.0, 1.0, n).astype(np.float32)
        if kind == "elastic_net":
            rule = ElasticNetPrimalRule(rng.uniform(0.5, 2.0, n), 4, 0.2, 0.5)
            y = rng.uniform(-2.0, 2.0, n).astype(np.float32)  # dot = y - shared
            shared0 = rng.uniform(-1.0, 1.0, n).astype(np.float32)
        else:
            rule = SvmDualRule(np.ones(n, np.float32), rng.uniform(0.5, 2.0, n), n, 0.3 / n)
            # the kernel replays the rule for any zero_norm, not only 0 and 1
            rule.zero_norm = rng.uniform(0.0, 0.5, n).astype(np.float32)
            y = None
            shared0 = rng.uniform(0.0, 2.0, n).astype(np.float32)  # dot = shared
        kw = dict(wave_size=32, n_threads=4, y=y, perms=[rng.permutation(n)],
                  weights0=weights0, shared0=shared0)
        ref, prod = self._both(indptr, indices, data, rule, rng, **kw)
        inside = (ref[0] != 0) if kind == "elastic_net" else (0 < ref[0]) & (ref[0] < 1)
        assert inside.mean() > 0.5
        assert_bits_equal(ref[0], prod[0], f"{kind} weights")
        assert_bits_equal(ref[1], prod[1], f"{kind} shared")
        if kind == "elastic_net":
            # a NaN threshold passes through np.maximum into every weight
            rule.threshold = np.float32(np.nan)
            ref, prod = self._both(indptr, indices, data, rule, rng, **kw)
            assert np.isnan(ref[0]).all()
            assert_bits_equal(ref[0], prod[0], "elastic-net weights, NaN threshold")

    def test_signed_zeros_and_nans_bitwise(self):
        """numpy 2's float32 edge cases, one coordinate per case.

        Coordinate ``j < 4`` owns minor index ``j`` alone with value 1, so
        its dot is whatever ``y`` and ``shared`` make it; coordinate 3's
        value is an explicit zero (a zero-norm SVM row) and coordinate 4 is
        empty.  ``np.sign(-0.0)`` and ``np.maximum(-0.0, 0.0)`` are ``+0.0``,
        ``np.clip(-0.0, 0, 1)`` is ``-0.0``, and a NaN passes through all
        three; the kernel must agree on every one.
        """
        indptr = np.array([0, 1, 2, 3, 4, 4], dtype=np.int64)
        indices = np.arange(4, dtype=np.int64)
        data = np.array([1.0, 1.0, 1.0, 0.0], dtype=np.float32)
        norms = column_norms(indptr, data)
        rng = np.random.default_rng(0)
        # the second epoch draws coordinate 2 twice into one wave
        perms = [np.arange(5), np.array([2, 2, 0, 1, 3, 4])]

        # elastic net: coordinate 0's rho is -1e-45 * 0.5 == -0.0 and must
        # shrink to +0.0, which turns shared[0] == -0.0 into +0.0;
        # coordinate 1 reads a NaN label
        rule = ElasticNetPrimalRule(norms, 2, 0.5, 0.5)
        y = np.array([-1e-45, np.nan, 3.0, 2.0, 0.0], dtype=np.float32)
        shared0 = np.array([-0.0, 0.0, 0.5, 0.0, -0.0], dtype=np.float32)
        ref, prod = self._both(
            indptr, indices, data, rule, rng, wave_size=2, n_threads=4, y=y,
            perms=perms, weights0=np.zeros(5, np.float32), shared0=shared0,
        )
        assert not np.signbit(ref[1][0]) and np.isnan(ref[1][1])
        assert_bits_equal(ref[0], prod[0], "elastic-net weights")
        assert_bits_equal(ref[1], prod[1], "elastic-net shared")

        # SVM: alpha_0 starts at -0.0, coordinate 1 reads a NaN shared
        # entry, and the zero-norm rows 3 and 4 jump to alpha = 1
        rule = SvmDualRule(
            np.array([1.0, -1.0, 1.0, -1.0, 1.0], dtype=np.float32), norms, 5, 0.1
        )
        shared0 = np.array([0.25, np.nan, -0.5, 0.0, -0.0], dtype=np.float32)
        weights0 = np.array([-0.0, 0.5, 0.0, 0.0, 0.0], dtype=np.float32)
        ref, prod = self._both(
            indptr, indices, data, rule, rng, wave_size=2, n_threads=4, y=None,
            perms=perms, weights0=weights0, shared0=shared0,
        )
        assert np.isnan(ref[0][1]) and (ref[0][3:] == 1.0).all()
        assert_bits_equal(ref[0], prod[0], "svm alphas")
        assert_bits_equal(ref[1], prod[1], "svm shared")


@needs_cc
class TestGlmNativeBitIdentity(TestGlmPlannedBitIdentity):
    """Every GLM test above on the compiled ``tpa_epoch``."""

    backend = "native"

    def test_one_foreign_call_per_epoch(self, monkeypatch):
        """One call per epoch, one per wave under a wave-detail tracer."""
        rng, indptr, indices, data = self._structure()
        y = rng.standard_normal(45).astype(np.float32)
        rule = ElasticNetPrimalRule(column_norms(indptr, data), 45, 0.05, 0.5)
        for tracer, calls_per_epoch in ((None, 1), (Tracer(detail="wave"), 5)):
            eng = self.glm_engine(
                indptr, indices, data, wave_size=7, n_threads=8, tracer=tracer,
            )
            calls = []
            kernel = eng._native._fn
            monkeypatch.setattr(
                eng._native, "_fn", lambda *a: calls.append(kernel(*a))
            )
            wts, shared = np.zeros(30, np.float32), np.zeros(45, np.float32)
            for ep in range(2):
                eng.run_epoch(rule, wts, shared, rng.permutation(30), y=y)
            assert len(calls) == 2 * calls_per_epoch
        waves = [span for span in tracer.walk() if span.name == "glm.wave"]
        assert len(waves) == 2 * 5


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
        # a rule whose arrays are float64 cannot run on the float32 kernel
        wide_rule = ElasticNetPrimalRule(np.ones(2), 3, 0.1, 0.5, dtype=np.float64)
        with pytest.raises(ValueError, match="norms must be a 1-D C-contiguous float32"):
            engine.run_epoch(wide_rule, beta, w, perm, y=y)
        # a rule declaring fewer arrays than its case reads never reaches C
        short_rule = ElasticNetPrimalRule(np.ones(2), 3, 0.1, 0.5)
        short_rule.native = ("svm", ("norms",), ("inv_n",))
        with pytest.raises(ValueError, match="no tpa.c case 'svm' reads 1 arrays"):
            engine.run_epoch(short_rule, beta, w, perm, y=y)
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

    @needs_cc
    def test_native_engine_compiles_no_plan(self):
        """float32 runs the compiled loop; float64 has no compiled twin and
        runs the reference, for ridge and GLM rules alike."""
        indptr, indices, data, *_ = _tiny_native_problem()
        engine = build_engine(indptr, indices, data, wave_size=2, n_threads=4)
        assert engine.backend == "native"
        wide = build_engine(indptr, indices, data, wave_size=2, n_threads=4,
                            dtype=np.float64)
        assert wide.backend == "numpy"
        y = np.ones(2, np.float32)
        for dtype, backend in ((np.float32, "native"), (np.float64, "numpy")):
            rule = SvmDualRule(y, column_norms(indptr, data), 2, 0.1, dtype=dtype)
            glm = build_engine(indptr, indices, data, wave_size=2, n_threads=4,
                               dtype=dtype)
            assert glm.backend == backend
            alpha = np.zeros(2, dtype)
            glm.run_epoch(rule, alpha, np.zeros(3, dtype), np.arange(2))
            assert np.all((alpha >= 0.0) & (alpha <= 1.0))

    @pytest.mark.parametrize("backend", ["native", "numpy"])
    def test_decreasing_indptr_is_rejected_on_both_loops(self, backend, request):
        """Coordinate 1 would own ``indices[3:1]``: neither loop may walk it."""
        if backend == "numpy":
            request.getfixturevalue("no_compiler")
        elif HOST_CC is None:
            pytest.skip("no C compiler on PATH")
        indptr = np.array([0, 3, 1, 4], dtype=np.int64)
        indices = np.array([0, 1, 2, 0], dtype=np.int64)
        data = np.ones(4, np.float32)
        with pytest.raises(ValueError, match="indptr must be non-decreasing"):
            TpaScdEngine(indptr, indices, data, wave_size=2, n_threads=4)


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
