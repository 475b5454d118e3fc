"""SySCD solver contract: determinism, merge semantics, backend bit-identity.

The discipline mirrors the golden-fingerprint approach of the TPA tests:
the single-thread numpy path is the bitwise reference (pinned by sha256 of
the weight bytes), the threaded path must agree with it on per-epoch
objectives to tolerance at every thread count, and the compiled C backend
must be bit-identical to numpy wherever a C compiler is present.  No option
selects the backend: the numpy runs hide the compiler (the ``no_compiler``
fixture), as the TPA suites do.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import shutil
import tomllib
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import SolverConfig, native, train
from repro.experiments.config import SCALES, webspam_problem
from repro.native import load_native
from repro.obs import Tracer
from repro.solvers.kernels import _epoch_gather
from repro.solvers.scd import SequentialSCD
from repro.solvers.syscd import SySCD, SyscdCpuTiming, SyscdKernelFactory
from repro.solvers.syscd_kernels import (
    ExactPass,
    NativeBinding,
    auto_bucket_size,
    bucket_bounds,
    bucket_pass_numpy,
    exact_epoch_numpy,
)

#: the C compiler the native backend builds with, when the host has one
HOST_CC = shutil.which(native.CC)
needs_cc = pytest.mark.skipif(HOST_CC is None, reason="no C compiler on PATH")

#: sha256 of the float64 weight bytes after the pinned reference run below
#: (tiny webspam, 5 epochs, seed 0, single thread, numpy backend)
GOLDEN_WEIGHTS_SHA = (
    "3993e50025e7d4a146817c6316965ff604f4dd668427d7d9e443406872d29b8e"
)
GOLDEN_SHARED_SHA = (
    "9aae4db169f4a6552791e986c778173987b34bfd62ac78c0d731ad3977d70004"
)


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def tiny_problem():
    problem, _ = webspam_problem(SCALES["tiny"])
    return problem


def _script(path: Path, body: str) -> str:
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(0o755)
    return str(path)


# ---------------------------------------------------------------------------
# bucket partition
# ---------------------------------------------------------------------------


class TestBucketPartition:
    @given(
        n_coords=st.integers(min_value=0, max_value=5000),
        bucket_size=st.integers(min_value=1, max_value=600),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_coordinate_in_exactly_one_bucket(self, n_coords, bucket_size):
        edges = bucket_bounds(n_coords, bucket_size)
        # edges tile [0, n_coords] without gaps or overlaps, so the buckets
        # perm[edges[b]:edges[b+1]] partition any epoch permutation exactly
        assert edges[0] == 0
        assert edges[-1] == n_coords
        widths = np.diff(edges)
        assert (widths > 0).all()
        assert (widths <= bucket_size).all()
        assert widths.sum() == n_coords
        perm = np.random.default_rng(0).permutation(n_coords)
        covered = np.concatenate(
            [perm[edges[b]:edges[b + 1]] for b in range(edges.shape[0] - 1)]
        ) if edges.shape[0] > 1 else np.empty(0, dtype=np.int64)
        assert np.array_equal(np.sort(covered), np.arange(n_coords))

    def test_bucket_bounds_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            bucket_bounds(10, 0)
        with pytest.raises(ValueError):
            bucket_bounds(-1, 4)

    def test_auto_bucket_size_bounds(self):
        assert auto_bucket_size(100, 4) == 8  # floor
        assert auto_bucket_size(10**6, 1) == 256  # cap
        assert auto_bucket_size(2048, 4) == 32
        with pytest.raises(ValueError):
            auto_bucket_size(100, 0)


# ---------------------------------------------------------------------------
# backend resolution
# ---------------------------------------------------------------------------


class TestBackendResolution:
    """The factory binds the C kernels when they load, numpy otherwise."""

    def test_numpy_always_resolves(self, no_compiler, tiny_problem):
        factory = SyscdKernelFactory(n_threads=2)
        assert factory.backend == "numpy"
        res = SySCD(n_threads=2).solve(tiny_problem, 1)
        assert res.solver_name.startswith("SySCD(2 threads, numpy)")

    def test_auto_degrades_gracefully(self, fresh_native, monkeypatch):
        # with a compiler the factory binds the C kernels; without one it
        # silently falls back to the bit-identical numpy kernels
        assert SyscdKernelFactory().backend == ("native" if HOST_CC else "numpy")
        monkeypatch.setattr(native, "CC", "repro-no-such-cc")
        assert SyscdKernelFactory().backend == "numpy"

    def test_explicit_native_errors_without_compiler(self, no_compiler):
        with pytest.raises(ValueError, match="native C kernels are unavailable") as info:
            load_native()
        # the message names the command that could not run
        assert "`repro-no-such-cc --version` could not run" in str(info.value)
        # the factory never raises for it: it reports the loop it runs
        assert SyscdKernelFactory().backend == "numpy"

    def test_unknown_backend_rejected(self):
        # no option selects the loop: neither the factory, the solver nor
        # the train config takes one
        for callable_ in (SyscdKernelFactory, SySCD):
            params = inspect.signature(callable_).parameters
            assert not [name for name in params if "backend" in name]
        assert not [
            f.name for f in dataclasses.fields(SolverConfig) if "backend" in f.name
        ]

    def test_factory_name_reports_resolved_backend(self, fresh_native, monkeypatch):
        factory = SyscdKernelFactory(n_threads=2)
        assert factory.name == f"SySCD(2 threads, {'native' if HOST_CC else 'numpy'})"
        monkeypatch.setattr(native, "CC", "repro-no-such-cc")
        assert SyscdKernelFactory(n_threads=2).name == "SySCD(2 threads, numpy)"


# ---------------------------------------------------------------------------
# single-thread reference: determinism + golden fingerprint
# ---------------------------------------------------------------------------


class TestReferencePath:
    """The numpy kernels, with the compiler hidden."""

    @pytest.fixture(autouse=True)
    def _hide_compiler(self, no_compiler):
        pass

    def test_golden_fingerprint(self, tiny_problem):
        res = train(tiny_problem, "syscd", n_epochs=5, n_threads=1)
        assert res.solver_name.startswith("SySCD(1 threads, numpy)")
        assert _sha(res.weights) == GOLDEN_WEIGHTS_SHA
        assert _sha(res.shared) == GOLDEN_SHARED_SHA

    def test_single_thread_matches_sequential_scd(self, tiny_problem):
        # same permutation stream, same update rule, same exact pass
        ref = SequentialSCD(seed=3).solve(tiny_problem, 4)
        res = SySCD(n_threads=1, seed=3).solve(tiny_problem, 4)
        assert np.array_equal(res.weights, ref.weights)
        assert np.array_equal(res.shared, ref.shared)

    def test_bucket_size_never_changes_single_thread_results(self, tiny_problem):
        # the exact path visits perm in order regardless of bucket edges
        base = train(tiny_problem, "syscd", n_epochs=3, n_threads=1)
        for bucket_size in (1, 7, 4096):
            res = train(
                tiny_problem, "syscd", n_epochs=3, n_threads=1,
                bucket_size=bucket_size,
            )
            assert np.array_equal(res.weights, base.weights)

    def test_dual_single_thread_matches_sequential(self, tiny_problem):
        ref = SequentialSCD("dual", seed=1).solve(tiny_problem, 3)
        res = SySCD("dual", n_threads=1, seed=1).solve(tiny_problem, 3)
        assert np.array_equal(res.weights, ref.weights)
        assert np.array_equal(res.shared, ref.shared)


# ---------------------------------------------------------------------------
# threaded path: determinism + objective agreement + merge semantics
# ---------------------------------------------------------------------------


class TestThreadedPath:
    def test_threaded_runs_deterministic(self, tiny_problem):
        a = train(tiny_problem, "syscd", n_epochs=3, n_threads=4)
        b = train(tiny_problem, "syscd", n_epochs=3, n_threads=4)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.shared, b.shared)

    @pytest.mark.parametrize("n_threads", [1, 2, 4])
    @pytest.mark.parametrize("formulation", ["primal", "dual"])
    def test_per_epoch_objective_agreement(
        self, tiny_problem, n_threads, formulation, request
    ):
        # the acceptance contract: threaded trajectories pin per-epoch
        # objective agreement with the single-thread numpy reference to
        # tolerance
        res = train(
            tiny_problem, "syscd", formulation=formulation, n_epochs=4,
            n_threads=n_threads,
        )
        request.getfixturevalue("no_compiler")
        ref = train(
            tiny_problem, "syscd", formulation=formulation, n_epochs=4,
            n_threads=1,
        )
        assert ref.solver_name.startswith("SySCD(1 threads, numpy)")
        ref_objs = ref.history.objectives
        objs = res.history.objectives
        assert objs.shape == ref_objs.shape
        np.testing.assert_allclose(objs, ref_objs, rtol=2e-2)
        # and the endpoint is tight, not merely within the band
        assert abs(objs[-1] - ref_objs[-1]) / abs(ref_objs[-1]) < 5e-3

    def test_sum_merge_preserves_shared_invariant(self, tiny_problem):
        # sum-correction merge keeps w == A beta exactly as in the
        # sequential solver (up to float64 accumulation error): no update
        # is ever lost, unlike the wild-write baselines
        res = train(tiny_problem, "syscd", n_epochs=3, n_threads=4)
        recomputed = tiny_problem.dataset.csc.matvec(
            res.weights.astype(np.float64)
        )
        np.testing.assert_allclose(res.shared, recomputed, atol=1e-9)
        assert res.lost_updates == 0

    def test_mean_merge_damps_but_stays_stable(self, tiny_problem):
        # replica averaging is the conservative merge: slower progress per
        # epoch, but the objective must still decrease monotonically from
        # the cold start
        res = train(
            tiny_problem, "syscd", n_epochs=6, n_threads=4, merge="mean"
        )
        objs = res.history.objectives
        assert objs[-1] < objs[0]
        assert np.isfinite(objs).all()

    def test_merge_divergence_observed(self, tiny_problem):
        tracer = Tracer()
        train(tiny_problem, "syscd", n_epochs=2, n_threads=2, tracer=tracer)
        hist = tracer.metrics.histogram("syscd.merge_divergence")
        assert hist is not None and hist.count > 0

    def test_threaded_dual_formulation_converges(self, tiny_problem):
        res = train(
            tiny_problem, "syscd", formulation="dual", n_epochs=8, n_threads=4
        )
        assert res.history.final_gap() < 1e-4


# ---------------------------------------------------------------------------
# native (C) backend bit-identity (runs wherever a C compiler is present)
# ---------------------------------------------------------------------------


def _bits(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64)


def _spread(rng, values: np.ndarray) -> np.ndarray:
    """Rescale a quarter of ``values`` across 1e-12..1e12, signed-zero another."""
    n = values.shape[0]
    picks = rng.permutation(n)
    wide, zero = picks[: n // 4], picks[n // 4: n // 2]
    values[wide] *= 10.0 ** rng.integers(-12, 13, size=wide.size)
    values[zero] = -0.0
    return values


def _adversarial_matrix(rng, n_coords: int, shared_len: int, *, unique: bool):
    """CSC-like triplet whose values stress summation order.

    Comparable magnitudes (where order shows in the last bit) mixed with a
    1e-12..1e12 spread, denormals and signed zeros, plus coordinates with
    no entries.  Coordinate 0 alone touches minor index 0, with a single
    ``+0.0``: on a ``-0.0`` shared entry its product is ``-0.0``, the case
    where seeding a sum with ``0.0`` instead of the first product flips the
    sign of the zero written back to that entry.
    With ``unique`` every coordinate's minor indices are distinct
    (canonical storage, which the exact pass assumes); otherwise they
    repeat, which ``np.add.at`` order makes deterministic.
    """
    lengths = rng.integers(0, 9, size=n_coords)
    lengths[rng.choice(n_coords, size=n_coords // 4, replace=False)] = 0
    lengths[0] = 1
    indptr = np.zeros(n_coords + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    indices = np.concatenate([
        1 + rng.choice(shared_len - 1, size=k, replace=not unique) for k in lengths
    ]).astype(np.int64)
    nnz = int(indptr[-1])
    data = _spread(rng, rng.standard_normal(nnz))
    data[rng.choice(nnz, size=nnz // 8, replace=False)] = rng.choice(
        [5e-324, -2.5e-310, 0.0], size=nnz // 8
    )
    indices[0], data[0] = 0, 0.0
    return indptr, indices, data


def _adversarial_vectors(rng, n_coords: int, shared_len: int):
    """``(target, inv_denom, coef, shared)`` matching :func:`_adversarial_matrix`."""
    target = _spread(rng, rng.standard_normal(n_coords))
    coef = _spread(rng, rng.standard_normal(n_coords))
    shared = _spread(rng, rng.standard_normal(shared_len))
    target[0], coef[0], shared[0] = -0.0, 0.0, -0.0
    return target, 1.0 / (1.0 + rng.random(n_coords)), coef, shared


@needs_cc
class TestNativeBitIdentity:
    def test_goldens_at_one_thread(self, tiny_problem):
        res = train(tiny_problem, "syscd", n_epochs=5, n_threads=1)
        assert res.solver_name.startswith("SySCD(1 threads, native)")
        assert _sha(res.weights) == GOLDEN_WEIGHTS_SHA
        assert _sha(res.shared) == GOLDEN_SHARED_SHA

    @pytest.mark.parametrize("merge", ["sum", "mean"])
    @pytest.mark.parametrize("n_threads", [2, 4])
    @pytest.mark.parametrize("formulation", ["primal", "dual"])
    def test_threaded_bitwise_equal(
        self, tiny_problem, formulation, n_threads, merge, request
    ):
        def run():
            return train(
                tiny_problem, "syscd", formulation=formulation, n_epochs=3,
                n_threads=n_threads, merge=merge,
            )

        res = run()
        request.getfixturevalue("no_compiler")
        ref = run()
        assert res.solver_name.startswith(f"SySCD({n_threads} threads, native)")
        assert ref.solver_name.startswith(f"SySCD({n_threads} threads, numpy)")
        assert np.array_equal(_bits(res.weights), _bits(ref.weights))
        assert np.array_equal(_bits(res.shared), _bits(ref.shared))
        assert np.array_equal(_bits(res.history.gaps), _bits(ref.history.gaps))

    def test_bucket_chunk_bitwise_on_adversarial_values(self):
        # C reads coordinates through perm + indptr; the reference gathers
        # the epoch first and passes one bucket at a time
        rng = np.random.default_rng(11)
        n_coords, shared_len, bucket_size = 48, 16, 7
        indptr, indices, data = _adversarial_matrix(
            rng, n_coords, shared_len, unique=False
        )
        target, inv_denom, coef0, replica0 = _adversarial_vectors(
            rng, n_coords, shared_len
        )
        nlam = 0.37
        edges = bucket_bounds(n_coords, bucket_size)
        chunk = rng.permutation(edges.shape[0] - 1)[:5].astype(np.int64)
        # coordinate 0 opens the chunk's first bucket: its -0.0 product is
        # the first term of that bucket's running sum
        perm = rng.permutation(n_coords).astype(np.int64)
        head, where = int(edges[chunk[0]]), int(np.flatnonzero(perm == 0)[0])
        perm[[head, where]] = perm[[where, head]]

        coef_np, replica_np = coef0.copy(), replica0.copy()
        e_idx, e_val, eptr = _epoch_gather(indptr, indices, data, perm)
        for b in chunk:
            lo, hi = edges[b], edges[b + 1]
            a, z = int(eptr[lo]), int(eptr[hi])
            bucket_pass_numpy(
                e_idx[a:z], e_val[a:z], eptr[lo:hi + 1] - a, perm[lo:hi],
                target, inv_denom, nlam, coef_np, replica_np,
            )

        coef_c, replica_c = coef0.copy(), replica0.copy()
        binding = NativeBinding(
            indptr, indices, data, target, inv_denom, nlam, [replica_c],
            bucket_size,
        )
        binding.bind_buckets(coef_c, perm, edges, [chunk])(0, 0, chunk.shape[0])
        assert np.array_equal(_bits(coef_c), _bits(coef_np))
        assert np.array_equal(_bits(replica_c), _bits(replica_np))

    def test_exact_pass_bitwise_on_adversarial_values(self):
        rng = np.random.default_rng(12)
        n_coords, shared_len = 40, 24
        indptr, indices, data = _adversarial_matrix(
            rng, n_coords, shared_len, unique=True
        )
        target, inv_denom, coef0, shared0 = _adversarial_vectors(
            rng, n_coords, shared_len
        )
        # coordinate 0 first, while shared[0] still holds its -0.0
        perm = np.concatenate([[0], 1 + rng.permutation(n_coords - 1)]).astype(np.int64)

        coef_np, shared_np = coef0.copy(), shared0.copy()
        exact_epoch_numpy(
            indptr, indices, data, target, inv_denom, 0.37, coef_np, shared_np, perm
        )
        coef_c, shared_c = coef0.copy(), shared0.copy()
        exact = ExactPass(
            indptr, indices, data, target, inv_denom, 0.37, shared_len, "native"
        )
        exact.bind(coef_c, shared_c, perm)(0, n_coords)
        assert np.array_equal(_bits(coef_c), _bits(coef_np))
        assert np.array_equal(_bits(shared_c), _bits(shared_np))


# ---------------------------------------------------------------------------
# native backend: build, cache and argument-checking failure paths
# ---------------------------------------------------------------------------


def _tiny_binding_arrays():
    indptr = np.array([0, 2, 3], dtype=np.int64)
    indices = np.array([0, 1, 1], dtype=np.int64)
    data = np.array([1.0, 2.0, 3.0])
    return indptr, indices, data, np.ones(2), np.ones(2), 0.5, [np.zeros(2)]


class TestNativeFailurePaths:
    def test_compile_error_names_command_and_quotes_stderr(self, fresh_native, monkeypatch):
        broken = _script(
            fresh_native / "broken-cc",
            'if [ "$1" = --version ]; then echo "broken-cc 1.0"; exit 0; fi\n'
            'echo "syscd.c:1: error: planted failure" >&2\n'
            "exit 1\n",
        )
        monkeypatch.setattr(native, "CC", broken)
        assert SyscdKernelFactory().backend == "numpy"
        with pytest.raises(ValueError) as info:
            load_native()
        message = str(info.value)
        assert f"`{broken} -O2 -fPIC -shared -ffp-contract=off " in message
        assert "exited with status 1" in message
        assert "error: planted failure" in message

    @needs_cc
    def test_second_bind_reuses_cached_library(self, fresh_native, monkeypatch, tiny_problem):
        log = fresh_native / "cc.log"
        wrapper = _script(
            fresh_native / "logging-cc", f'echo "$*" >> {log}\nexec {HOST_CC} "$@"\n'
        )
        monkeypatch.setattr(native, "CC", wrapper)

        def compiles() -> int:
            lines = log.read_text().splitlines() if log.exists() else []
            return sum(1 for line in lines if line != "--version")

        first = train(tiny_problem, "syscd", n_epochs=1, n_threads=2)
        assert first.solver_name.startswith("SySCD(2 threads, native)")
        assert compiles() == 1
        built = list((fresh_native / "cache" / "repro").glob("repro_native-*.so"))
        assert len(built) == 1
        # a second bind in this process reuses the loaded library: no cc at all
        calls = log.read_text()
        second = train(tiny_problem, "syscd", n_epochs=1, n_threads=2)
        assert log.read_text() == calls
        # a fresh process loads the cached .so: cc is asked its version only
        monkeypatch.setattr(native, "_NATIVE", {})
        assert load_native() is not None
        assert compiles() == 1
        assert np.array_equal(first.weights, second.weights)
        # no temporary file is left beside the cached library
        assert sorted(p.name for p in built[0].parent.iterdir()) == [built[0].name]

    @needs_cc
    def test_argument_mismatch_raises_before_any_foreign_call(self, monkeypatch):
        indptr, indices, data, target, inv_denom, nlam, replicas = _tiny_binding_arrays()
        with pytest.raises(ValueError, match="data must be a 1-D C-contiguous float64"):
            NativeBinding(indptr, indices, data.astype(np.float32), target,
                          inv_denom, nlam, replicas, 4)
        with pytest.raises(ValueError, match="indices must be a 1-D C-contiguous int64"):
            NativeBinding(indptr, indices.astype(np.int32), data, target,
                          inv_denom, nlam, replicas, 4)
        with pytest.raises(ValueError, match="indices outside"):
            NativeBinding(indptr, indices + 5, data, target, inv_denom, nlam,
                          replicas, 4)
        with pytest.raises(ValueError, match="indices outside"):
            ExactPass(indptr, indices + 5, data, target, inv_denom, nlam, 2,
                      "native")

        binding = NativeBinding(indptr, indices, data, target, inv_denom, nlam,
                                replicas, 4)
        exact = ExactPass(indptr, indices, data, target, inv_denom, nlam, 2,
                          "native")
        foreign_calls = []
        monkeypatch.setattr(exact, "_exact", lambda *a: foreign_calls.append(a))
        monkeypatch.setattr(binding, "_bucket", lambda *a: foreign_calls.append(a))
        perm = np.array([1, 0], dtype=np.int64)
        coef, shared = np.zeros(2), np.zeros(2)
        edges = bucket_bounds(2, 4)
        assigned = [np.array([0], dtype=np.int64)]
        bad = {
            "coef must be a 1-D C-contiguous float64": dict(coef=coef.astype(np.float32)),
            "shared must be a 1-D C-contiguous float64": dict(shared=np.zeros(4)[::2]),
            "not C-contiguous": dict(shared=np.zeros(4)[::2]),
            "perm must be a 1-D C-contiguous int64": dict(perm=perm.astype(np.int32)),
            "perm outside": dict(perm=np.array([0, 2], dtype=np.int64)),
            "coef has length 3": dict(coef=np.zeros(3)),
        }
        for message, override in bad.items():
            args = dict(coef=coef, shared=shared, perm=perm) | override
            with pytest.raises(ValueError, match=message):
                exact.bind(args["coef"], args["shared"], args["perm"])
            if "shared" not in override:
                with pytest.raises(ValueError, match=message):
                    binding.bind_buckets(args["coef"], args["perm"], edges, assigned)
        assert foreign_calls == []
        # the same arrays, correct, do reach the (stubbed) foreign call
        exact.bind(coef, shared, perm)(0, 2)
        binding.bind_buckets(coef, perm, edges, assigned)(0, 0, 1)
        assert len(foreign_calls) == 2

    @pytest.mark.parametrize("backend", ["native", "numpy"])
    def test_decreasing_indptr_is_rejected_by_both_backends(self, backend, request):
        """Coordinate 1 would own ``indices[3:1]``: neither backend may walk it."""
        if backend == "numpy":
            request.getfixturevalue("no_compiler")
        elif HOST_CC is None:
            pytest.skip("no C compiler on PATH")
        _, indices, data, target, inv_denom, nlam, replicas = _tiny_binding_arrays()
        indptr = np.array([0, 3, 1], dtype=np.int64)
        factory = SyscdKernelFactory(n_threads=2)
        assert factory.backend == backend
        with pytest.raises(ValueError, match="indptr must be non-decreasing"):
            factory._make_run_epoch(indptr, indices, data, target, inv_denom, nlam, 2, 4)
        with pytest.raises(ValueError, match="indptr must be non-decreasing"):
            ExactPass(indptr, indices, data, target, inv_denom, nlam, 2, backend)
        if backend == "native":
            with pytest.raises(ValueError, match="indptr must be non-decreasing"):
                NativeBinding(indptr, indices, data, target, inv_denom, nlam, replicas, 4)

    def test_source_ships_as_package_data(self):
        sources = {
            entry.name: entry.read_text()
            for entry in resources.files("repro.native").iterdir()
            if entry.name.endswith(".c")
        }
        assert "syscd_bucket_chunk" in sources["syscd.c"]
        assert "tpa_epoch" in sources["tpa.c"]
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        package_data = tomllib.loads(pyproject.read_text())["tool"]["setuptools"][
            "package-data"
        ]
        assert package_data["repro.native"] == ["*.c"]


# ---------------------------------------------------------------------------
# facade + config validation + timing model
# ---------------------------------------------------------------------------


class TestFacadeAndConfig:
    def test_alias_registered(self):
        from repro.api import SOLVER_ALIASES

        assert SOLVER_ALIASES["syscd"] == "syscd"
        assert SOLVER_ALIASES["sy-scd"] == "syscd"

    def test_train_facade_returns_result(self, tiny_problem):
        res = train(
            tiny_problem, "syscd",
            config=SolverConfig(n_epochs=2, n_threads=2),
        )
        assert res.solver_name.startswith("SySCD(2 threads")
        assert res.ledger is not None and res.ledger.total > 0

    def test_config_knobs_validated(self, fresh_native):
        with pytest.raises(ValueError, match="bucket_size"):
            SyscdKernelFactory(bucket_size=0)
        with pytest.raises(ValueError, match="merge_every"):
            SyscdKernelFactory(merge_every=0)
        with pytest.raises(ValueError, match="merge"):
            SyscdKernelFactory(merge="max")
        with pytest.raises(ValueError, match="n_threads"):
            SyscdKernelFactory(n_threads=0)
        with pytest.raises(ValueError, match="at most"):
            SyscdKernelFactory(n_threads=64)
        # a rejected knob fails before the kernel library is built or loaded
        assert native._NATIVE == {}

    def test_repro_exports_solver(self):
        assert repro.SySCD is SySCD

    def test_timing_model_monotone_in_threads(self):
        from repro.perf.timing import EpochWorkload

        workload = EpochWorkload(n_coords=4096, nnz=10**6, shared_len=4096)
        seconds = [
            SyscdCpuTiming(n_threads=t).epoch_seconds(workload)
            for t in (1, 2, 4, 8)
        ]
        assert all(a > b for a, b in zip(seconds, seconds[1:]))
        # merge overhead keeps scaling sub-linear
        assert seconds[0] / seconds[3] < 8.0

    def test_timing_counts_merges(self):
        timing = SyscdCpuTiming(n_threads=4, bucket_size=64, merge_every=2)
        # 2048 coords -> 32 buckets -> 8 per thread -> 4 merge periods
        assert timing.merges_per_epoch(2048) == 4
        assert timing.component == "compute_host"


class TestObservability:
    def test_wave_detail_emits_bucket_and_merge_spans(self, tiny_problem):
        tracer = Tracer(detail="wave")
        train(tiny_problem, "syscd", n_epochs=2, n_threads=2, tracer=tracer)
        names = {span.name for span in tracer.walk()}
        assert "syscd.bucket" in names
        assert "syscd.merge" in names

    def test_epoch_detail_emits_metrics_only(self, tiny_problem):
        tracer = Tracer()  # default detail="epoch"
        train(tiny_problem, "syscd", n_epochs=2, n_threads=2, tracer=tracer)
        names = {span.name for span in tracer.walk()}
        assert "syscd.bucket" not in names
        metrics = tracer.metrics
        assert metrics.counter("syscd.buckets") > 0
        assert metrics.counter("syscd.merges") > 0
        assert metrics.gauge("syscd.threads") == 2
        assert metrics.gauge("syscd.bucket_imbalance") >= 1.0

    def test_tracing_never_perturbs_trajectory(self, tiny_problem):
        plain = train(tiny_problem, "syscd", n_epochs=2, n_threads=2)
        traced = train(
            tiny_problem, "syscd", n_epochs=2, n_threads=2,
            tracer=Tracer(detail="wave"),
        )
        assert np.array_equal(plain.weights, traced.weights)
