"""Microbenchmarks of the epoch plan compiler and pooled wave runtime.

Statistical timings (pytest-benchmark) of the pieces `docs/performance.md`
describes: cold plan compilation vs warm cache hits, per-epoch plan
specialisation, and one TPA epoch through the production wave loop.
"""

import numpy as np
import pytest

from repro.core.tpa_scd import TpaScdKernelFactory
from repro.data.synthetic import make_sparse_regression
from repro.gpu import WavePlan, clear_plan_cache, get_plan
from repro.objectives import RidgeProblem

WAVE, THREADS = 64, 256


@pytest.fixture(scope="module")
def bench_problem():
    ds = make_sparse_regression(
        4096, 2048, nnz_per_example=24, feature_exponent=1.0,
        rng=np.random.default_rng(7), name="bench-plan",
    )
    return RidgeProblem(ds, 1e-3)


def test_plan_cold_compile(benchmark, bench_problem):
    """WavePlan construction from the permutation-independent structure."""
    csc = bench_problem.dataset.csc

    def cold():
        return WavePlan(
            csc.indptr, wave_size=WAVE, n_threads=THREADS, dtype=np.float32
        )

    plan = benchmark(cold)
    assert plan.n_coords == bench_problem.m


def test_plan_warm_cache_hit(benchmark, bench_problem):
    """get_plan on an already-bound matrix: a dict probe, not a compile."""
    csc = bench_problem.dataset.csc
    clear_plan_cache()
    first = get_plan(csc.indptr, wave_size=WAVE, n_threads=THREADS, dtype=np.float32)

    def warm():
        return get_plan(
            csc.indptr, wave_size=WAVE, n_threads=THREADS, dtype=np.float32
        )

    assert benchmark(warm) is first


def test_epoch_specialisation(benchmark, bench_problem):
    """begin_epoch: the one bulk pass that parameterises an epoch."""
    csc = bench_problem.dataset.csc
    plan = WavePlan(
        csc.indptr, wave_size=WAVE, n_threads=THREADS, dtype=np.float32
    )
    perm = np.random.default_rng(0).permutation(bench_problem.m)
    run = benchmark(
        plan.begin_epoch, csc.indices, csc.data.astype(np.float32),
        perm, n_minor=csc.shape[0],
    )
    assert run.seg_ptr[-1] == csc.nnz


def test_tpa_epoch(benchmark, bench_problem):
    clear_plan_cache()
    csc = bench_problem.dataset.csc
    bound = TpaScdKernelFactory(n_threads=THREADS, wave_size=WAVE).bind_primal(
        csc, bench_problem.y, bench_problem.n, bench_problem.lam
    )
    beta = np.zeros(bench_problem.m, dtype=bound.dtype)
    w = np.zeros(bench_problem.n, dtype=bound.dtype)
    perm = np.random.default_rng(1).permutation(bench_problem.m)
    rng = np.random.default_rng(2)
    benchmark(bound.run_epoch, beta, w, perm, rng)
    assert np.any(beta != 0)
