"""Tests for the GPU wave counters a tracer records, and the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.tpa_scd import TpaScdKernelFactory
from repro.gpu import GTX_TITAN_X, GpuDevice, RidgePrimalRule, TpaScdEngine
from repro.gpu.engine import reference_epoch
from repro.obs import NULL_TRACER, Tracer
from repro.solvers.base import ScdSolver

from .test_plan_runtime import WAVE_COUNTERS


def traced_wave(indptr, indices, n_threads, perm, wave_size):
    """The wave counters of one primal epoch over ``perm``, for each loop.

    Returns ``{"engine": counters, "reference": counters}``: the engine's own
    loop (compiled when a compiler is present) and :func:`reference_epoch`.
    """
    data = np.ones(indices.shape[0], np.float32)
    n_coords, n_minor = indptr.shape[0] - 1, int(indices.max()) + 1
    rule = RidgePrimalRule(np.ones(n_coords), n_minor, 0.1)
    y = np.ones(n_minor, np.float32)
    out = {}
    for loop in ("engine", "reference"):
        tracer = Tracer()
        beta, w = np.zeros(n_coords, np.float32), np.zeros(n_minor, np.float32)
        if loop == "engine":
            TpaScdEngine(
                indptr, indices, data, wave_size=wave_size, n_threads=n_threads,
                tracer=tracer,
            ).run_epoch(rule, beta, w, perm, y=y)
        else:
            reference_epoch(
                indptr, indices, data, rule, beta, w, perm, wave_size=wave_size,
                n_threads=n_threads, y=y, tracer=tracer,
            )
        out[loop] = {name: tracer.metrics.counter(name) for name in WAVE_COUNTERS}
    return out


class TestKernelProfile:
    """Conflict rate and occupancy are derivable from the tracer's counters."""

    def test_record_wave_counts(self):
        # two blocks: 3 nnz hitting rows [0,1,0] and 2 nnz hitting [2,3]
        indptr = np.array([0, 3, 5], dtype=np.int64)
        indices = np.array([0, 1, 0, 2, 3], dtype=np.int64)
        counters = traced_wave(indptr, indices, 4, np.arange(2), wave_size=2)
        expected = {
            "gpu.waves": 1, "gpu.blocks": 2, "gpu.nnz_processed": 5,
            "gpu.atomic_conflicts": 1,  # row 0 written twice
            "gpu.lanes_active": 3 + 2,
        }
        assert counters["engine"] == expected
        assert counters["reference"] == expected

    def test_conflict_rate_and_occupancy(self):
        indptr = np.array([0, 4], dtype=np.int64)
        indices = np.zeros(4, dtype=np.int64)
        n_threads = 8
        for c in traced_wave(indptr, indices, n_threads, np.arange(1), 1).values():
            conflict_rate = c["gpu.atomic_conflicts"] / c["gpu.nnz_processed"]
            occupancy = c["gpu.lanes_active"] / (c["gpu.blocks"] * n_threads)
            assert conflict_rate == pytest.approx(3 / 4)
            assert occupancy == pytest.approx(4 / 8)

    def test_empty_profile_metrics(self):
        # an epoch over no coordinates schedules no wave
        indptr = np.array([0, 2], dtype=np.int64)
        indices = np.array([0, 1], dtype=np.int64)
        perm = np.zeros(0, dtype=np.int64)
        for counters in traced_wave(indptr, indices, 4, perm, 2).values():
            assert counters == dict.fromkeys(WAVE_COUNTERS, 0.0)

    def test_profile_through_solver(self, ridge_sparse):
        tracer = Tracer()
        fac = TpaScdKernelFactory(GpuDevice(GTX_TITAN_X), wave_size=8)
        res = ScdSolver(fac, "dual", seed=0).solve(ridge_sparse, 2, tracer=tracer)
        m = res.metrics
        assert m.counter("gpu.waves") == 2 * -(-ridge_sparse.n // 8)
        assert m.counter("gpu.blocks") == 2 * ridge_sparse.n
        assert m.counter("gpu.nnz_processed") == 2 * ridge_sparse.dataset.nnz
        occupancy = m.counter("gpu.lanes_active") / (m.counter("gpu.blocks") * fac.n_threads)
        assert 0.0 < occupancy <= 1.0
        conflict_rate = m.counter("gpu.atomic_conflicts") / m.counter("gpu.nnz_processed")
        assert 0.0 <= conflict_rate < 1.0

    def test_no_profiler_by_default(self, ridge_sparse):
        fac = TpaScdKernelFactory(GpuDevice(GTX_TITAN_X), wave_size=8)
        res = ScdSolver(fac, "dual", seed=0).solve(ridge_sparse, 1)
        assert res.history.final_gap() < 1.0
        # an untraced run records nothing, anywhere
        assert res.trace is None and res.metrics is None
        assert fac.tracer is NULL_TRACER


class TestCli:
    def test_list_contains_all_figures(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1", "fig2", "fig9", "fig10", "headline",
                     "ext-smart-partition", "ablation-wave"):
            assert name in out

    def test_info_mentions_paper(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Parnell" in out and "TPA-SCD" in out

    def test_run_prints_series(self, capsys):
        assert main(["run", "ext-smart-partition", "--max-rows", "4"]) == 0
        out = capsys.readouterr().out
        assert "correlation-aware" in out
        assert "gap" in out

    def test_run_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_parser_scale_choices(self):
        parser = build_parser()
        args = parser.parse_args(["run", "fig1", "--scale", "full"])
        assert args.scale == "full"
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "fig1", "--scale", "gigantic"])
