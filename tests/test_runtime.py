"""The unified cluster runtime: bit-identity goldens, parity, helpers.

Three layers of evidence that ``repro.cluster.runtime`` changed no numbers:

1. **Golden replay** — every scenario in ``tests/runtime_scenarios.py`` is
   re-run through the engines and compared *field by field, bitwise*
   against the captured fingerprints (``tests/data/runtime_goldens.json``).
2. **Cross-backend parity** — the simulated :class:`InProcessBackend` and
   the real-process :class:`PipeProcessBackend` drive the *same*
   :class:`ClusterRuntime` epoch loop; with identical seeds they must
   produce bit-identical weights, the same epoch schedule, and the same
   per-epoch gammas.
3. **Helper units** — the shared pieces the engines now delegate to
   (``PermutationStream``, ``scatter_weights``, ``plan_partitions``,
   ``shared_sizing``, ``gap_and_objective``) are pinned directly.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.runtime import (
    PermutationStream,
    plan_partitions,
    scatter_weights,
    shared_sizing,
)
from repro.core import DistributedSCD
from repro.cluster.partition import contiguous_partition, random_partition
from repro.core.distributed_svm import DistributedSvm, SvmTrainResult
from repro.cluster.faults import FaultSpec
from repro.data import make_webspam_like
from repro.objectives import RidgeProblem
from repro.objectives.ridge import gap_and_objective
from repro.objectives.svm import SvmProblem
from repro.solvers.scd import SequentialKernelFactory
from repro.sparse import CscMatrix, CsrMatrix

from .runtime_scenarios import SCENARIOS, run_scenario

GOLDENS_PATH = Path(__file__).parent / "data" / "runtime_goldens.json"
GOLDENS = json.loads(GOLDENS_PATH.read_text())


# ---------------------------------------------------------------------------
# 1. golden replay: the refactor's bit-identity contract
# ---------------------------------------------------------------------------
class TestGoldenReplay:
    def test_every_scenario_has_a_golden(self):
        assert set(SCENARIOS) == set(GOLDENS)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_bit_identical(self, name, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("runtime-goldens")
        got = run_scenario(name, tmp)
        want = GOLDENS[name]
        assert set(got) == set(want), name
        for field in want:
            assert got[field] == want[field], f"{name}: {field} diverged"


# ---------------------------------------------------------------------------
# 2. cross-backend parity: one runtime, two backends, same numbers
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def parity_problem():
    ds = make_webspam_like(220, 440, nnz_per_example=12, seed=5)
    return RidgeProblem(ds, lam=5e-3)


class TestCrossBackendParity:
    """InProcessBackend (simulated time) vs PipeProcessBackend (real
    processes) through the one ClusterRuntime epoch loop."""

    @pytest.mark.parametrize("formulation", ["primal", "dual"])
    @pytest.mark.parametrize("aggregation", ["averaging", "adaptive"])
    def test_weights_bit_identical(self, parity_problem, formulation, aggregation):
        sim = DistributedSCD(
            SequentialKernelFactory(), formulation, n_workers=2,
            aggregation=aggregation, seed=11,
        ).solve(parity_problem, 4)
        real = DistributedSCD(
            SequentialKernelFactory(), formulation, n_workers=2,
            aggregation=aggregation, seed=11, comm="process",
        ).solve(parity_problem, 4)
        assert np.array_equal(sim.weights, real.weights)
        assert np.array_equal(sim.shared, real.shared)

    def test_epoch_schedule_and_gammas_exact(self, parity_problem):
        sim = DistributedSCD(
            SequentialKernelFactory(), "dual", n_workers=3,
            aggregation="adaptive", seed=11,
        ).solve(parity_problem, 5, monitor_every=2)
        real = DistributedSCD(
            SequentialKernelFactory(), "dual", n_workers=3,
            aggregation="adaptive", seed=11, comm="process",
        ).solve(parity_problem, 5, monitor_every=2)
        assert [r.epoch for r in sim.history.records] == [
            r.epoch for r in real.history.records
        ]
        assert sim.gammas == real.gammas
        assert [r.gap for r in sim.history.records] == [
            r.gap for r in real.history.records
        ]

    def test_dropped_update_parity(self, parity_problem):
        """Functional faults (drops) degrade both backends identically."""
        spec = FaultSpec(drop_rate=0.4, seed=2)
        sim = DistributedSCD(
            SequentialKernelFactory(), "dual", n_workers=2,
            aggregation="adaptive", seed=11, faults=spec,
        ).solve(parity_problem, 4)
        real = DistributedSCD(
            SequentialKernelFactory(), "dual", n_workers=2,
            aggregation="adaptive", seed=11, faults=spec, comm="process",
        ).solve(parity_problem, 4)
        assert np.array_equal(sim.weights, real.weights)
        assert sim.fault_report.dropped_updates > 0
        assert (
            sim.fault_report.dropped_updates == real.fault_report.dropped_updates
        )
        assert (
            sim.fault_report.survivor_counts == real.fault_report.survivor_counts
        )


def _svm_problem():
    return SvmProblem(make_webspam_like(120, 240, nnz_per_example=10, seed=6), 1e-2)


#: every engine the runtime drives, on its own problem type
SURFACE_ENGINES = {
    "sync": lambda: DistributedSCD(
        SequentialKernelFactory(), "dual", n_workers=2, seed=3
    ),
    "svm": lambda: DistributedSvm(n_workers=2, seed=3),
    "process": lambda: DistributedSCD(
        SequentialKernelFactory(), "dual", n_workers=2, seed=3, comm="process"
    ),
    "async": lambda: DistributedSCD(
        SequentialKernelFactory(), "dual", n_workers=2, seed=3, comm="async",
        batch_fraction=0.5,
    ),
}


class TestUnifiedSurface:
    """One observable surface for every engine: same spans, same extras."""

    @pytest.mark.parametrize("engine", sorted(SURFACE_ENGINES))
    def test_spans_and_history_extras(self, parity_problem, engine):
        from repro.obs import Tracer

        problem = _svm_problem() if engine == "svm" else parity_problem
        tracer = Tracer()
        res = SURFACE_ENGINES[engine]().solve(problem, 2, tracer=tracer)
        (root,) = tracer.roots
        assert root.name == "distributed.train"
        names = {span.name for span in root.walk()}
        assert {"bind", "local_compute", "gap_eval"} <= names
        synchronous = engine != "async"
        # the parameter server applies pushes itself: no aggregation round
        assert ("aggregate" in names) == synchronous
        for record in res.history.records[1:]:
            assert ("gamma" in record.extras) == synchronous
            assert "survivors" not in record.extras  # no faults injected


# ---------------------------------------------------------------------------
# 3. the shared helpers, pinned directly
# ---------------------------------------------------------------------------
class TestPermutationStream:
    def test_full_take_is_one_permutation(self):
        a = PermutationStream(10, np.random.default_rng(0)).take(10)
        b = np.random.default_rng(0).permutation(10)
        assert np.array_equal(a, b)

    def test_chained_takes_cover_without_repeats(self):
        stream = PermutationStream(10, np.random.default_rng(0))
        chunks = [stream.take(3) for _ in range(10)]
        flat = np.concatenate(chunks)
        assert flat.shape[0] == 30
        # every window of 10 consecutive draws within one permutation epoch
        # is a permutation: the first 10 and second 10 each hit all coords
        assert sorted(flat[:10]) == list(range(10))
        assert sorted(flat[10:20]) == list(range(10))

    def test_partial_takes_match_sliced_permutations(self):
        """take() must walk the same permutations rng.permutation yields."""
        stream = PermutationStream(7, np.random.default_rng(42))
        got = [stream.take(4), stream.take(4), stream.take(4)]
        rng = np.random.default_rng(42)
        p1, p2 = rng.permutation(7), rng.permutation(7)
        want = [p1[:4], np.concatenate([p1[4:], p2[:1]]), p2[1:5]]
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestScatterWeights:
    def test_scatters_into_global_coordinates(self):
        parts = [np.array([3, 0]), np.array([1, 4])]
        locals_ = [np.array([30.0, 10.0]), np.array([2.0, 4.0])]
        out = scatter_weights(zip(parts, locals_), 5)
        assert np.array_equal(out, np.array([10.0, 2.0, 0.0, 30.0, 4.0]))


class TestPlanPartitions:
    def test_seeded_and_disjoint(self):
        parts, groups = plan_partitions(100, 4, 7, random_partition, None, (0, 0))
        again, _ = plan_partitions(100, 4, 7, random_partition, None, (0, 0))
        assert groups is None
        assert len(parts) == 4
        all_coords = np.sort(np.concatenate(parts))
        assert np.array_equal(all_coords, np.arange(100))
        for p, q in zip(parts, again):
            assert np.array_equal(p, q)

    def test_respects_custom_partitioner(self):
        parts, _ = plan_partitions(
            10, 2, 0, lambda n, k, rng: contiguous_partition(n, k), None, (0, 0)
        )
        assert np.array_equal(parts[0], np.arange(5))
        assert np.array_equal(parts[1], np.arange(5, 10))


class TestSharedSizing:
    def test_primal_shares_residual_dual_shares_model(self, ridge_sparse):
        n_len, _, _ = shared_sizing("primal", ridge_sparse, None)
        m_len, _, _ = shared_sizing("dual", ridge_sparse, None)
        assert n_len == ridge_sparse.n
        assert m_len == ridge_sparse.m

    def test_no_paper_scale_means_problem_sized_bytes(self, ridge_sparse):
        shared_len, comm_bytes, paper_shared = shared_sizing(
            "dual", ridge_sparse, None
        )
        assert comm_bytes == 4 * shared_len
        assert paper_shared == shared_len


class TestGapAndObjective:
    def test_primal_matches_problem_methods(self, ridge_sparse):
        w = np.random.default_rng(1).normal(size=ridge_sparse.m)
        gap, obj = gap_and_objective(ridge_sparse, w, "primal")
        assert gap == ridge_sparse.primal_gap(w)
        assert obj == ridge_sparse.primal_objective(w)

    def test_dual_matches_problem_methods(self, ridge_sparse):
        a = np.random.default_rng(2).normal(size=ridge_sparse.n)
        gap, obj = gap_and_objective(ridge_sparse, a, "dual")
        assert gap == ridge_sparse.dual_gap(a)
        assert obj == ridge_sparse.dual_objective(a)

    @pytest.mark.parametrize("formulation", ["primal", "dual"])
    def test_two_sparse_products_per_call(self, ridge_sparse, formulation, monkeypatch):
        # the recomputed shared vector feeds both the gap and the objective
        products = []
        for cls in (CscMatrix, CsrMatrix):
            for name in ("matvec", "rmatvec"):
                original = getattr(cls, name)

                def counted(self, x, _original=original):
                    products.append(1)
                    return _original(self, x)

                monkeypatch.setattr(cls, name, counted)
        size = ridge_sparse.m if formulation == "primal" else ridge_sparse.n
        x = np.random.default_rng(3).normal(size=size)
        gap, obj = gap_and_objective(ridge_sparse, x, formulation)
        assert len(products) == 2
        if formulation == "primal":
            assert (gap, obj) == (ridge_sparse.primal_gap(x), ridge_sparse.primal_objective(x))
        else:
            assert (gap, obj) == (ridge_sparse.dual_gap(x), ridge_sparse.dual_objective(x))

    def test_solvers_route_through_it(self, ridge_sparse):
        """The engines' monitoring and the helper must agree exactly."""
        res = DistributedSCD(
            SequentialKernelFactory(), "dual", n_workers=2, seed=7
        ).solve(ridge_sparse, 2)
        gap, obj = gap_and_objective(
            ridge_sparse, res.weights.astype(np.float64), "dual"
        )
        assert res.history.records[-1].gap == gap
        assert res.history.records[-1].objective == obj


# ---------------------------------------------------------------------------
# SvmTrainResult: named fields are the API (the tuple-unpack path is gone)
# ---------------------------------------------------------------------------
class TestSvmTrainResultDeprecation:
    @pytest.fixture(scope="class")
    def svm_result(self) -> SvmTrainResult:
        problem = SvmProblem(
            make_webspam_like(80, 160, nnz_per_example=8, seed=6), lam=1e-2
        )
        return DistributedSvm(n_workers=2, seed=3).solve(problem, 2)

    def test_named_fields_do_not_warn(self, svm_result):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert svm_result.weights is not None
            assert svm_result.alpha is not None
            assert svm_result.history.final_gap() >= 0.0
            assert svm_result.ledger is not None
