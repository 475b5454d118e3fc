"""The async parameter server as a CommBackend (``comm="async"``).

The asynchronous parameter server lives on the runtime's CommBackend
seam; these tests pin the seam-level guarantees the golden replay
(``async-dual-k3`` in ``tests/test_runtime.py``) cannot see: the
bounded-staleness pull schedule, fault semantics (dropout/straggler only —
pushes are atomic), elastic membership through the server, and the
``train()`` front door.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro.cluster.async_backend import AsyncParamServerBackend
from repro.cluster.faults import FaultSpec
from repro.cluster.membership import MembershipSchedule
from repro.core import DistributedSCD
from repro.core.distributed import _ScdWorkerPool
from repro.data import make_webspam_like
from repro.objectives import RidgeProblem
from repro.solvers.scd import SequentialKernelFactory


def _ridge():
    return RidgeProblem(
        make_webspam_like(120, 200, nnz_per_example=10, seed=3), lam=5e-3
    )


def _async_engine(k=3, bf=0.25, **kw):
    return DistributedSCD(
        SequentialKernelFactory(), "dual", n_workers=k, seed=7,
        comm="async", batch_fraction=bf, **kw,
    )


# ---------------------------------------------------------------------------
# the facade's async mode
# ---------------------------------------------------------------------------
class TestAsyncFacade:
    def test_async_has_no_gammas(self):
        res = _async_engine(3).solve(_ridge(), 3)
        assert res.gammas == []

    def test_async_converges(self):
        res = _async_engine(3, bf=1 / 16).solve(_ridge(), 30)
        assert res.history.final_gap() < 1e-4

    def test_k1_pays_no_network_time(self):
        res = _async_engine(1).solve(_ridge(), 3)
        assert res.ledger.get("comm_network") == 0.0

    def test_k3_pays_network_time(self):
        res = _async_engine(3).solve(_ridge(), 3)
        assert res.ledger.get("comm_network") > 0.0

    def test_partitions_exactly_once(self):
        res = _async_engine(3).solve(_ridge(), 2)
        owned = np.sort(np.concatenate(res.partitions))
        np.testing.assert_array_equal(owned, np.arange(120))

    @pytest.mark.parametrize(
        "kw,match",
        [
            (dict(comm="carrier-pigeon"), "unknown comm mode"),
            (dict(comm="async", batch_fraction=0.0), "batch_fraction"),
            (dict(comm="async", comm_overlap=1.5), "comm_overlap"),
            (dict(comm="async", staleness_bound=-1), "staleness_bound"),
            (dict(comm="async", round_fraction=0.5), "round_fraction"),
        ],
    )
    def test_validation(self, kw, match):
        with pytest.raises(ValueError, match=match):
            DistributedSCD(
                SequentialKernelFactory(), "dual", n_workers=2, **kw
            )

    def test_async_rejects_pcie(self):
        from repro.perf.link import PCIE3_X16_PINNED

        with pytest.raises(ValueError, match="PCIe"):
            DistributedSCD(
                SequentialKernelFactory(), "dual", n_workers=2,
                comm="async", pcie=PCIE3_X16_PINNED,
            )

    def test_async_rejects_shards(self, tmp_path):
        from repro.shards import pack_dataset, ShardStore

        ds = make_webspam_like(60, 80, nnz_per_example=6, seed=3)
        pack_dataset(ds, tmp_path / "s", axis="rows", n_shards=3)
        with pytest.raises(ValueError, match="shards"):
            DistributedSCD(
                SequentialKernelFactory(), "dual", n_workers=2,
                comm="async", shards=ShardStore(tmp_path / "s"),
            )


# ---------------------------------------------------------------------------
# bounded staleness
# ---------------------------------------------------------------------------
class TestBoundedStaleness:
    def test_bound_zero_is_the_default(self):
        a = _async_engine(3).solve(_ridge(), 3)
        b = _async_engine(3, staleness_bound=0).solve(_ridge(), 3)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_bound_changes_trajectory(self):
        a = _async_engine(3, staleness_bound=0).solve(_ridge(), 3)
        b = _async_engine(3, staleness_bound=4).solve(_ridge(), 3)
        assert not np.array_equal(a.weights, b.weights)

    def test_bound_reduces_exposed_comm(self):
        """Skipped pulls expose less communication per cycle."""
        tight = _async_engine(3, comm_overlap=0.0).solve(_ridge(), 4)
        loose = _async_engine(
            3, comm_overlap=0.0, staleness_bound=8
        ).solve(_ridge(), 4)
        assert loose.ledger.get("comm_network") < tight.ledger.get(
            "comm_network"
        )

    def test_bounded_staleness_still_converges(self):
        res = _async_engine(
            3, bf=1 / 16, staleness_bound=4
        ).solve(_ridge(), 30)
        assert res.history.final_gap() < 1e-3

    def test_backend_validation(self):
        from repro.cluster.comm import SimCommunicator

        pool = _ScdWorkerPool(_async_engine(2))
        with pytest.raises(ValueError, match="staleness_bound"):
            AsyncParamServerBackend(SimCommunicator(2), pool, staleness_bound=-1)


# ---------------------------------------------------------------------------
# faults: atomic pushes => only dropout and stragglers apply
# ---------------------------------------------------------------------------
class TestAsyncFaults:
    def test_dropout_skips_the_epoch(self):
        res = _async_engine(
        3, faults=FaultSpec(dropout_rate=0.5, seed=2)
        ).solve(_ridge(), 6)
        assert res.fault_report is not None
        assert res.fault_report.dropouts > 0
        # survivor counts track arrivals per epoch, not deliveries
        assert all(0 <= s <= 3 for s in res.fault_report.survivor_counts)
        assert np.isfinite(res.history.final_gap())

    def test_stragglers_stretch_sim_time(self):
        clean = _async_engine(3).solve(_ridge(), 4)
        slow = _async_engine(
            3,
            faults=FaultSpec(straggler_rate=1.0, straggler_multiplier=4.0,
                             seed=2),
        ).solve(_ridge(), 4)
        assert slow.history.records[-1].sim_time > (
            clean.history.records[-1].sim_time
        )
        # straggled compute does not change the trajectory, only the clock
        np.testing.assert_array_equal(clean.weights, slow.weights)

    def test_all_dropped_epoch_stands_still(self):
        res = _async_engine(
            2, faults=FaultSpec(dropout_rate=1.0, seed=1)
        ).solve(_ridge(), 3)
        g0 = res.history.records[0].gap
        assert res.history.final_gap() == pytest.approx(g0)


# ---------------------------------------------------------------------------
# elastic membership through the parameter server
# ---------------------------------------------------------------------------
class TestAsyncElastic:
    def test_join_and_leave_converges(self):
        problem = _ridge()
        fixed = _async_engine(3, bf=1 / 16).solve(problem, 12)
        elastic = _async_engine(
            3, bf=1 / 16, membership=[(3, "join"), (7, "leave")]
        ).solve(problem, 12)
        assert elastic.history.final_gap() <= 2.0 * fixed.history.final_gap()
        assert [(r.epoch, r.k_before, r.k_after) for r in
                elastic.membership_log] == [(3, 3, 4), (7, 4, 3)]

    def test_resize_preserves_server_state(self):
        from repro.cluster.comm import SimCommunicator
        from repro.obs import resolve_tracer

        problem = _ridge()
        backend = AsyncParamServerBackend(
            SimCommunicator(3), _ScdWorkerPool(_async_engine(3), rng_salt=2000)
        )
        tracer = resolve_tracer(None)
        backend.open(problem, tracer)
        pool = backend.pool
        rng = np.random.default_rng(0)
        for wk in pool.workers:
            wk.weights[:] = rng.standard_normal(wk.weights.shape[0])
        before = pool.global_weights(problem)
        backend.resize(problem, tracer, 5)
        np.testing.assert_array_equal(before, pool.global_weights(problem))
        owned = np.sort(np.concatenate([wk.coords for wk in pool.workers]))
        np.testing.assert_array_equal(owned, np.arange(problem.n))
        assert backend.n_workers == backend.comm.n_workers == 5


# ---------------------------------------------------------------------------
# one worker pool: async workers are bound exactly like sync ones
# ---------------------------------------------------------------------------
class TestAsyncSharesThePool:
    def _ridge200(self):
        return RidgeProblem(
            make_webspam_like(200, 150, nnz_per_example=8, seed=5), lam=5e-3
        )

    @staticmethod
    def _sizes(res):
        return [p.shape[0] for p in res.partitions]

    def test_capacities_deal_like_sync(self):
        problem = self._ridge200()
        runs = {
            comm: DistributedSCD(
                SequentialKernelFactory(), "dual", n_workers=2, seed=3,
                comm=comm, capacities=[3, 1],
            ).solve(problem, 1)
            for comm in ("sync", "async")
        }
        assert self._sizes(runs["async"]) == [150, 50]
        for got, want in zip(runs["async"].partitions, runs["sync"].partitions):
            np.testing.assert_array_equal(got, want)

    def test_custom_partitioner_honoured(self):
        def halves(n, k, rng):
            return np.array_split(np.arange(n), k)

        res = _async_engine(2, partitioner=halves).solve(_ridge(), 1)
        for got, want in zip(res.partitions, np.array_split(np.arange(120), 2)):
            np.testing.assert_array_equal(got, want)

    def test_train_capacities_deal_like_sync(self):
        problem = self._ridge200()
        runs = {
            comm: repro.train(
                problem, "distributed", formulation="dual", comm=comm,
                n_workers=2, capacities=[1, 3], n_epochs=1, seed=4,
            )
            for comm in ("sync", "async")
        }
        assert self._sizes(runs["async"]) == [50, 150]
        for got, want in zip(runs["async"].partitions, runs["sync"].partitions):
            np.testing.assert_array_equal(got, want)

    def test_traced_tpa_records_gpu_counters(self):
        problem = _ridge()
        kw = dict(
            formulation="dual", local_solver="tpa", n_workers=2,
            batch_fraction=1.0, n_epochs=2, seed=7,
        )
        counters = {}
        for comm in ("sync", "async"):
            tracer = repro.Tracer()
            repro.train(problem, "distributed", comm=comm, tracer=tracer, **kw)
            counters[comm] = {
                name: tracer.metrics.counter(name)
                for name in ("gpu.waves", "gpu.nnz_processed")
            }
        assert counters["async"]["gpu.waves"] > 0
        # whole-epoch batches touch every nonzero once per epoch, as sync does
        assert counters["async"]["gpu.nnz_processed"] == 2 * problem.dataset.nnz
        assert counters["async"]["gpu.nnz_processed"] == (
            counters["sync"]["gpu.nnz_processed"]
        )

    def test_tracing_leaves_tpa_weights_bitwise(self):
        kw = dict(
            formulation="dual", local_solver="tpa", comm="async", n_workers=3,
            batch_fraction=0.25, n_epochs=3, seed=7,
        )
        plain = repro.train(_ridge(), "distributed", **kw)
        traced = repro.train(_ridge(), "distributed", tracer=repro.Tracer(), **kw)
        assert traced.metrics.counter("gpu.waves") > 0
        assert np.array_equal(plain.weights, traced.weights)
        assert np.array_equal(plain.shared, traced.shared)


# ---------------------------------------------------------------------------
# the train() front door
# ---------------------------------------------------------------------------
class TestTrainFrontDoor:
    def test_train_comm_async(self):
        res = repro.train(
            _ridge(), "distributed", formulation="dual", comm="async",
            n_workers=3, batch_fraction=0.25, n_epochs=3, seed=7,
        )
        assert res.solver_name.startswith("AsyncPS[")
        direct = _async_engine(3).solve(_ridge(), 3)
        np.testing.assert_array_equal(res.weights, direct.weights)

    def test_train_rejects_unknown_comm(self):
        with pytest.raises(ValueError, match="unknown comm mode"):
            repro.train(_ridge(), "distributed", comm="smoke-signals")

    def test_train_syscd_local_solver(self):
        res = repro.train(
            _ridge(), "distributed", formulation="dual",
            local_solver="syscd", n_threads=2, n_workers=2, n_epochs=3,
        )
        assert "SySCD" in res.solver_name or "Syscd" in res.solver_name

    def test_train_elastic(self):
        res = repro.train(
            _ridge(), "distributed", formulation="dual", n_workers=2,
            membership=[(2, "join")], n_epochs=3,
        )
        assert len(res.membership_log) == 1
