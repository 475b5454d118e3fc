"""Tests for the real-multiprocessing backend, ``DistributedSCD(comm="process")``.

These tests run actual OS worker processes; sizes are kept small so the
whole file stays in the seconds range.
"""

import multiprocessing as mp
import signal

import numpy as np
import pytest

from repro.cluster.faults import FaultSpec
from repro.core import DistributedSCD
from repro.data import make_webspam_like
from repro.objectives import RidgeProblem
from repro.solvers.scd import SequentialKernelFactory


def _process_engine(formulation="dual", **kw):
    """The real-process engine: sequential SCD workers in child processes."""
    return DistributedSCD(
        SequentialKernelFactory(), formulation, comm="process", **kw
    )


@pytest.fixture(scope="module")
def problem():
    ds = make_webspam_like(250, 500, nnz_per_example=12, seed=3)
    return RidgeProblem(ds, lam=5e-3)


class TestMpMatchesSimulation:
    """Identical seeds/partitions -> identical trajectories: the strongest
    evidence that the simulated engine's semantics are faithful."""

    @pytest.mark.parametrize("formulation", ["primal", "dual"])
    @pytest.mark.parametrize("aggregation", ["averaging", "adaptive"])
    def test_weights_match(self, problem, formulation, aggregation):
        mp_res = _process_engine(
            formulation, n_workers=2, aggregation=aggregation, seed=7
        ).solve(problem, 4)
        sim_res = DistributedSCD(
            SequentialKernelFactory(),
            formulation,
            n_workers=2,
            aggregation=aggregation,
            seed=7,
        ).solve(problem, 4)
        assert np.allclose(mp_res.weights, sim_res.weights, atol=1e-12)
        assert np.allclose(mp_res.shared, sim_res.shared, atol=1e-12)

    def test_gammas_match(self, problem):
        mp_res = _process_engine(
            "dual", n_workers=2, aggregation="adaptive", seed=7
        ).solve(problem, 4)
        sim_res = DistributedSCD(
            SequentialKernelFactory(),
            "dual",
            n_workers=2,
            aggregation="adaptive",
            seed=7,
        ).solve(problem, 4)
        assert np.allclose(mp_res.gammas, sim_res.gammas, rtol=1e-10)

    def test_partitions_match(self, problem):
        mp_res = _process_engine("dual", n_workers=3, seed=9).solve(problem, 1)
        sim_res = DistributedSCD(
            SequentialKernelFactory(), "dual", n_workers=3, seed=9
        ).solve(problem, 1)
        for a, b in zip(mp_res.partitions, sim_res.partitions):
            assert np.array_equal(a, b)


class TestMpMechanics:
    def test_converges(self, problem):
        res = _process_engine("dual", n_workers=2, seed=1).solve(problem, 30)
        assert res.history.final_gap() < 1e-4

    def test_three_workers(self, problem):
        res = _process_engine("dual", n_workers=3, seed=1).solve(problem, 3)
        combined = np.sort(np.concatenate(res.partitions))
        assert np.array_equal(combined, np.arange(problem.n))

    def test_wall_time_recorded(self, problem):
        res = _process_engine("dual", n_workers=2, seed=1).solve(problem, 2)
        assert res.ledger.get("compute_host") > 0
        assert res.history.records[-1].wall_time > 0

    def test_target_gap_early_stop(self, problem):
        res = _process_engine("dual", n_workers=2, seed=1).solve(
            problem, 100, monitor_every=1, target_gap=1e-3
        )
        assert res.history.records[-1].epoch < 100

    def test_processes_cleaned_up(self, problem):
        before = len(mp.active_children())
        _process_engine("dual", n_workers=2, seed=1).solve(problem, 1)
        after = len(mp.active_children())
        assert after <= before

    def test_validation(self):
        with pytest.raises(ValueError, match="formulation"):
            _process_engine("diag")
        with pytest.raises(ValueError, match="n_workers"):
            _process_engine("dual", n_workers=0)

    def test_process_only_scope(self):
        from repro.core.tpa_scd import TpaScdKernelFactory
        from repro.gpu.device import GpuDevice
        from repro.gpu.spec import GTX_TITAN_X
        from repro.perf.link import PCIE3_X16_PINNED

        with pytest.raises(ValueError, match="SequentialKernelFactory"):
            DistributedSCD(
                TpaScdKernelFactory(GpuDevice(GTX_TITAN_X)), "dual", comm="process"
            )
        # the sequential factory is float64-only: there is no dtype to reject
        with pytest.raises(TypeError, match="dtype"):
            SequentialKernelFactory(dtype=np.float32)
        with pytest.raises(ValueError, match="wall-clock"):
            _process_engine("dual", pcie=PCIE3_X16_PINNED)
        with pytest.raises(ValueError, match="whole-epoch"):
            _process_engine("dual", round_fraction=0.5)
        with pytest.raises(ValueError, match="comm mode"):
            DistributedSCD(SequentialKernelFactory(), "dual", comm="mpi")


class TestStartMethods:
    """The children's numbers do not depend on how they were started."""

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_bitwise_against_fork(self, problem, method):
        if method not in mp.get_all_start_methods():
            pytest.skip(f"{method} is not available on this platform")
        runs = [
            _process_engine(
                "dual", n_workers=2, aggregation="adaptive", seed=7, mp_context=m
            ).solve(problem, 3)
            for m in ("fork", method)
        ]
        forked, other = runs
        assert np.array_equal(other.weights, forked.weights)
        assert np.array_equal(other.shared, forked.shared)
        assert other.gammas == forked.gammas
        assert [r.gap for r in other.history.records] == [
            r.gap for r in forked.history.records
        ]


class TestChildFailure:
    def test_killed_child_names_rank_and_spares_survivor(self, problem):
        children: dict = {}

        def kill_rank_one(event):
            if event.epoch == 1:
                children.update(
                    (proc.name, proc) for proc in mp.active_children()
                )
                victim = children["process-worker-1"]
                victim.kill()
                victim.join(timeout=10)
                assert not victim.is_alive()

        with pytest.raises(
            RuntimeError, match=rf"rank 1 died \(exitcode {-signal.SIGKILL}\)"
        ):
            _process_engine("dual", n_workers=2, seed=1).solve(
                problem, 3, on_epoch=kill_rank_one
            )
        assert not [
            p for p in mp.active_children() if p.name.startswith("process-worker")
        ]
        assert children["process-worker-0"].exitcode == 0


class TestProcessFaults:
    def test_retry_exhausted_losses_itemised(self, problem):
        spec = FaultSpec(send_failure_rate=0.9, max_consecutive_failures=8, seed=1)
        real = _process_engine("dual", n_workers=2, seed=3, faults=spec).solve(
            problem, 4
        )
        sim = DistributedSCD(
            SequentialKernelFactory(), "dual", n_workers=2, seed=3, faults=spec
        ).solve(problem, 4)
        report = real.fault_report
        assert report.retry_exhausted > 0
        assert report.retry_exhausted == report.dropped_updates
        assert report.retry_exhausted == sim.fault_report.retry_exhausted
        assert np.array_equal(real.weights, sim.weights)
        # the survivor count is a history extra, like the simulated engine's
        assert [r.extras for r in real.history.records] == [
            r.extras for r in sim.history.records
        ]
