"""Behaviour of the asynchronous parameter server (``comm="async"``)."""

import numpy as np
import pytest

from repro.core import WEBSPAM_PAPER, DistributedSCD
from repro.solvers.scd import SequentialKernelFactory


def _engine(formulation="dual", k=4, bf=1 / 16, **kw):
    return DistributedSCD(
        SequentialKernelFactory(),
        formulation,
        n_workers=k,
        comm="async",
        batch_fraction=bf,
        seed=7,
        **kw,
    )


class TestAsyncParameterServer:
    @pytest.mark.parametrize("formulation", ["primal", "dual"])
    def test_converges_with_small_batches(self, ridge_sparse, formulation):
        res = _engine(formulation).solve(ridge_sparse, 20)
        assert res.history.final_gap() < 1e-6

    def test_large_batches_diverge(self, ridge_sparse):
        """Unscaled adding of whole-epoch updates against stale snapshots
        overshoots — the reason synchronous schemes scale by gamma."""
        with np.errstate(over="ignore", invalid="ignore"):
            res = _engine(bf=1.0).solve(ridge_sparse, 10)
        assert not res.history.final_gap() < res.history.gaps[0]

    def test_single_worker_matches_sequentialish(self, ridge_sparse):
        """K=1: no staleness at all — converges like sequential SCD."""
        res = _engine(k=1, bf=1 / 8).solve(ridge_sparse, 20)
        assert res.history.final_gap() < 1e-9

    def test_server_state_consistent_with_weights(self, ridge_sparse):
        """Atomic server application: shared vector == mapping of weights."""
        res = _engine().solve(ridge_sparse, 5)
        expected = ridge_sparse.dataset.csr.rmatvec(res.weights)
        assert np.allclose(res.shared, expected, atol=1e-8)

    def test_partitions_cover(self, ridge_sparse):
        res = _engine().solve(ridge_sparse, 1)
        combined = np.sort(np.concatenate(res.partitions))
        assert np.array_equal(combined, np.arange(ridge_sparse.n))

    def test_deterministic(self, ridge_sparse):
        a = _engine().solve(ridge_sparse, 4)
        b = _engine().solve(ridge_sparse, 4)
        assert np.allclose(a.weights, b.weights)

    def test_comm_overlap_hides_network(self, ridge_sparse):
        full = _engine(
            paper_scale=WEBSPAM_PAPER, comm_overlap=1.0
        ).solve(ridge_sparse, 3)
        none = _engine(
            paper_scale=WEBSPAM_PAPER, comm_overlap=0.0
        ).solve(ridge_sparse, 3)
        assert full.history.sim_times[-1] < none.history.sim_times[-1]
        assert full.ledger.get("comm_network") == 0.0
        assert none.ledger.get("comm_network") > 0.0

    def test_faster_than_sync_at_fine_granularity(self, ridge_sparse):
        """With bounded staleness, async reaches a target sooner than the
        synchronous engine (no barrier + adding-scale updates)."""
        target = 1e-5
        asy = _engine(paper_scale=WEBSPAM_PAPER).solve(
            ridge_sparse, 40, monitor_every=2, target_gap=target
        )
        syn = DistributedSCD(
            SequentialKernelFactory(),
            "dual",
            n_workers=4,
            aggregation="averaging",
            paper_scale=WEBSPAM_PAPER,
            seed=7,
        ).solve(ridge_sparse, 80, monitor_every=2, target_gap=target)
        assert asy.history.time_to_gap(target) < syn.history.time_to_gap(target)

    def test_epoch_equivalent_update_counts(self, ridge_sparse):
        res = _engine(bf=1 / 8).solve(ridge_sparse, 3)
        # one epoch-equivalent visits every local coordinate ~once
        assert res.history.records[-1].updates == pytest.approx(
            3 * ridge_sparse.n, rel=0.1
        )

    def test_validation(self, ridge_sparse):
        with pytest.raises(ValueError, match="formulation"):
            _engine("diagonal")
        with pytest.raises(ValueError, match="batch_fraction"):
            _engine(bf=0.0)
        with pytest.raises(ValueError, match="comm_overlap"):
            _engine(comm_overlap=1.5)
        with pytest.raises(ValueError, match="n_epochs"):
            _engine().solve(ridge_sparse, -1)

    def test_target_gap_early_stop(self, ridge_sparse):
        res = _engine().solve(
            ridge_sparse, 100, monitor_every=1, target_gap=1e-4
        )
        assert res.history.records[-1].epoch < 100
