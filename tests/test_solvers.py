"""Tests for the single-node CPU solvers (SCD, A-SCD, PASSCoDe-Wild)."""

import numpy as np
import pytest

from repro.objectives import solve_exact
from repro.solvers import ASCD, PASSCoDeWild, SequentialSCD, SySCD
from repro.solvers.scd import SequentialKernelFactory


class TestSequentialSCD:
    @pytest.mark.parametrize("formulation", ["primal", "dual"])
    def test_converges_to_exact(self, ridge_small, formulation):
        # the dual problem on a dense Gaussian design is worse conditioned
        # (correlated examples), so it gets a larger epoch budget
        n_epochs = 150 if formulation == "primal" else 400
        res = SequentialSCD(formulation, seed=0).solve(
            ridge_small, n_epochs, monitor_every=100
        )
        sol = solve_exact(ridge_small)
        if formulation == "primal":
            assert np.allclose(res.weights, sol.beta, atol=1e-6)
        else:
            assert np.allclose(res.weights, sol.alpha, atol=1e-6)

    @pytest.mark.parametrize("formulation", ["primal", "dual"])
    def test_gap_decreases(self, ridge_sparse, formulation):
        res = SequentialSCD(formulation, seed=0).solve(
            ridge_sparse, 10, monitor_every=2
        )
        gaps = res.history.gaps
        assert gaps[-1] < gaps[0] * 1e-2

    def test_deterministic_given_seed(self, ridge_sparse):
        a = SequentialSCD("primal", seed=42).solve(ridge_sparse, 5)
        b = SequentialSCD("primal", seed=42).solve(ridge_sparse, 5)
        assert np.array_equal(a.weights, b.weights)

    def test_different_seeds_differ_midway(self, ridge_sparse):
        a = SequentialSCD("primal", seed=1).solve(ridge_sparse, 1)
        b = SequentialSCD("primal", seed=2).solve(ridge_sparse, 1)
        assert not np.allclose(a.weights, b.weights)

    def test_target_gap_stops_early(self, ridge_sparse):
        res = SequentialSCD("primal", seed=0).solve(
            ridge_sparse, 500, monitor_every=1, target_gap=1e-4
        )
        assert res.history.records[-1].epoch < 500
        assert res.history.final_gap() <= 1e-4

    def test_monitor_every(self, ridge_sparse):
        res = SequentialSCD("primal", seed=0).solve(
            ridge_sparse, 10, monitor_every=5
        )
        assert [r.epoch for r in res.history] == [0, 5, 10]

    def test_sim_time_accumulates_linearly(self, ridge_sparse):
        res = SequentialSCD("primal", seed=0).solve(
            ridge_sparse, 6, monitor_every=2
        )
        t = res.history.sim_times
        diffs = np.diff(t)
        assert np.allclose(diffs, diffs[0])
        assert t[0] == 0.0

    def test_zero_epochs(self, ridge_sparse):
        res = SequentialSCD("primal", seed=0).solve(ridge_sparse, 0)
        assert len(res.history) == 1
        assert np.allclose(res.weights, 0.0)

    def test_invalid_args(self, ridge_sparse):
        with pytest.raises(ValueError, match="formulation"):
            SequentialSCD("sideways")
        with pytest.raises(ValueError, match="n_epochs"):
            SequentialSCD("primal").solve(ridge_sparse, -1)
        with pytest.raises(ValueError, match="monitor_every"):
            SequentialSCD("primal").solve(ridge_sparse, 1, monitor_every=0)

    def test_predict_shape(self, ridge_sparse):
        res = SequentialSCD("dual", seed=0).solve(ridge_sparse, 5)
        preds = res.predict(ridge_sparse, ridge_sparse.dataset.csr)
        assert preds.shape == (ridge_sparse.n,)

    def test_primal_weights_mapping(self, ridge_small):
        res = SequentialSCD("dual", seed=0).solve(ridge_small, 400)
        sol = solve_exact(ridge_small)
        assert np.allclose(res.primal_weights(ridge_small), sol.beta, atol=1e-5)

    @pytest.mark.parametrize("formulation", ["primal", "dual"])
    def test_bitwise_equals_syscd_one_thread(self, ridge_sparse, formulation, request):
        """Algorithm 1 has one implementation: SCD(1 thread) is SySCD(1 thread)
        bit for bit, on the compiled pass and on its numpy twin."""

        def both():
            seq = SequentialSCD(formulation, seed=5).solve(
                ridge_sparse, 6, monitor_every=1
            )
            ref = SySCD(formulation, n_threads=1, seed=5).solve(
                ridge_sparse, 6, monitor_every=1
            )
            for field in ("weights", "shared"):
                assert np.array_equal(getattr(seq, field), getattr(ref, field))
            for field in ("gaps", "objectives"):
                assert np.array_equal(
                    getattr(seq.history, field), getattr(ref.history, field)
                )
            return seq

        with_host = both()
        request.getfixturevalue("no_compiler")
        assert SequentialKernelFactory().backend == "numpy"
        fallback = both()
        # the compiled pass (when the host has a compiler) gives its twin's bits
        assert np.array_equal(with_host.weights, fallback.weights)
        assert np.array_equal(with_host.history.gaps, fallback.history.gaps)


class TestASCD:
    @pytest.mark.parametrize("formulation", ["primal", "dual"])
    def test_converges_like_sequential(self, ridge_sparse, formulation):
        seq = SequentialSCD(formulation, seed=0).solve(ridge_sparse, 12)
        asc = ASCD(formulation, seed=0).solve(ridge_sparse, 12)
        # same per-epoch convergence order of magnitude
        assert asc.history.final_gap() < seq.history.final_gap() * 100 + 1e-12

    def test_no_lost_updates(self, ridge_sparse):
        res = ASCD("primal", seed=0).solve(ridge_sparse, 5)
        assert res.lost_updates == 0

    def test_faster_than_sequential_in_model_time(self, ridge_sparse):
        seq = SequentialSCD("primal", seed=0).solve(ridge_sparse, 4)
        asc = ASCD("primal", seed=0).solve(ridge_sparse, 4)
        assert asc.history.sim_times[-1] < seq.history.sim_times[-1]

    def test_thread_count_in_name(self):
        assert "16" in ASCD("primal", n_threads=16).name


class TestPASSCoDeWild:
    def test_loses_updates(self, ridge_sparse):
        res = PASSCoDeWild("primal", seed=0).solve(ridge_sparse, 5)
        assert res.lost_updates > 0

    def test_gap_floor(self, ridge_sparse):
        """Wild converges to a plateau above the atomic solver's gap."""
        wild = PASSCoDeWild("primal", seed=0).solve(ridge_sparse, 20)
        seq = SequentialSCD("primal", seed=0).solve(ridge_sparse, 20)
        assert wild.history.final_gap() > 10 * seq.history.final_gap()
        # plateau: late-epoch gaps stop improving meaningfully
        gaps = wild.history.gaps
        assert gaps[-1] > gaps[len(gaps) // 2] * 0.1

    def test_violates_optimality_conditions(self, ridge_small):
        """The paper's key claim about Wild: Eqs. 5/6 are violated."""
        wild = PASSCoDeWild("primal", seed=0, n_threads=16).solve(ridge_small, 60)
        problem = ridge_small
        alpha = problem.alpha_from_beta(wild.weights)
        r5, _ = problem.optimality_residuals(wild.weights, alpha)
        seq = SequentialSCD("primal", seed=0).solve(ridge_small, 60)
        alpha_seq = problem.alpha_from_beta(seq.weights)
        r5_seq, _ = problem.optimality_residuals(seq.weights, alpha_seq)
        # beta = A^T alpha / lam fails much harder for wild than sequential
        assert r5 > 10 * r5_seq

    def test_loss_prob_validated(self):
        with pytest.raises(ValueError, match="loss_prob"):
            PASSCoDeWild("primal", loss_prob=1.5)

    def test_faster_than_ascd(self, ridge_sparse):
        asc = ASCD("primal", seed=0).solve(ridge_sparse, 4)
        wild = PASSCoDeWild("primal", seed=0).solve(ridge_sparse, 4)
        assert wild.history.sim_times[-1] < asc.history.sim_times[-1]

    def test_deterministic(self, ridge_sparse):
        a = PASSCoDeWild("primal", seed=3).solve(ridge_sparse, 5)
        b = PASSCoDeWild("primal", seed=3).solve(ridge_sparse, 5)
        assert np.array_equal(a.weights, b.weights)
        assert a.lost_updates == b.lost_updates
