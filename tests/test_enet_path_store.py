"""Tests for the elastic-net regularization path and the .npz/JSON store."""

import numpy as np
import pytest

from repro.data import (
    load_dataset_npz,
    load_history_json,
    make_dense_gaussian,
    make_webspam_like,
    save_dataset_npz,
    save_history_json,
)
from repro.objectives import ElasticNetProblem
from repro.solvers import ElasticNetCD, SequentialSCD, elastic_net_path, lambda_grid
from repro.objectives import RidgeProblem


@pytest.fixture(scope="module")
def path_data():
    return make_dense_gaussian(80, 30, noise=0.05, seed=5)


class TestLambdaGrid:
    def test_geometric_and_decreasing(self, path_data):
        grid = lambda_grid(path_data, 0.8, n_lambdas=10)
        assert grid.shape == (10,)
        assert np.all(np.diff(grid) < 0)
        ratios = grid[1:] / grid[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_lambda_max_zeros_the_model(self, path_data):
        grid = lambda_grid(path_data, 0.9, n_lambdas=5)
        problem = ElasticNetProblem(path_data, float(grid[0]), l1_ratio=0.9)
        beta = ElasticNetCD(seed=0).solve(problem, 30, monitor_every=30).weights
        assert np.count_nonzero(beta) == 0

    def test_validation(self, path_data):
        with pytest.raises(ValueError, match="n_lambdas"):
            lambda_grid(path_data, 0.5, n_lambdas=0)
        with pytest.raises(ValueError, match="ratio"):
            lambda_grid(path_data, 0.5, ratio=2.0)


class TestElasticNetPath:
    def test_nnz_monotone_down_the_path(self, path_data):
        grid = lambda_grid(path_data, 0.9, n_lambdas=8)
        path = elastic_net_path(path_data, grid, l1_ratio=0.9, n_epochs=60)
        nnz = [int(np.count_nonzero(beta)) for _, beta, _ in path]
        assert nnz[0] == 0
        assert all(a <= b + 2 for a, b in zip(nnz, nnz[1:]))  # ~monotone
        assert nnz[-1] > nnz[0]

    def test_every_point_converged(self, path_data):
        grid = lambda_grid(path_data, 0.5, n_lambdas=5)
        path = elastic_net_path(path_data, grid, l1_ratio=0.5, n_epochs=120)
        for lam, beta, history in path:
            assert history.final_gap() < 1e-6

    def test_warm_start_saves_epochs(self, path_data):
        """Warm-started continuation must use fewer epochs than cold starts
        at the tail of the path — the point of Friedman et al.'s strategy."""
        grid = lambda_grid(path_data, 0.9, n_lambdas=6)
        path = elastic_net_path(
            path_data, grid, l1_ratio=0.9, n_epochs=200, tol=1e-9
        )
        warm_epochs = path[-1][2].records[-1].epoch
        cold_problem = ElasticNetProblem(path_data, grid[-1], l1_ratio=0.9)
        cold_history = ElasticNetCD(seed=0).solve(
            cold_problem, 200, monitor_every=1, target_gap=1e-9
        ).history
        assert warm_epochs <= cold_history.records[-1].epoch

    def test_warm_start_matches_cold_solution(self, path_data):
        grid = lambda_grid(path_data, 0.5, n_lambdas=4)
        path = elastic_net_path(path_data, grid, l1_ratio=0.5, n_epochs=150)
        lam, beta_warm, _ = path[-1]
        problem = ElasticNetProblem(path_data, lam, l1_ratio=0.5)
        beta_cold = ElasticNetCD(seed=0).solve(
            problem, 300, monitor_every=50, target_gap=1e-12
        ).weights
        assert np.allclose(beta_warm, beta_cold, atol=1e-5)

    def test_increasing_grid_rejected(self, path_data):
        with pytest.raises(ValueError, match="non-increasing"):
            elastic_net_path(path_data, np.array([0.1, 0.5]))

    def test_empty_grid(self, path_data):
        assert elastic_net_path(path_data, np.array([])) == []

    def test_init_beta_shape_checked(self, path_data):
        problem = ElasticNetProblem(path_data, 0.1)
        with pytest.raises(ValueError, match="init_beta"):
            ElasticNetCD().solve(problem, 1, init_beta=np.zeros(3))

    def test_warm_start_leaves_the_solver_cold(self, path_data):
        """A warm-started solve does not carry its start into the next one."""
        problem = ElasticNetProblem(path_data, 0.1)
        solver = ElasticNetCD(seed=2)
        warm = solver.solve(problem, 2, init_beta=np.ones(problem.m))
        assert warm.history.records[0].objective != problem.objective(np.zeros(problem.m))
        cold = solver.solve(problem, 2)
        fresh = ElasticNetCD(seed=2).solve(problem, 2)
        assert np.array_equal(cold.weights, fresh.weights)
        assert np.array_equal(cold.history.gaps, fresh.history.gaps)


class TestNpzStore:
    def test_dataset_roundtrip(self, tmp_path):
        ds = make_webspam_like(50, 100, nnz_per_example=5, seed=2)
        f = tmp_path / "ds.npz"
        save_dataset_npz(ds, f)
        loaded = load_dataset_npz(f)
        assert loaded.name == ds.name
        assert loaded.meta["seed"] == 2
        assert np.array_equal(loaded.y, ds.y)
        assert np.allclose(loaded.csr.to_dense(), ds.csr.to_dense())

    def test_roundtrip_is_exact(self, tmp_path):
        """Unlike LibSVM text, the binary store is bit exact."""
        ds = make_webspam_like(30, 60, nnz_per_example=4, seed=9)
        f = tmp_path / "ds.npz"
        save_dataset_npz(ds, f)
        loaded = load_dataset_npz(f)
        assert np.array_equal(loaded.csr.data, ds.csr.data)

    def test_bad_archive_rejected(self, tmp_path):
        f = tmp_path / "bad.npz"
        np.savez(f, stuff=np.arange(3))
        with pytest.raises(ValueError, match="not a repro dataset"):
            load_dataset_npz(f)


class TestHistoryStore:
    def test_history_roundtrip(self, tmp_path, ridge_sparse):
        res = SequentialSCD("primal", seed=0).solve(ridge_sparse, 5)
        f = tmp_path / "hist.json"
        save_history_json(res.history, f)
        loaded = load_history_json(f)
        assert loaded.label == res.history.label
        assert np.allclose(loaded.gaps, res.history.gaps)
        assert np.allclose(loaded.sim_times, res.history.sim_times)
        assert loaded.records[-1].updates == res.history.records[-1].updates

    def test_extras_preserved(self, tmp_path, ridge_sparse):
        from repro.solvers import PASSCoDeWild

        res = PASSCoDeWild("primal", seed=0).solve(ridge_sparse, 3)
        f = tmp_path / "hist.json"
        save_history_json(res.history, f)
        loaded = load_history_json(f)
        assert loaded.records[-1].extras["lost_updates"] > 0

    def test_bad_file_rejected(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"something": 1}')
        with pytest.raises(ValueError, match="not a repro history"):
            load_history_json(f)
