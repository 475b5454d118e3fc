"""Contract tests for the public API: ``repro.train`` + ``repro.__all__``.

The facade must construct the same engines users build by hand and return
bitwise-identical results, and every name the package advertises must
resolve.
"""

from __future__ import annotations

import inspect
import json

import numpy as np
import pytest

import repro
from repro import SolverConfig, train
from repro.api import SOLVER_ALIASES
from repro.cli import main
from repro.core.distributed import DistributedTrainResult
from repro.core.distributed_svm import SvmTrainResult
from repro.data import Dataset
from repro.objectives import ElasticNetProblem, LogisticProblem, RidgeProblem, SvmProblem
from repro.sparse import CsrMatrix
from repro.solvers.base import TrainResult
from repro.solvers.scd import SequentialSCD


@pytest.fixture
def svm_sparse(small_sparse) -> SvmProblem:
    return SvmProblem(small_sparse, lam=1e-2)


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_canonical_names_present(self):
        for name in (
            "train", "SolverConfig", "Tracer", "NullTracer",
            "MetricsRegistry", "use_tracer", "active_tracer", "TimeLedger",
            "TrainResult", "DistributedTrainResult", "SvmTrainResult",
        ):
            assert name in repro.__all__

    def test_train_signature(self):
        sig = inspect.signature(train)
        params = list(sig.parameters)
        assert params[:2] == ["problem", "solver"]
        assert sig.parameters["solver"].default == "seq"
        for kw in ("config", "tracer"):
            assert (
                sig.parameters[kw].kind is inspect.Parameter.KEYWORD_ONLY
            ), kw

    def test_solver_config_frozen(self):
        cfg = SolverConfig()
        with pytest.raises(Exception):
            cfg.n_epochs = 99
        assert cfg.replace(n_epochs=99).n_epochs == 99
        assert cfg.n_epochs == 10  # original untouched

    def test_unknown_solver_lists_aliases(self, ridge_sparse):
        with pytest.raises(ValueError) as err:
            train(ridge_sparse, "sgd-9000")
        for alias in sorted(set(SOLVER_ALIASES)):
            assert alias in str(err.value)


class TestTrainDispatch:
    @pytest.mark.parametrize(
        "solver", ["seq", "a-scd", "wild", "syscd", "tpa-scd", "distributed", "mp"]
    )
    def test_every_solver_returns_train_result(self, ridge_sparse, solver):
        kwargs = {"n_epochs": 2}
        if solver == "mp":
            kwargs.update(n_workers=2)
        res = train(ridge_sparse, solver, **kwargs)
        assert isinstance(res, TrainResult)
        assert res.history.records
        assert res.ledger is not None and res.ledger.total >= 0.0
        assert res.weights.shape == (ridge_sparse.m,)

    def test_aliases_reach_same_engine(self, ridge_sparse):
        a = train(ridge_sparse, "scd", n_epochs=2, seed=3)
        b = train(ridge_sparse, "sequential", n_epochs=2, seed=3)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_facade_matches_direct_construction(self, ridge_sparse):
        via_facade = train(ridge_sparse, "seq", n_epochs=3, seed=11)
        direct = SequentialSCD("primal", seed=11).solve(ridge_sparse, 3)
        np.testing.assert_array_equal(via_facade.weights, direct.weights)
        assert [r.gap for r in via_facade.history.records] == [
            r.gap for r in direct.history.records
        ]

    def test_config_object_and_overrides_compose(self, ridge_sparse):
        cfg = SolverConfig(formulation="dual", n_epochs=5, seed=2)
        res = train(ridge_sparse, "seq", config=cfg, n_epochs=2)
        assert res.formulation == "dual"
        assert res.history.records[-1].epoch == 2

    def test_distributed_result_type(self, ridge_sparse):
        res = train(
            ridge_sparse, "distributed", n_epochs=2, n_workers=3,
            aggregation="adaptive",
        )
        assert isinstance(res, DistributedTrainResult)
        assert isinstance(res, TrainResult)
        assert len(res.partitions) == 3
        assert len(res.gammas) == 2

    def test_distributed_tpa_local_solver(self, ridge_sparse):
        res = train(
            ridge_sparse, "distributed", n_epochs=2, n_workers=2,
            local_solver="tpa",
        )
        assert isinstance(res, DistributedTrainResult)

    def test_unknown_local_solver(self, ridge_sparse):
        with pytest.raises(ValueError, match="local_solver"):
            train(ridge_sparse, "distributed", local_solver="quantum")

    def test_svm_result_and_legacy_unpack(self, svm_sparse):
        res = train(svm_sparse, "distributed-svm", n_epochs=2, n_workers=2)
        assert isinstance(res, SvmTrainResult)
        assert isinstance(res, TrainResult)
        assert res.alpha.shape == (svm_sparse.n,)
        # named fields are the API: the legacy 4-tuple unpack is gone
        with pytest.raises(TypeError):
            iter(res)

    def test_tracer_kwarg_threads_through(self, ridge_sparse):
        tracer = repro.Tracer()
        res = train(ridge_sparse, "tpa-scd", n_epochs=2, tracer=tracer)
        assert res.trace is tracer
        assert tracer.metrics.counter("gpu.waves") > 0
        assert res.ledger.breakdown() == pytest.approx(
            tracer.ledger.breakdown()
        )

    def test_facade_traced_is_bit_identical(self, ridge_sparse):
        plain = train(ridge_sparse, "seq", n_epochs=3, seed=4)
        traced = train(
            ridge_sparse, "seq", n_epochs=3, seed=4, tracer=repro.Tracer()
        )
        np.testing.assert_array_equal(plain.weights, traced.weights)


class TestInputValidation:
    """Bad input fails at construction or dispatch, never as a ``nan`` gap
    or an ``AttributeError`` from inside an epoch."""

    @pytest.mark.parametrize(
        "problem_class", [RidgeProblem, SvmProblem, LogisticProblem, ElasticNetProblem]
    )
    @pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf")])
    def test_lambda_must_be_positive_and_finite(self, small_sparse, problem_class, lam):
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            problem_class(small_sparse, lam)

    def test_nan_label_rejected(self, small_sparse):
        y = small_sparse.y.copy()
        y[5] = np.nan
        with pytest.raises(ValueError, match=r"1 non-finite label\(s\); the first is at example 5$"):
            train(RidgeProblem(Dataset(small_sparse.csr, y), 1e-2), "seq", n_epochs=3)

    def test_inf_matrix_value_rejected(self, small_sparse):
        csr = small_sparse.csr
        data = csr.data.copy()
        data[40] = np.inf
        row = int(np.searchsorted(csr.indptr, 40, side="right")) - 1
        col = int(csr.indices[40])
        bad = CsrMatrix(csr.shape, csr.indptr, csr.indices, data)
        with pytest.raises(
            ValueError,
            match=rf"1 non-finite value\(s\); the first is at row {row}, column {col}$",
        ):
            train(RidgeProblem(Dataset(bad, small_sparse.y), 1e-2), "seq", n_epochs=3)
        with pytest.raises(ValueError, match=f"row {row}, column {col}$"):
            Dataset(bad.to_csc(), small_sparse.y)

    @pytest.mark.parametrize("solver", ["seq", "distributed"])
    def test_svm_problem_rejected_by_ridge_kinds(self, svm_sparse, solver):
        with pytest.raises(
            TypeError, match=f"solver kind '{solver}' needs a RidgeProblem, got a SvmProblem"
        ):
            train(svm_sparse, solver, n_epochs=1)

    def test_ridge_problem_rejected_by_distributed_svm(self, ridge_sparse):
        with pytest.raises(
            TypeError,
            match="solver kind 'distributed-svm' needs a SvmProblem, got a RidgeProblem",
        ):
            train(ridge_sparse, "cocoa-svm", n_epochs=1)


class TestRunJsonCli:
    def test_run_json_stdout(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert main(["run", "fig2", "--scale", "tiny", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.run/v1"
        assert doc["experiment"] == "fig2"
        assert doc["scale"] == "tiny"
        series = doc["figure"]["series"]
        assert series and all(
            len(s["x"]) == len(s["y"]) for s in series
        )
        assert all(
            isinstance(v, float) for s in series for v in s["x"] + s["y"]
        )

    def test_run_json_records_the_scale_it_ran_at(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert main(["run", "ext-fault-breakdown", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scale"] == "tiny"

    def test_run_json_out_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        out = tmp_path / "sub" / "fig.json"
        assert main(
            ["run", "ext-smart-partition", "--scale", "tiny",
             "--json", "--out", str(out)]
        ) == 0
        assert str(out) in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["figure"]["figure_id"]
        assert doc["figure"]["series"]
