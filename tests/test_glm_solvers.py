"""The GLM extension solvers on the shared epoch driver.

``SvmSdca``, ``LogisticSdca``, ``ElasticNetCD``, ``TpaSvm`` and
``TpaElasticNet`` all run :meth:`repro.solvers.base.ScdSolver.solve`, so
each returns a ``TrainResult`` with a ledger, prices its epochs with its
kernel's timing model, emits the driver's spans under a tracer and
publishes through ``on_epoch``.  Their bits are pinned in
``tests/test_tpa_fingerprints.py``.
"""

import numpy as np
import pytest

from repro.core import TpaElasticNet, TpaSvm
from repro.cpu import XEON_8C, SequentialCpuTiming
from repro.data import make_webspam_like
from repro.obs import Tracer
from repro.objectives import ElasticNetProblem, LogisticProblem, SvmProblem
from repro.perf.timing import EpochWorkload
from repro.serve import SnapshotHub, WeightSnapshot
from repro.serve.snapshot import serve_weights
from repro.solvers import (
    ElasticNetCD,
    LogisticSdca,
    SvmSdca,
    SvmTrainResult,
    TrainResult,
)

N_EPOCHS = 4


@pytest.fixture(scope="module")
def data():
    return make_webspam_like(120, 90, nnz_per_example=8, seed=11)


def _problem(kind, data):
    if kind == "svm":
        return SvmProblem(data, lam=1e-2)
    if kind == "logistic":
        return LogisticProblem(data, lam=1e-2)
    return ElasticNetProblem(data, 0.01, l1_ratio=0.5)


SOLVERS = {
    "SvmSdca": (lambda: SvmSdca(seed=3), "svm"),
    "LogisticSdca": (lambda: LogisticSdca(seed=3), "logistic"),
    "ElasticNetCD": (lambda: ElasticNetCD(seed=3), "enet"),
    "TpaSvm": (lambda: TpaSvm(wave_size=4, n_threads=32, seed=3), "svm"),
    "TpaElasticNet": (
        lambda: TpaElasticNet(wave_size=4, n_threads=32, seed=3), "enet"
    ),
}
CPU_SOLVERS = ("SvmSdca", "LogisticSdca", "ElasticNetCD")


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_returns_train_result_with_ledger(name, data):
    make, kind = SOLVERS[name]
    res = make().solve(_problem(kind, data), N_EPOCHS)
    assert isinstance(res, TrainResult)
    if kind in ("svm", "logistic"):
        assert isinstance(res, SvmTrainResult)
        assert res.alpha.shape == (data.n_examples,)
        assert res.weights.shape == (data.n_features,)
        assert res.shared is res.weights
    assert res.history.records[-1].epoch == N_EPOCHS
    assert res.ledger is not None
    assert res.ledger.total == res.history.sim_times[-1] > 0.0


@pytest.mark.parametrize("name", CPU_SOLVERS)
def test_cpu_sim_time_is_the_modelled_epoch_cost(name, data):
    """Modelled time, not wall time: epochs x one single-thread epoch."""
    make, kind = SOLVERS[name]
    problem = _problem(kind, data)
    matrix = problem.dataset.csc if kind == "enet" else problem.dataset.csr
    cost = SequentialCpuTiming(XEON_8C).epoch_seconds(
        EpochWorkload(n_coords=matrix.n_major, nnz=matrix.nnz, shared_len=matrix.n_minor)
    )
    res = make().solve(problem, N_EPOCHS)
    expected = [0.0]
    for _ in range(N_EPOCHS):
        expected.append(expected[-1] + cost)
    assert res.history.sim_times.tolist() == expected
    assert res.ledger.breakdown()["compute_host"] == expected[-1]


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_tracer_sees_the_driver_spans(name, data):
    make, kind = SOLVERS[name]
    plain = make().solve(_problem(kind, data), 2)
    tracer = Tracer()
    res = make().solve(_problem(kind, data), 2, tracer=tracer)
    names = [span.name for span in tracer.walk()]
    assert names.count("train") == 1
    assert names.count("bind") == 1
    assert names.count("epoch") == 2
    assert names.count("gap_eval") == 3
    assert res.trace is tracer
    assert tracer.metrics.counter("train.epochs") == 2
    # observing never perturbs the trajectory
    np.testing.assert_array_equal(res.weights, plain.weights)
    np.testing.assert_array_equal(res.history.gaps, plain.history.gaps)


@pytest.mark.parametrize("name", ["SvmSdca", "LogisticSdca"])
def test_on_epoch_publishes_the_primal_model(name, data):
    """An SDCA event carries the serveable ``w`` (length m), never alpha."""
    make, kind = SOLVERS[name]
    problem = _problem(kind, data)
    hub = SnapshotHub()
    seen = []

    def publish(ev):
        seen.append(ev)
        hub.publish(
            WeightSnapshot(
                version=len(hub) + 1,
                weights=serve_weights(problem, ev.formulation, ev.weights),
                epoch=ev.epoch,
                published_at=ev.sim_time,
                solver=ev.solver,
            )
        )

    res = make().solve(problem, N_EPOCHS, monitor_every=2, on_epoch=publish)
    assert [ev.epoch for ev in seen] == [2, 4]
    assert hub.versions == [1, 2]
    latest = hub.latest()
    assert latest.n_features == data.n_features
    np.testing.assert_array_equal(latest.weights, res.weights)
    np.testing.assert_array_equal(latest.weights, res.primal_weights(problem))
    # the epoch-2 event is a copy of w as it stood then, consistent with
    # that epoch's alpha through the SDCA mapping
    early = make().solve(problem, 2)
    np.testing.assert_array_equal(seen[0].weights, early.weights)
    np.testing.assert_allclose(
        seen[0].weights, problem.weights_from_alpha(early.alpha), atol=1e-12
    )
    assert seen[0].gap == early.history.gaps[-1]
