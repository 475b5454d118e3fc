"""Frozen bits of the single-node coordinate solvers.

The TPA constants below were captured at the commit *before* the five
copies of the Algorithm 2 wave loop were collapsed into one, in the
style of ``tests/test_syscd.py``: they pin the absolute float32 bits of
``TpaScdKernelFactory.bind_primal`` / ``bind_dual`` and of the
``TpaElasticNet`` / ``TpaSvm`` front doors, so any later change of
arithmetic in the wave loop has to say so by re-capturing them.  Every
TPA constant is checked on both loops: the module-level tests run whichever
the host has (the compiled ``tpa_epoch`` wherever ``cc`` builds it), and
:class:`TestNumpyLoop` hides the compiler so :func:`reference_epoch
<repro.gpu.engine.reference_epoch>` runs.

The CPU constants (``SVM_SDCA_SHA``, ``LOGISTIC_SDCA_SHA``,
``ELASTIC_NET_CD_SHA``) were captured at the commit before the GLM solvers'
own epoch loops were folded into ``ScdSolver.solve``.  Each covers
the float64 weights, the maintained shared vector and every monitored gap
of ``SvmSdca``, ``LogisticSdca`` and ``ElasticNetCD``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import TpaElasticNet, TpaSvm
from repro.core.tpa_scd import TpaScdKernelFactory
from repro.data import make_webspam_like
from repro.objectives import (
    ElasticNetProblem,
    LogisticProblem,
    RidgeProblem,
    SvmProblem,
)
from repro.solvers import ElasticNetCD, LogisticSdca, SvmSdca

N_EPOCHS = 3

#: sha256 of (weights bytes + shared bytes), float32, after N_EPOCHS epochs
#: on the pinned problem below; keyed by (formulation, wave_size)
RIDGE_SHA = {
    ("primal", 1): (
        "84ae81dca0707127c7f71cac2570a6e028e567ecee319068d1777b358ef344b0"
    ),
    ("primal", 7): (
        "739b84a5d8257dbff22fa43c4fb134a35a5e58ecace1a2fe540c76ab162a0477"
    ),
    ("primal", 384): (
        "b1bfb5b378c5e48e0d0be662e3ec85af258f0d0209f63e08a09ebc283c475bd9"
    ),
    ("dual", 1): (
        "09dd983ba93ce7c056f02825a290e53fb74bffa400ece4e1a743586aee202f94"
    ),
    ("dual", 7): (
        "f7a477be0bc8b6b156518c3b5d7042f4906eefa26ab2b098bb030d1b32c1ff4b"
    ),
    ("dual", 384): (
        "f8d59f6d78a19591a79aaed7c2be42ce62c6748992e8b0c24228c3251eec9f36"
    ),
}
ELASTIC_NET_SHA = (
    "0d882ee28e73dc6deb4166ca6428c633184bd9fbf2fc65636ca055511defb0a3"
)
SVM_SHA = (
    "abedef50c0de7fa9da38dbd4d625941e5150bac2035312823943b7a76d0d0326"
)
#: sha256 of (alpha + w + gaps) / (beta + w + gaps), float64, after N_EPOCHS
#: epochs of the CPU solvers on the same problems
SVM_SDCA_SHA = (
    "db51a73a24cc783491dd3e761e28af3f507921d338b6ca39a0848b35029c0aa4"
)
LOGISTIC_SDCA_SHA = (
    "6ff11f72654764c32841e63424cfd3d00775a2bcd80cc6ee1a1a6dcc0e569cbd"
)
ELASTIC_NET_CD_SHA = (
    "5261e9e1b191515c5c6bd4d81337749be41cd5341acf70433ae4438632902b61"
)


def _sha(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _dataset():
    return make_webspam_like(200, 400, nnz_per_example=12, seed=3)


def ridge_fingerprint(formulation: str, wave_size: int) -> str:
    problem = RidgeProblem(_dataset(), lam=5e-3)
    factory = TpaScdKernelFactory(n_threads=32, wave_size=wave_size)
    if formulation == "primal":
        bound = factory.bind_primal(
            problem.dataset.csc, problem.y, problem.n, problem.lam
        )
    else:
        bound = factory.bind_dual(
            problem.dataset.csr, problem.y, problem.n, problem.lam
        )
    assert bound.dtype == np.float32
    weights = np.zeros(bound.n_coords, dtype=bound.dtype)
    shared = np.zeros(bound.shared_len, dtype=bound.dtype)
    rng = np.random.default_rng(16)
    for _ in range(N_EPOCHS):
        bound.run_epoch(weights, shared, rng.permutation(bound.n_coords), rng)
    return _sha(weights, shared)


def elastic_net_fingerprint() -> str:
    problem = ElasticNetProblem(_dataset(), 0.01, l1_ratio=0.5)
    res = TpaElasticNet(n_threads=32, wave_size=7, seed=16).solve(problem, N_EPOCHS)
    return _sha(res.weights, np.asarray(res.history.gaps))


def svm_fingerprint() -> str:
    problem = SvmProblem(_dataset(), lam=1e-2)
    res = TpaSvm(n_threads=32, wave_size=7, seed=16).solve(problem, N_EPOCHS)
    return _sha(res.weights, res.alpha, np.asarray(res.history.gaps))


def cpu_fingerprint(solver, problem) -> str:
    res = solver.solve(problem, N_EPOCHS)
    model = res.alpha if hasattr(res, "alpha") else res.weights
    return _sha(model, res.shared, np.asarray(res.history.gaps))


@pytest.mark.parametrize("formulation,wave_size", sorted(RIDGE_SHA))
def test_ridge_bits_frozen(formulation, wave_size):
    assert ridge_fingerprint(formulation, wave_size) == RIDGE_SHA[
        (formulation, wave_size)
    ]


def test_elastic_net_bits_frozen():
    assert elastic_net_fingerprint() == ELASTIC_NET_SHA


def test_svm_bits_frozen():
    assert svm_fingerprint() == SVM_SHA


def test_svm_sdca_bits_frozen():
    problem = SvmProblem(_dataset(), lam=1e-2)
    assert cpu_fingerprint(SvmSdca(seed=16), problem) == SVM_SDCA_SHA


def test_logistic_sdca_bits_frozen():
    problem = LogisticProblem(_dataset(), lam=1e-2)
    assert cpu_fingerprint(LogisticSdca(seed=16), problem) == LOGISTIC_SDCA_SHA


def test_elastic_net_cd_bits_frozen():
    problem = ElasticNetProblem(_dataset(), 0.01, l1_ratio=0.5)
    assert cpu_fingerprint(ElasticNetCD(seed=16), problem) == ELASTIC_NET_CD_SHA


class TestNumpyLoop:
    """The same constants with no C compiler: the numpy reference runs."""

    @pytest.fixture(autouse=True)
    def _hide_compiler(self, no_compiler):
        pass

    @pytest.mark.parametrize("formulation,wave_size", sorted(RIDGE_SHA))
    def test_ridge_bits_frozen(self, formulation, wave_size):
        test_ridge_bits_frozen(formulation, wave_size)

    def test_elastic_net_bits_frozen(self):
        test_elastic_net_bits_frozen()

    def test_svm_bits_frozen(self):
        test_svm_bits_frozen()
