"""Frozen bits of the single-node TPA solvers.

The sha256 constants below were captured at the commit *before* the five
copies of the Algorithm 2 wave loop were collapsed into one (PR 16), in the
style of ``tests/test_syscd.py``: they pin the absolute float32 bits of
``TpaScdKernelFactory.bind_primal`` / ``bind_dual`` and of the
``TpaElasticNet`` / ``TpaSvm`` front doors, so any later change of
arithmetic in the one production loop has to say so by re-capturing them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import TpaElasticNet, TpaSvm
from repro.core.tpa_scd import TpaScdKernelFactory
from repro.data import make_webspam_like
from repro.objectives import ElasticNetProblem, RidgeProblem, SvmProblem

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
    beta, history = TpaElasticNet(n_threads=32, wave_size=7, seed=16).solve(
        problem, N_EPOCHS
    )
    return _sha(beta, np.asarray(history.gaps))


def svm_fingerprint() -> str:
    problem = SvmProblem(_dataset(), lam=1e-2)
    w, alpha, history = TpaSvm(n_threads=32, wave_size=7, seed=16).solve(
        problem, N_EPOCHS
    )
    return _sha(w, alpha, np.asarray(history.gaps))


@pytest.mark.parametrize("formulation,wave_size", sorted(RIDGE_SHA))
def test_ridge_bits_frozen(formulation, wave_size):
    assert ridge_fingerprint(formulation, wave_size) == RIDGE_SHA[
        (formulation, wave_size)
    ]


def test_elastic_net_bits_frozen():
    assert elastic_net_fingerprint() == ELASTIC_NET_SHA


def test_svm_bits_frozen():
    assert svm_fingerprint() == SVM_SHA
