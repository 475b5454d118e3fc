"""Shared fixtures for the repro test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import Dataset, make_dense_gaussian, make_webspam_like
from repro.objectives import RidgeProblem
from repro.sparse import from_coo


@pytest.fixture(scope="session")
def claim_verdict():
    """Check one declared claim at its scale; each (driver, scale) runs once."""
    from repro.experiments.config import SCALES
    from repro.experiments.registry import REGISTRY

    claims = {
        c.claim_id: (spec, c) for spec in REGISTRY.values() for c in spec.claims
    }
    figures = {}

    def verdict(claim_id: str):
        spec, claim = claims[claim_id]
        key = (spec.driver_id, claim.scale)
        if key not in figures:
            figures[key] = spec.run(SCALES[claim.scale])
        return claim.verdict(figures[key], claim.scale)

    return verdict


@pytest.fixture
def fresh_native(monkeypatch, tmp_path):
    """No loaded C kernel library in this process and an empty build cache."""
    from repro import native

    monkeypatch.setattr(native, "_NATIVE", {})
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path


@pytest.fixture
def no_compiler(fresh_native, monkeypatch):
    """A host without a C compiler: every engine takes its numpy twin."""
    from repro import native

    monkeypatch.setattr(native, "CC", "repro-no-such-cc")
    return fresh_native


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_dense() -> Dataset:
    """Tiny dense problem with cheap closed-form solutions."""
    return make_dense_gaussian(40, 15, noise=0.1, seed=1)


@pytest.fixture
def small_sparse() -> Dataset:
    """Tiny sparse classification-style dataset."""
    return make_webspam_like(200, 400, nnz_per_example=12, seed=3)


@pytest.fixture
def ridge_small(small_dense) -> RidgeProblem:
    return RidgeProblem(small_dense, lam=1e-2)


@pytest.fixture
def ridge_sparse(small_sparse) -> RidgeProblem:
    return RidgeProblem(small_sparse, lam=5e-3)


def random_coo(rng: np.random.Generator, n: int, m: int, nnz: int):
    """COO triplets with possible duplicates — helper for matrix tests."""
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, m, size=nnz)
    vals = rng.standard_normal(nnz)
    return rows, cols, vals


@pytest.fixture
def random_csr(rng):
    rows, cols, vals = random_coo(rng, 30, 20, 150)
    return from_coo(rows, cols, vals, (30, 20), fmt="csr")


@pytest.fixture
def random_csc(rng):
    rows, cols, vals = random_coo(rng, 30, 20, 150)
    return from_coo(rows, cols, vals, (30, 20), fmt="csc")
