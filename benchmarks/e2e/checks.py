"""Output checks that share no code with ``repro.sparse`` / ``repro.objectives``.

The program's compressed matrices are read only as three public arrays
(``indptr``, ``indices``, ``data``); every product below is scipy's.
"""

from __future__ import annotations

import hashlib

import numpy as np
import scipy.sparse as sp

__all__ = ["fingerprint", "gap_failures", "ridge_gap", "scipy_csr", "serve_failures"]


def scipy_csr(csr) -> sp.csr_matrix:
    """A scipy view of a ``repro`` CSR matrix."""
    return sp.csr_matrix(
        (np.asarray(csr.data, dtype=np.float64), csr.indices, csr.indptr),
        shape=csr.shape,
    )


def fingerprint(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def ridge_gap(a: sp.csr_matrix, y, lam: float, weights, formulation: str):
    """``(duality gap, primal value)`` of an iterate, paper Eqs. 1, 3, 5, 6."""
    n = a.shape[0]
    y = np.asarray(y, dtype=np.float64)
    v = np.asarray(weights, dtype=np.float64)

    def primal(beta, w):
        r = w - y
        return r @ r / (2.0 * n) + 0.5 * lam * (beta @ beta)

    def dual(alpha, wbar):
        return -0.5 * n * (alpha @ alpha) - (wbar @ wbar) / (2.0 * lam) + alpha @ y

    if formulation == "primal":
        w = a @ v
        p = primal(v, w)
        alpha = (y - w) / n
        d = dual(alpha, a.T @ alpha)
    else:
        wbar = a.T @ v
        beta = wbar / lam
        p = primal(beta, a @ beta)
        d = dual(v, wbar)
    return abs(p - d), p


def gap_failures(a, y, lam, result, formulation: str, target: float) -> list[str]:
    """The returned weights reach the target, and ``history`` told the truth.

    The gap is a difference of two objective values of size ``|P|``, so two
    correct float64 evaluations that sum in different orders agree to about
    ``1e-13 |P|``; the tolerance is 1e-9 of the gap plus that allowance.
    """
    gap, p = ridge_gap(a, y, lam, result.weights, formulation)
    reported = result.history.records[-1].gap
    out = []
    if not gap <= target:
        out.append(f"recomputed gap {gap:.3e} misses the target {target:.1e}")
    if not abs(gap - reported) <= 1e-9 * gap + 1e-12 * abs(p):
        out.append(f"recomputed gap {gap:.6e} differs from history's {reported:.6e}")
    return out


def serve_failures(a: sp.csr_matrix, weights_by_version: dict, requests, responses):
    """What is wrong with a replay: every request is answered with ``X[rows] @ w``."""
    messages = []
    if len(responses) != len(requests):
        messages.append(f"{len(responses)} responses for {len(requests)} requests")
    shed = [r for r in responses if r.shed]
    if shed:
        messages.append(f"{len(shed)} requests shed")
    answered = [r for r in responses if not r.shed]
    wrong = 0
    for version in sorted({r.weight_version for r in answered}):
        batch = [r for r in answered if r.weight_version == version]
        weights = weights_by_version.get(version)
        if weights is None:
            wrong += len(batch)
            messages.append(f"{len(batch)} responses carry unknown version {version}")
            continue
        rows = np.concatenate([r.row_ids for r in batch])
        want = a[rows] @ weights
        got = np.concatenate([r.scores for r in batch])
        bad = np.abs(got - want) > 1e-9 * np.maximum(1.0, np.abs(want))
        wrong += int(bad.sum())
    if wrong:
        messages.append(f"{wrong} scores differ from X[row_ids] @ weights(version)")
    return messages
