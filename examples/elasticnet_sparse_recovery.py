#!/usr/bin/env python
"""Extension example: elastic-net coordinate descent for sparse recovery.

The second problem family the paper names for coordinate methods.  A sparse
ground-truth model is planted in Gaussian data; sweeping the L1 mixing ratio
shows coordinate descent recovering an increasingly sparse weight vector,
while ``l1_ratio = 0`` reproduces the ridge solution exactly.

Run:  python examples/elasticnet_sparse_recovery.py
"""

import numpy as np

from repro import (
    ElasticNetCD,
    ElasticNetProblem,
    RidgeProblem,
    make_dense_gaussian,
    solve_exact,
)


def main() -> None:
    data = make_dense_gaussian(120, 60, noise=0.05, seed=4)
    lam = 0.15

    print("l1_ratio   objective      KKT violation   nnz(beta)")
    for l1_ratio in (0.0, 0.25, 0.5, 0.75, 0.95):
        problem = ElasticNetProblem(data, lam, l1_ratio=l1_ratio)
        result = ElasticNetCD(seed=0).solve(
            problem, n_epochs=150, monitor_every=25, target_gap=1e-12
        )
        beta, history = result.weights, result.history
        rec = history.records[-1]
        print(
            f"{l1_ratio:8.2f}   {rec.objective:11.6f}   {rec.gap:13.3e}"
            f"   {np.count_nonzero(beta):6d} / {data.n_features}"
        )

    # the l1_ratio = 0 limit must agree with the closed-form ridge optimum
    problem = ElasticNetProblem(data, lam, l1_ratio=0.0)
    beta = ElasticNetCD(seed=0).solve(problem, n_epochs=200, monitor_every=50).weights
    exact = solve_exact(RidgeProblem(data, lam))
    err = float(np.abs(beta - exact.beta).max())
    print(f"\nmax |beta_enet(l1=0) - beta_ridge_exact| = {err:.2e}")


if __name__ == "__main__":
    main()
