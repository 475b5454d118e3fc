#!/usr/bin/env python
"""Extension example: warm-started elastic-net paths and logistic SDCA.

Two more members of the GLM family the paper's coordinate framework covers:

* the glmnet-style regularization path (Friedman et al. — the paper's [4],
  the same reference Algorithm 1 is built on): solve a geometric lambda grid
  from lambda_max down, warm-starting each problem at the previous solution;
* logistic regression trained by SDCA with the entropy-regularized dual.

Run:  python examples/regularization_path.py
"""

import numpy as np

from repro import (
    LogisticProblem,
    LogisticSdca,
    elastic_net_path,
    lambda_grid,
    make_dense_gaussian,
    make_webspam_like,
    train_test_split,
)


def main() -> None:
    # 1) the regularization path
    data = make_dense_gaussian(150, 60, noise=0.05, seed=4)
    grid = lambda_grid(data, l1_ratio=0.9, n_lambdas=10)
    path = elastic_net_path(data, grid, l1_ratio=0.9, n_epochs=120, tol=1e-9)
    print("elastic-net path (l1_ratio = 0.9, warm-started)")
    print("   lambda      nnz(beta)   epochs   KKT violation")
    for lam, beta, history in path:
        rec = history.records[-1]
        print(
            f"   {lam:9.5f}   {np.count_nonzero(beta):5d}      "
            f"{rec.epoch:4d}   {rec.gap:11.3e}"
        )
    print("   -> lambda_max zeroes the model; support grows down the path\n")

    # 2) logistic regression
    rng = np.random.default_rng(2)
    spam = make_webspam_like(1_500, 3_000, nnz_per_example=40, seed=13)
    train, test = train_test_split(spam, 0.25, rng)
    problem = LogisticProblem(train, lam=1e-2)
    result = LogisticSdca(seed=0).solve(
        problem, 20, monitor_every=4, target_gap=1e-10
    )
    w, history = result.weights, result.history
    print("logistic SDCA (entropy dual, bisection coordinate steps)")
    for rec in history:
        print(f"   epoch {rec.epoch:3d}   duality gap {rec.gap:11.3e}")
    for name, split in (("train", train), ("test", test)):
        acc = float(np.mean(problem.predict(w, split.csr) == split.y))
        print(f"   {name} accuracy: {acc:.3f}")
    proba = problem.predict_proba(w, test.csr)
    print(f"   test P(y=+1) range: [{proba.min():.3f}, {proba.max():.3f}]")


if __name__ == "__main__":
    main()
