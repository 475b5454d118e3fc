#!/usr/bin/env python
"""Extension example: linear SVM via SDCA on webspam-like text data.

The paper notes stochastic coordinate methods also train support vector
machines; this example uses the library's SDCA solver (the same coordinate
framework, hinge loss + box-constrained dual) on a spam-classification
stand-in, reporting the hinge duality gap and held-out accuracy.

Run:  python examples/svm_text_classification.py
"""

import numpy as np

from repro import SvmProblem, SvmSdca, make_webspam_like, train_test_split


def main() -> None:
    rng = np.random.default_rng(1)
    data = make_webspam_like(2_000, 4_000, nnz_per_example=50, seed=13)
    train, test = train_test_split(data, 0.25, rng)
    print(train.describe())

    problem = SvmProblem(train, lam=1e-2)
    solver = SvmSdca(seed=0)
    result = solver.solve(problem, n_epochs=25, monitor_every=5)
    w, history = result.weights, result.history

    print("\nepoch   duality gap   support vectors")
    for rec in history:
        sv = rec.extras.get("support_vectors", 0)
        print(f"{rec.epoch:5d}   {rec.gap:11.3e}   {sv:6d}")

    for name, split in (("train", train), ("test", test)):
        pred = problem.predict(w, split.csr)
        acc = float(np.mean(pred == split.y))
        print(f"{name} accuracy: {acc:.3f}")


if __name__ == "__main__":
    main()
