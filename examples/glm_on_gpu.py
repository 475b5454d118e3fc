#!/usr/bin/env python
"""Extension example: elastic net and SVM on the generalized TPA engine.

The paper motivates stochastic coordinate methods for "other problems such
as regression with elastic net regularization as well as support vector
machines".  This example runs both on the simulated GPU via the generalized
TPA engine (same wave-scheduled thread blocks, tree-reduced inner products,
atomic scatter — only the closed-form scalar update differs) and compares
each against its CPU counterpart.  The SVM run is traced: the kernel's
conflict rate and lane occupancy are read off the tracer's wave counters.

Run:  python examples/glm_on_gpu.py
"""

import numpy as np

from repro import (
    ElasticNetCD,
    ElasticNetProblem,
    SvmProblem,
    SvmSdca,
    Tracer,
    make_webspam_like,
)
from repro.core import TpaElasticNet, TpaSvm
from repro.gpu import GTX_TITAN_X


def main() -> None:
    data = make_webspam_like(1_000, 3_000, nnz_per_example=40, seed=7)
    print(data.describe(), "\n")

    # elastic net: CPU coordinate descent vs GPU TPA engine
    enp = ElasticNetProblem(data, lam=5e-3, l1_ratio=0.5)
    cpu = ElasticNetCD(seed=0).solve(enp, 20, monitor_every=4)
    gpu = TpaElasticNet(GTX_TITAN_X, wave_size=2, seed=0).solve(
        enp, 20, monitor_every=4
    )
    print("elastic net (l1_ratio=0.5)   KKT violation per epoch")
    print("  epoch      CPU          TPA (Titan X)")
    for rc, rg in zip(cpu.history, gpu.history):
        print(f"  {rc.epoch:5d}  {rc.gap:11.3e}  {rg.gap:11.3e}")
    print(
        f"  nnz(beta): CPU {np.count_nonzero(cpu.weights)}, "
        f"GPU {np.count_nonzero(gpu.weights)} of {data.n_features}\n"
    )

    # SVM: SDCA vs GPU TPA engine, traced for its wave counters
    svm = SvmProblem(data, lam=1e-2)
    cpu = SvmSdca(seed=0).solve(svm, 15, monitor_every=3)
    gpu_solver = TpaSvm(GTX_TITAN_X, wave_size=2, seed=0)
    gpu = gpu_solver.solve(svm, 15, monitor_every=3, tracer=Tracer())
    print("SVM (hinge, SDCA)   duality gap per epoch")
    print("  epoch      CPU          TPA (Titan X)")
    for rc, rg in zip(cpu.history, gpu.history):
        print(f"  {rc.epoch:5d}  {rc.gap:11.3e}  {rg.gap:11.3e}")
    acc_cpu = float(np.mean(svm.predict(cpu.weights) == data.y))
    acc_gpu = float(np.mean(svm.predict(gpu.weights) == data.y))
    print(f"  train accuracy: CPU {acc_cpu:.3f}, GPU {acc_gpu:.3f}\n")

    counter = gpu.metrics.counter
    blocks, nnz = counter("gpu.blocks"), counter("gpu.nnz_processed")
    lane_slots = blocks * gpu_solver.factory.n_threads
    print("simulated-kernel wave counters (SVM run):")
    print(f"  {'waves':>16}: {counter('gpu.waves'):,.0f}")
    print(f"  {'blocks':>16}: {blocks:,.0f}")
    print(f"  {'nnz_processed':>16}: {nnz:,.0f}")
    print(f"  {'mean_block_nnz':>16}: {nnz / blocks:,.3f}")
    print(f"  {'conflict_rate':>16}: {counter('gpu.atomic_conflicts') / nnz:,.3f}")
    print(f"  {'occupancy':>16}: {counter('gpu.lanes_active') / lane_slots:,.3f}")


if __name__ == "__main__":
    main()
