"""Extension experiments: the future-work directions the paper names.

* ``run_smart_partition`` — Section IV's closing remark ([22]): on data with
  block structure, partitioning correlated coordinates onto the same worker
  (connected components of the co-occurrence relation) plus adaptive
  aggregation recovers near-sequential convergence at K=8.
* ``run_comm_tradeoff`` — the computation/communication ratio ([23]): the
  paper notes "by carefully tuning the ratio of communication to
  computation, it may be possible to improve the convergence behavior ...
  but we consider such optimizations beyond the scope of this paper".  We
  sweep the fraction of a local epoch between aggregations on two fabrics
  and show the optimum is infrastructure-dependent.
* ``run_sigma_sweep`` — the CoCoA(+) aggregation scaling sigma' ([24]):
  gamma = sigma'/K between averaging (1) and adding (K).
"""

from __future__ import annotations

import math

import numpy as np

from ..cluster.partition import proportional_partition
from ..cluster.smart_partition import make_correlation_partitioner
from ..core.aggregation import ScaledAggregator
from ..core.glm_tpa import TpaElasticNet, TpaSvm
from ..core.distributed import DistributedSCD
from ..data.synthetic import make_block_correlated
from ..objectives.ridge import RidgeProblem
from ..gpu.spec import GTX_TITAN_X, QUADRO_M4000
from ..objectives.elasticnet import ElasticNetProblem
from ..objectives.svm import SvmProblem
from ..perf.link import ETHERNET_10G, ETHERNET_100G, PCIE3_X16_PINNED
from ..solvers.batch_gd import BatchGD
from ..solvers.sgd import SgdSolver
from ..solvers.scd import SequentialKernelFactory
from .claims import TRUE, Claim, above, at_most, below, final_ratio
from .config import (
    LAMBDA,
    ScaleConfig,
    active_scale,
    epochs,
    webspam_problem,
)
from .results import CurveSeries, FigureResult

__all__ = [
    "run_smart_partition",
    "run_comm_tradeoff",
    "run_sigma_sweep",
    "run_async_vs_sync",
    "run_heterogeneous_cluster",
    "run_glm_gpu",
    "run_batch_vs_stochastic",
    "run_weak_scaling",
]


def run_smart_partition(scale: ScaleConfig | None = None) -> FigureResult:
    """Random vs correlation-aware partitioning on block-structured data."""
    scale = scale or active_scale()
    ds = make_block_correlated(
        n_examples=max(600, scale.webspam_n),
        n_features=1_600,
        n_blocks=8,
        seed=17,
    )
    problem = RidgeProblem(ds, LAMBDA)
    n_epochs = epochs(24, scale)
    smart = make_correlation_partitioner(ds.csr)
    fig = FigureResult(
        figure_id="ext-smart-partition",
        title="Random vs correlation-aware partitioning (K=8, primal, adaptive)",
        meta={"n_epochs": n_epochs, "n_blocks": 8},
    )
    for label, part in (("random", None), ("correlation-aware", smart)):
        eng = DistributedSCD(
            SequentialKernelFactory(),
            "primal",
            n_workers=8,
            aggregation="adaptive",
            seed=3,
            partitioner=part,
        )
        res = eng.solve(problem, n_epochs, monitor_every=max(1, n_epochs // 12))
        fig.add(
            CurveSeries(
                label=label,
                x=res.history.epochs,
                y=res.history.gaps,
                x_name="epochs",
                y_name="gap",
                meta={"partitioner": label},
            )
        )
    return fig


def run_comm_tradeoff(scale: ScaleConfig | None = None) -> FigureResult:
    """Sweep the per-round local-update fraction on two network fabrics."""
    scale = scale or active_scale()
    problem, paper = webspam_problem(scale)
    fractions = (1.0, 0.25, 1 / 16, 1 / 64)
    base_epochs = epochs(96, scale)
    target = 3e-5
    fig = FigureResult(
        figure_id="ext-comm-tradeoff",
        title="Communication/computation trade-off (K=4, dual, averaging)",
        meta={"fractions": fractions, "target": target},
    )
    for link, label in ((ETHERNET_10G, "10GbE"), (ETHERNET_100G, "100GbE")):
        times = []
        for frac in fractions:
            eng = DistributedSCD(
                SequentialKernelFactory(),
                "dual",
                n_workers=4,
                aggregation="averaging",
                network=link,
                paper_scale=paper,
                seed=3,
                round_fraction=frac,
            )
            rounds = int(np.ceil(base_epochs / frac))
            res = eng.solve(
                problem, rounds, monitor_every=max(1, rounds // 40), target_gap=target
            )
            times.append(res.history.time_to_gap(target))
        fig.add(
            CurveSeries(
                label=label,
                x=np.asarray(fractions),
                y=np.asarray(times),
                x_name="round fraction",
                y_name="time(s)",
                meta={"link": label},
            )
        )
    return fig


def run_sigma_sweep(scale: ScaleConfig | None = None) -> FigureResult:
    """CoCoA+ sigma' sweep: gamma = sigma'/K between averaging and adding."""
    scale = scale or active_scale()
    problem, paper = webspam_problem(scale)
    n_epochs = epochs(32, scale)
    k = 8
    fig = FigureResult(
        figure_id="ext-sigma-sweep",
        title="Aggregation scaling sigma' (gamma = sigma'/K), K=8 dual",
        meta={"n_epochs": n_epochs},
    )
    for sigma in (1.0, 2.0, 4.0, 8.0):
        eng = DistributedSCD(
            SequentialKernelFactory(),
            "dual",
            n_workers=k,
            aggregation=ScaledAggregator(sigma),
            paper_scale=paper,
            seed=3,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            res = eng.solve(problem, n_epochs, monitor_every=max(1, n_epochs // 8))
        fig.add(
            CurveSeries(
                label=f"sigma'={sigma:g}",
                x=res.history.epochs,
                y=res.history.gaps,
                x_name="epochs",
                y_name="gap",
                meta={"sigma_prime": sigma},
            )
        )
    return fig


def run_async_vs_sync(scale: ScaleConfig | None = None) -> FigureResult:
    """Synchronous Algorithm 3 vs an asynchronous parameter server.

    The paper's introduction contrasts the two distribution styles; this
    experiment makes the contrast concrete.  The asynchronous design applies
    workers' raw (unscaled) deltas against bounded-staleness snapshots: with
    large batches it diverges (the reason synchronous schemes scale updates),
    with small batches it converges fast and hides communication behind
    computation.
    """
    scale = scale or active_scale()
    problem, paper = webspam_problem(scale)
    n_epochs = epochs(60, scale)
    target = 3e-5
    fig = FigureResult(
        figure_id="ext-async-vs-sync",
        title="Synchronous distributed SCD vs asynchronous parameter server "
        "(K=4, dual)",
        meta={"target": target},
    )
    sync = DistributedSCD(
        SequentialKernelFactory(),
        "dual",
        n_workers=4,
        aggregation="averaging",
        paper_scale=paper,
        seed=3,
    )
    res = sync.solve(problem, n_epochs, monitor_every=2, target_gap=target)
    fig.add(
        CurveSeries(
            label="synchronous (averaging)",
            x=res.history.sim_times,
            y=res.history.gaps,
            x_name="time(s)",
            y_name="gap",
            meta={"time_to_target": res.history.time_to_gap(target)},
        )
    )
    for bf, label in ((0.25, "async batch=1/4 (too stale)"), (1 / 16, "async batch=1/16")):
        eng = DistributedSCD(
            SequentialKernelFactory(),
            "dual",
            n_workers=4,
            comm="async",
            batch_fraction=bf,
            paper_scale=paper,
            seed=3,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            res = eng.solve(problem, n_epochs, monitor_every=2, target_gap=target)
        fig.add(
            CurveSeries(
                label=label,
                x=res.history.sim_times,
                y=res.history.gaps,
                x_name="time(s)",
                y_name="gap",
                meta={
                    "batch_fraction": bf,
                    "time_to_target": res.history.time_to_gap(target),
                },
            )
        )
    return fig


def run_heterogeneous_cluster(scale: ScaleConfig | None = None) -> FigureResult:
    """Heterogeneous GPU cluster: uniform vs throughput-proportional shares.

    A Titan X working alongside three M4000s: the synchronous engine's epoch
    time is the straggler's, so uniform partitions waste the fast device.
    Sizing partitions by device throughput equalizes per-epoch compute.
    """
    scale = scale or active_scale()
    problem, paper = webspam_problem(scale)
    from .config import tpa_factory

    specs = [GTX_TITAN_X, QUADRO_M4000, QUADRO_M4000, QUADRO_M4000]
    # sustained nnz throughput ~ bandwidth x calibrated efficiency
    speeds = np.array(
        [s.mem_bandwidth_gbs * s.mem_efficiency for s in specs]
    )
    n_epochs = epochs(40, scale)
    target = 3e-4
    fig = FigureResult(
        figure_id="ext-heterogeneous",
        title="Heterogeneous GPU cluster: uniform vs proportional partitions",
        meta={"devices": [s.name for s in specs], "target": target},
    )
    for label, part in (
        ("uniform", None),
        (
            "throughput-proportional",
            lambda n, k, rng: proportional_partition(n, speeds, rng),
        ),
    ):
        eng = DistributedSCD(
            lambda rank: tpa_factory(
                specs[rank], paper, "dual", problem, n_workers=4
            ),
            "dual",
            n_workers=4,
            aggregation="averaging",
            network=ETHERNET_10G,
            pcie=PCIE3_X16_PINNED,
            paper_scale=paper,
            seed=3,
            partitioner=part,
        )
        res = eng.solve(problem, n_epochs, monitor_every=2, target_gap=target)
        fig.add(
            CurveSeries(
                label=label,
                x=res.history.sim_times,
                y=res.history.gaps,
                x_name="time(s)",
                y_name="gap",
                meta={
                    "partitioner": label,
                    "time_to_target": res.history.time_to_gap(target),
                },
            )
        )
    return fig


def run_glm_gpu(scale: ScaleConfig | None = None) -> FigureResult:
    """The GLM extensions on the GPU engine: elastic net and SVM.

    Demonstrates that the paper's twice-parallel execution generalizes to
    the other coordinate-solvable objectives it names: the GPU solvers must
    track their CPU counterparts' convergence per epoch.
    """
    scale = scale or active_scale()
    from ..data import make_webspam_like
    from ..solvers import ElasticNetCD, SvmSdca

    ds = make_webspam_like(
        scale.webspam_n, scale.webspam_m, nnz_per_example=scale.webspam_nnz_per_example
    )
    fig = FigureResult(
        figure_id="ext-glm-gpu",
        title="GLM extensions on the TPA engine (elastic net, SVM)",
        meta={"scale": scale.name},
    )
    n_epochs = epochs(24, scale)
    monitor = max(1, n_epochs // 8)

    enp = ElasticNetProblem(ds, LAMBDA, l1_ratio=0.5)
    h_cpu = ElasticNetCD(seed=0).solve(enp, n_epochs, monitor_every=monitor).history
    h_gpu = TpaElasticNet(GTX_TITAN_X, wave_size=2, seed=0).solve(
        enp, n_epochs, monitor_every=monitor
    ).history
    fig.add(
        CurveSeries(
            "elastic-net CPU", h_cpu.epochs, h_cpu.gaps, "epochs", "KKT violation"
        )
    )
    fig.add(
        CurveSeries(
            "elastic-net TPA", h_gpu.epochs, h_gpu.gaps, "epochs", "KKT violation"
        )
    )

    svm = SvmProblem(ds, lam=1e-2)
    h_cpu = SvmSdca(seed=0).solve(svm, n_epochs, monitor_every=monitor).history
    h_gpu = TpaSvm(GTX_TITAN_X, wave_size=2, seed=0).solve(
        svm, n_epochs, monitor_every=monitor
    ).history
    fig.add(CurveSeries("SVM CPU", h_cpu.epochs, h_cpu.gaps, "epochs", "gap"))
    fig.add(CurveSeries("SVM TPA", h_gpu.epochs, h_gpu.gaps, "epochs", "gap"))
    return fig


def run_batch_vs_stochastic(scale: ScaleConfig | None = None) -> FigureResult:
    """The introduction's motivating claim: SCD beats batch gradient descent.

    "It is well known that faster convergence can be achieved over batch
    methods by using stochastic learning algorithms such as [SGD] or [SCD]."
    One batch iteration touches every nonzero once — the same data traffic
    as one SCD epoch — so the per-epoch comparison is cost-fair.  Nesterov
    acceleration is included as the strongest batch baseline.
    """
    scale = scale or active_scale()
    problem, paper = webspam_problem(scale)
    n_epochs = epochs(120, scale)
    monitor = max(1, n_epochs // 20)
    fig = FigureResult(
        figure_id="ext-batch-vs-stochastic",
        title="Batch gradient descent vs stochastic coordinate descent "
        "(primal, per-epoch cost-fair)",
        meta={"n_epochs": n_epochs},
    )
    from ..solvers.base import ScdSolver

    wl = paper.worker_workload("primal", 1.0, 1.0)
    scd = ScdSolver(
        SequentialKernelFactory(timing_workload=wl), "primal", seed=0
    ).solve(problem, n_epochs, monitor_every=monitor)
    fig.add(
        CurveSeries(
            "SCD (Algorithm 1)", scd.history.epochs, scd.history.gaps,
            "epochs", "gap",
        )
    )
    for accelerated, label in ((False, "Batch GD"), (True, "Nesterov GD")):
        solver = BatchGD(accelerated=accelerated, seed=0)
        solver.timing_workload = wl
        res = solver.solve(problem, n_epochs, monitor_every=monitor)
        fig.add(
            CurveSeries(label, res.history.epochs, res.history.gaps, "epochs", "gap")
        )
    for threads, label in ((1, "SGD"), (16, "Hogwild (16 threads)")):
        sgd = SgdSolver(n_threads=threads, seed=0)
        sgd.timing_workload = wl
        res = sgd.solve(problem, n_epochs, monitor_every=monitor)
        fig.add(
            CurveSeries(label, res.history.epochs, res.history.gaps, "epochs", "gap")
        )
    return fig


def run_weak_scaling(scale: ScaleConfig | None = None) -> FigureResult:
    """Weak scaling: K workers on K-times the data (Section V's closing point).

    "The scaling behavior that has been demonstrated does not imply that
    training can be accelerated if the size of the dataset remains fixed.
    However, ... this scaling property allows one to leverage GPU
    acceleration when training massive datasets that do not fit inside the
    memory of a single GPU."  Here the dataset grows with the cluster: the
    GPU cluster's time-to-accuracy stays in the same ballpark while a
    single-thread CPU on the same growing data slows down linearly.
    """
    from ..core.scale import WEBSPAM_PAPER, PaperScale
    from ..data import make_webspam_like
    from ..solvers.base import ScdSolver

    scale = scale or active_scale()
    from ..gpu.spec import GTX_TITAN_X
    from .config import tpa_factory

    base_n = max(200, scale.webspam_n // 2)
    target = 3e-4
    ks = (1, 2, 4)
    gpu_times, cpu_times = [], []
    for k in ks:
        ds = make_webspam_like(
            base_n * k,
            scale.webspam_m,
            nnz_per_example=scale.webspam_nnz_per_example,
            seed=7,
        )
        problem = RidgeProblem(ds, LAMBDA)
        paper = PaperScale(
            name=f"webspam-x{k}",
            n_examples=WEBSPAM_PAPER.n_examples * k,
            n_features=WEBSPAM_PAPER.n_features,
            nnz=WEBSPAM_PAPER.nnz * k,
        )
        eng = DistributedSCD(
            lambda rank: tpa_factory(GTX_TITAN_X, paper, "dual", problem, n_workers=k),
            "dual",
            n_workers=k,
            aggregation="adaptive",
            network=ETHERNET_10G,
            paper_scale=paper,
            seed=3,
        )
        res = eng.solve(problem, 40 * k, monitor_every=2, target_gap=target)
        gpu_times.append(res.history.time_to_gap(target))

        cpu = ScdSolver(
            SequentialKernelFactory(
                timing_workload=paper.worker_workload("dual", 1.0, 1.0)
            ),
            "dual",
            seed=3,
        )
        res = cpu.solve(problem, 40, monitor_every=2, target_gap=target)
        cpu_times.append(res.history.time_to_gap(target))

    fig = FigureResult(
        figure_id="ext-weak-scaling",
        title="Weak scaling: K GPU workers on K-times the data vs one CPU",
        meta={"target": target, "base_n": base_n},
    )
    fig.add(
        CurveSeries(
            "distributed TPA-SCD (K workers)",
            np.asarray(ks, dtype=float),
            np.asarray(gpu_times),
            "workers (and data multiple)",
            "time(s)",
        )
    )
    fig.add(
        CurveSeries(
            "sequential CPU (same growing data)",
            np.asarray(ks, dtype=float),
            np.asarray(cpu_times),
            "workers (and data multiple)",
            "time(s)",
        )
    )
    return fig


# -- claims ------------------------------------------------------------------


def _fabrics(fig: FigureResult) -> tuple[np.ndarray, np.ndarray]:
    """(10GbE, 100GbE) times at the granularities both fabrics reach."""
    slow, fast = fig.get("10GbE").y, fig.get("100GbE").y
    both = np.isfinite(slow) & np.isfinite(fast)
    return slow[both], fast[both]


def _fast_fabric_never_loses(fig: FigureResult) -> float:
    slow, fast = _fabrics(fig)
    return float(np.max(fast / slow)) if slow.size else math.nan


def _fine_granularity_penalty(fig: FigureResult) -> float:
    """Finest-fraction penalty over the fabric's best, 100GbE / 10GbE."""
    slow, fast = fig.get("10GbE").y, fig.get("100GbE").y
    best_slow, best_fast = _fabrics(fig)
    return (fast[-1] / best_fast.min()) / (slow[-1] / best_slow.min())


def _time_ratio(num: str, den: str):
    """Measure: time to target of series ``num`` over that of series ``den``."""
    return lambda fig: (
        fig.get(num).meta["time_to_target"] / fig.get(den).meta["time_to_target"]
    )


_WEAK_GPU = "distributed TPA-SCD (K workers)"
_WEAK_CPU = "sequential CPU (same growing data)"


def _growth(label: str):
    """Time on the largest data over time on the base data."""
    return lambda fig: fig.get(label).y[-1] / fig.get(label).y[0]


def _weak_gpu_vs_cpu(fig: FigureResult) -> float:
    return float(np.max(fig.get(_WEAK_GPU).y / fig.get(_WEAK_CPU).y))


CLAIMS = {
    "ext-smart-partition": (
        Claim(
            "ext-smart-partition-wins", "Ext. [22] (§IV)",
            final_ratio("correlation-aware", "random"), below(0.2),
            "correlation-aware partitioning decouples the workers' sub-problems (final gap, "
            "correlation-aware / random)",
        ),
    ),
    "ext-comm-tradeoff": (
        Claim(
            "ext-comm-tradeoff-fast-fabric", "Ext. [23]", _fast_fabric_never_loses, at_most(1.05),
            "the faster fabric never loses at any granularity both reach (worst time, 100GbE / "
            "10GbE)",
        ),
        Claim(
            "ext-comm-tradeoff-granularity", "Ext. [23]", _fine_granularity_penalty, below(1),
            "the best aggregation granularity depends on the fabric: fine granularity costs "
            "100GbE less (finest-fraction penalty, 100GbE / 10GbE)",
        ),
    ),
    "ext-sigma-sweep": (
        Claim(
            "ext-sigma-sweep-moderate", "Ext. [24]", final_ratio("sigma'=2", "sigma'=1"), below(1),
            "moderate sigma' scaling accelerates (final gap, sigma'=2 / sigma'=1)",
        ),
        Claim(
            "ext-sigma-sweep-adding-diverges", "Ext. [24]",
            final_ratio("sigma'=1", "sigma'=8"), below(1e-3),
            "adding (sigma'=K) diverges at K=8 (final gap, sigma'=1 / sigma'=8)",
        ),
    ),
    "ext-async-vs-sync": (
        Claim(
            "ext-async-hides-comm", "Ext. [6]",
            _time_ratio("async batch=1/16", "synchronous (averaging)"), below(1),
            "a bounded-staleness parameter server reaches the gap sooner (time to target, async "
            "1/16 / synchronous)",
        ),
        Claim(
            "ext-async-too-stale", "Ext. [6]",
            lambda fig: math.isinf(
                fig.get("async batch=1/4 (too stale)").meta["time_to_target"]
            ),
            TRUE,
            "coarse async batches are too stale to converge",
        ),
    ),
    "ext-heterogeneous": (
        Claim(
            "ext-heterogeneous-proportional", "Ext. (heterogeneous)",
            _time_ratio("throughput-proportional", "uniform"), below(1),
            "throughput-proportional partitions beat uniform ones on a mixed cluster (time to "
            "target, proportional / uniform)",
            scale="quick",
        ),
    ),
    "ext-glm-gpu": (
        Claim(
            "ext-glm-gpu-enet-tpa", "Ext. (GLM, §VI)",
            lambda fig: fig.get("elastic-net TPA").final(), below(1e-5),
            "the TPA engine solves elastic net to the fp32 floor (final KKT residual)",
        ),
        Claim(
            "ext-glm-gpu-svm-tpa", "Ext. (GLM, §VI)",
            lambda fig: abs(fig.get("SVM TPA").final()), below(1e-5),
            "the TPA engine solves the SVM dual to the fp32 floor (absolute final duality gap)",
            scale="quick",
        ),
        Claim(
            "ext-glm-gpu-enet-cpu", "Ext. (GLM, §VI)",
            lambda fig: fig.get("elastic-net CPU").final(), below(1e-8),
            "the fp64 CPU elastic-net reference converges (final KKT residual)",
            scale="quick",
        ),
    ),
    "ext-batch-vs-stochastic": (
        Claim(
            "ext-batch-scd-beats-gd", "§I",
            final_ratio("SCD (Algorithm 1)", "Batch GD"), below(1e-3),
            "SCD converges far faster per epoch than batch gradient descent (final gap, SCD / "
            "batch GD)",
        ),
        Claim(
            "ext-batch-nesterov-helps", "§I", final_ratio("Nesterov GD", "Batch GD"), below(1),
            "acceleration helps gradient descent (final gap, Nesterov / batch GD)",
        ),
    ),
    "ext-weak-scaling": (
        Claim(
            "ext-weak-scaling-gpu-flat", "§V (closing)", _growth(_WEAK_GPU), below(3),
            "the GPU cluster absorbs K-fold data growth (time, largest K / K=1)",
        ),
        Claim(
            "ext-weak-scaling-cpu-grows", "§V (closing)", _growth(_WEAK_CPU), above(1.5),
            "one CPU does not (time, largest data / base data)",
        ),
        Claim(
            "ext-weak-scaling-gpu-faster", "§V (closing)", _weak_gpu_vs_cpu, below(0.2),
            "the cluster stays >5x faster at every size (worst time, GPU / CPU)",
        ),
    ),
}
