"""One-call training facade over every engine in the reproduction.

The solver zoo (sequential SCD, the async CPU baselines, GPU TPA-SCD, the
distributed engines) grew organically, each with its own constructor.  This
module puts one uniform entry point in front of all of them::

    import repro

    result = repro.train(problem, solver="tpa-scd",
                         config=repro.SolverConfig(n_epochs=20))
    result.history.final_gap  # every engine returns a TrainResult

``train`` accepts a frozen :class:`SolverConfig` (or keyword overrides of
one) and an optional :class:`~repro.obs.Tracer`; it dispatches on the
``solver`` name and always returns a :class:`~repro.solvers.base.TrainResult`
(or a subclass) carrying ``history``, ``ledger`` and — when tracing —
``trace``/``metrics``.  The original solver classes remain available and are
what ``train`` constructs under the hood.  The GLM extension solvers
(``SvmSdca``, ``LogisticSdca``, ``ElasticNetCD``, ``TpaSvm``,
``TpaElasticNet``) have no ``train`` kind, but they run the same
:meth:`~repro.solvers.base.ScdSolver.solve` and return the same shape
(:class:`SvmTrainResult` for the SDCA solvers, as ``"distributed-svm"``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from .core.distributed import DistributedSCD
from .core.distributed_svm import DistributedSvm, SvmTrainResult
from .core.scale import PaperScale
from .core.tpa_scd import TpaScd, TpaScdKernelFactory
from .gpu.device import GpuDevice
from .gpu.spec import GTX_TITAN_X, GpuSpec
from .objectives.ridge import RidgeProblem
from .objectives.svm import SvmProblem
from .perf.link import Link
from .solvers.ascd import ASCD, PASSCoDeWild
from .solvers.base import TrainResult
from .solvers.scd import SequentialKernelFactory, SequentialSCD
from .solvers.syscd import SySCD, SyscdKernelFactory

__all__ = ["SolverConfig", "train", "SOLVER_ALIASES", "SvmTrainResult"]


@dataclass(frozen=True)
class SolverConfig:
    """Everything a :func:`train` call can tune, in one frozen object.

    Unused fields are ignored by engines they do not apply to (e.g.
    ``wave_size`` by the CPU solvers), so one config can drive a sweep
    across several solvers.
    """

    # -- shared driver knobs ------------------------------------------------
    formulation: str = "primal"
    n_epochs: int = 10
    monitor_every: int = 1
    target_gap: float | None = None
    seed: int = 0
    # -- async CPU solvers --------------------------------------------------
    n_threads: int = 16
    loss_prob: float = 0.15
    # -- syscd CPU solver ---------------------------------------------------
    bucket_size: int | None = None
    merge_every: int = 1
    merge: str = "sum"
    kernel_backend: str = "auto"
    # -- simulated GPU ------------------------------------------------------
    gpu: GpuSpec = GTX_TITAN_X
    gpu_threads: int = 256
    wave_size: int | None = None
    # -- distributed engines ------------------------------------------------
    n_workers: int = 4
    aggregation: str = "averaging"
    local_solver: str = "seq"
    network: Link | None = None
    pcie: Link | None = None
    paper_scale: PaperScale | None = None
    round_fraction: float = 1.0
    faults: Any = None
    sigma_prime: float = 1.0
    mp_context: str | None = None
    # -- comm schedule (sync Algorithm 3 vs async parameter server) ---------
    comm: str = "sync"
    batch_fraction: float = 1 / 16
    comm_overlap: float = 0.9
    staleness_bound: int = 0
    # -- elastic membership and heterogeneous pools -------------------------
    membership: Any = None
    rebalance_every: int = 0
    capacities: Any = None

    def replace(self, **overrides) -> "SolverConfig":
        """A copy with ``overrides`` applied (the dataclass is frozen)."""
        return replace(self, **overrides)


#: accepted ``solver=`` names, mapped to their canonical form
SOLVER_ALIASES = {
    "seq": "seq",
    "scd": "seq",
    "sequential": "seq",
    "a-scd": "a-scd",
    "ascd": "a-scd",
    "wild": "wild",
    "passcode-wild": "wild",
    "syscd": "syscd",
    "sy-scd": "syscd",
    "tpa-scd": "tpa-scd",
    "tpa": "tpa-scd",
    "gpu": "tpa-scd",
    "distributed": "distributed",
    "dist": "distributed",
    "mp": "mp",
    "distributed-svm": "distributed-svm",
    "cocoa-svm": "distributed-svm",
}


def _distributed_factory(cfg: SolverConfig):
    """Local-solver factory (or per-rank builder) for the distributed engine."""
    if cfg.local_solver in ("seq", "scd"):
        return SequentialKernelFactory()
    if cfg.local_solver in ("tpa", "tpa-scd", "gpu"):
        # each rank owns its own simulated device
        return lambda rank: TpaScdKernelFactory(
            GpuDevice(cfg.gpu),
            n_threads=cfg.gpu_threads,
            wave_size=cfg.wave_size,
        )
    if cfg.local_solver in ("syscd", "sy-scd"):
        # threaded SySCD as each rank's local solver (heterogeneous CPU rank)
        return lambda rank: SyscdKernelFactory(
            n_threads=cfg.n_threads,
            bucket_size=cfg.bucket_size,
            merge_every=cfg.merge_every,
            merge=cfg.merge,
            kernel_backend=cfg.kernel_backend,
        )
    raise ValueError(
        f"unknown local_solver {cfg.local_solver!r}; use 'seq', 'tpa' or "
        "'syscd'"
    )


def train(
    problem,
    solver: str = "seq",
    *,
    config: SolverConfig | None = None,
    tracer=None,
    on_epoch=None,
    **overrides,
) -> TrainResult:
    """Train ``problem`` with the named ``solver``; returns a ``TrainResult``.

    Parameters
    ----------
    problem:
        A :class:`~repro.objectives.RidgeProblem` (every solver), or a
        :class:`~repro.objectives.SvmProblem` for ``solver="distributed-svm"``;
        any other problem raises ``TypeError`` before an engine is built.
    solver:
        One of the names in :data:`SOLVER_ALIASES` — ``"seq"``, ``"a-scd"``,
        ``"wild"``, ``"syscd"``, ``"tpa-scd"``, ``"distributed"``, ``"mp"``,
        ``"distributed-svm"``.
    config:
        A :class:`SolverConfig`; defaults to ``SolverConfig()``.  Any extra
        keyword arguments override individual config fields, e.g.
        ``train(p, "seq", n_epochs=50)``.
    tracer:
        Optional :class:`~repro.obs.Tracer`; defaults to the ambient tracer
        installed by :func:`~repro.obs.use_tracer`.
    on_epoch:
        Optional callback invoked with an
        :class:`~repro.solvers.base.EpochEvent` at every monitored epoch —
        the train-to-serve publish hook (see :mod:`repro.serve`).  Purely
        observational: installing it never changes the training trajectory.
    """
    cfg = (config or SolverConfig()).replace(**overrides) if overrides else (
        config or SolverConfig()
    )
    try:
        kind = SOLVER_ALIASES[solver]
    except KeyError:
        raise ValueError(
            f"unknown solver {solver!r}; choose from "
            f"{sorted(set(SOLVER_ALIASES))}"
        ) from None
    needs = SvmProblem if kind == "distributed-svm" else RidgeProblem
    if not isinstance(problem, needs):
        raise TypeError(
            f"solver kind {kind!r} needs a {needs.__name__}, "
            f"got a {type(problem).__name__}"
        )

    common = dict(
        monitor_every=cfg.monitor_every,
        target_gap=cfg.target_gap,
        tracer=tracer,
        on_epoch=on_epoch,
    )
    if kind == "seq":
        engine = SequentialSCD(cfg.formulation, seed=cfg.seed)
    elif kind == "a-scd":
        engine = ASCD(cfg.formulation, n_threads=cfg.n_threads, seed=cfg.seed)
    elif kind == "wild":
        engine = PASSCoDeWild(
            cfg.formulation,
            n_threads=cfg.n_threads,
            loss_prob=cfg.loss_prob,
            seed=cfg.seed,
        )
    elif kind == "syscd":
        engine = SySCD(
            cfg.formulation,
            n_threads=cfg.n_threads,
            bucket_size=cfg.bucket_size,
            merge_every=cfg.merge_every,
            merge=cfg.merge,
            kernel_backend=cfg.kernel_backend,
            seed=cfg.seed,
        )
    elif kind == "tpa-scd":
        engine = TpaScd(
            cfg.formulation,
            device=cfg.gpu,
            n_threads=cfg.gpu_threads,
            wave_size=cfg.wave_size,
            seed=cfg.seed,
        )
    elif kind == "distributed":
        engine = DistributedSCD(
            _distributed_factory(cfg),
            cfg.formulation,
            n_workers=cfg.n_workers,
            aggregation=cfg.aggregation,
            network=cfg.network,
            pcie=cfg.pcie,
            paper_scale=cfg.paper_scale,
            seed=cfg.seed,
            round_fraction=cfg.round_fraction,
            faults=cfg.faults,
            comm=cfg.comm,
            batch_fraction=cfg.batch_fraction,
            comm_overlap=cfg.comm_overlap,
            staleness_bound=cfg.staleness_bound,
            mp_context=cfg.mp_context,
            membership=cfg.membership,
            rebalance_every=cfg.rebalance_every,
            capacities=cfg.capacities,
        )
    elif kind == "mp":
        engine = DistributedSCD(
            SequentialKernelFactory(),
            cfg.formulation,
            n_workers=cfg.n_workers,
            aggregation=cfg.aggregation,
            seed=cfg.seed,
            faults=cfg.faults,
            comm="process",
            mp_context=cfg.mp_context,
        )
    else:  # distributed-svm
        engine = DistributedSvm(
            n_workers=cfg.n_workers,
            sigma_prime=cfg.sigma_prime,
            network=cfg.network,
            paper_scale=cfg.paper_scale,
            seed=cfg.seed,
            faults=cfg.faults,
            membership=cfg.membership,
            rebalance_every=cfg.rebalance_every,
        )
    return engine.solve(problem, cfg.n_epochs, **common)
