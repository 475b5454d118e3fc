"""Experiment drivers: one runner per figure/table of the paper."""

from .ablations import (
    run_aggregation_ablation,
    run_gpu_write_ablation,
    run_pcie_ablation,
    run_precision_ablation,
    run_wave_ablation,
)
from .config import (
    LAMBDA,
    SCALES,
    ScaleConfig,
    active_scale,
    criteo_problem,
    webspam_problem,
)
from .convergence import SOLVER_LABELS, run_convergence, run_fig1, run_fig2
from .extensions import (
    run_async_vs_sync,
    run_batch_vs_stochastic,
    run_comm_tradeoff,
    run_glm_gpu,
    run_heterogeneous_cluster,
    run_sigma_sweep,
    run_smart_partition,
    run_weak_scaling,
)
from .distributed_figs import (
    EPS_TARGETS,
    WORKER_COUNTS,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
)
from .faults import (
    FAULT_SCENARIOS,
    run_fault_breakdown,
    run_fault_tolerance,
    scenario_table,
)
from .gpu_cluster import run_fig8, run_fig9
from .headline import PAPER_SPEEDUPS, run_headline
from .large_scale import run_fig10, run_fig10_outofcore
from .ascii_plot import ascii_plot
from .results import CurveSeries, FigureResult
from .serving_fig import run_serving
from . import registry
from .registry import REGISTRY, DriverSpec, get_driver, run_driver

#: id -> bare callable, derived from the single driver registry
#: (:mod:`repro.experiments.registry`); the CLI, the EXPERIMENTS.md
#: generator, and the bench harness all discover drivers from there
ALL_EXPERIMENTS = {spec.driver_id: spec.fn for spec in REGISTRY.values()}

__all__ = [
    "ALL_EXPERIMENTS",
    "REGISTRY",
    "DriverSpec",
    "get_driver",
    "run_driver",
    "registry",
    "run_serving",
    "CurveSeries",
    "FigureResult",
    "ascii_plot",
    "LAMBDA",
    "SCALES",
    "ScaleConfig",
    "active_scale",
    "criteo_problem",
    "webspam_problem",
    "SOLVER_LABELS",
    "EPS_TARGETS",
    "WORKER_COUNTS",
    "PAPER_SPEEDUPS",
    "run_convergence",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig10_outofcore",
    "run_headline",
    "run_wave_ablation",
    "run_gpu_write_ablation",
    "run_aggregation_ablation",
    "run_precision_ablation",
    "run_pcie_ablation",
    "run_smart_partition",
    "run_comm_tradeoff",
    "run_sigma_sweep",
    "run_async_vs_sync",
    "run_heterogeneous_cluster",
    "run_glm_gpu",
    "run_batch_vs_stochastic",
    "run_weak_scaling",
    "FAULT_SCENARIOS",
    "run_fault_tolerance",
    "run_fault_breakdown",
    "scenario_table",
]
