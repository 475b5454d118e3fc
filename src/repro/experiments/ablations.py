"""Ablations of the design choices DESIGN.md calls out.

These are not paper figures; they probe *why* the paper's choices matter:

1. ``run_wave_ablation``      — staleness window (resident blocks) sweep:
   TPA-SCD's near-sequential convergence relies on the fine-grained
   asynchronous updates; huge waves degrade or destabilize convergence.
2. ``run_gpu_write_ablation`` — atomic vs wild write-back at GPU-like
   concurrency: the wild variant hits a duality-gap floor, which is why
   TPA-SCD uses float atomic adds.
3. ``run_aggregation_ablation`` — averaging vs adding vs adaptive at K=4:
   adding diverges, averaging is slow, adaptive wins.
4. ``run_precision_ablation`` — float32 (paper) vs float64 TPA-SCD: fp32
   reaches a gap floor near machine precision, fp64 keeps descending.
5. ``run_pcie_ablation``      — pinned vs pageable host memory for the
   per-epoch shared-vector transfers (the paper explicitly uses pinned).
"""

from __future__ import annotations

import numpy as np

from ..core.distributed import DistributedSCD
from ..core.tpa_scd import TpaScdKernelFactory
from ..gpu.device import GpuDevice
from ..gpu.spec import GTX_TITAN_X, QUADRO_M4000
from ..perf.link import ETHERNET_10G, PCIE3_X16_PAGEABLE, PCIE3_X16_PINNED
from ..solvers.ascd import AsyncCpuKernelFactory
from ..solvers.base import ScdSolver
from .claims import Band, Claim, above, at_least, at_most, below, final_ratio
from .config import (
    ScaleConfig,
    active_scale,
    epochs,
    sequential_factory,
    tpa_factory,
    webspam_problem,
)
from .results import CurveSeries, FigureResult

__all__ = [
    "run_wave_ablation",
    "run_gpu_write_ablation",
    "run_aggregation_ablation",
    "run_precision_ablation",
    "run_pcie_ablation",
]


def run_wave_ablation(scale: ScaleConfig | None = None) -> FigureResult:
    """Ablation 1: convergence vs the asynchronous staleness window."""
    scale = scale or active_scale()
    problem, paper = webspam_problem(scale)
    n_epochs = epochs(30, scale)
    waves = (1, 4, 16, 64, 256)
    fig = FigureResult(
        figure_id="ablation-wave",
        title="TPA-SCD staleness window (wave size) sweep, dual form",
        meta={"n_epochs": n_epochs, "scale": scale.name},
    )
    for wave in waves:
        factory = TpaScdKernelFactory(GpuDevice(GTX_TITAN_X), wave_size=wave)
        # extreme waves legitimately diverge in fp32 — that is the point of
        # the ablation; silence the overflow warnings the divergence emits
        with np.errstate(over="ignore", invalid="ignore"):
            res = ScdSolver(factory, "dual", seed=0).solve(
                problem, n_epochs, monitor_every=max(1, n_epochs // 10)
            )
        fig.add(
            CurveSeries(
                label=f"wave={wave}",
                x=res.history.epochs,
                y=res.history.gaps,
                x_name="epochs",
                y_name="gap",
                meta={"wave": wave},
            )
        )
    return fig


def run_gpu_write_ablation(scale: ScaleConfig | None = None) -> FigureResult:
    """Ablation 2: atomic vs wild write-back at GPU-scale concurrency."""
    scale = scale or active_scale()
    problem, paper = webspam_problem(scale)
    n_epochs = epochs(30, scale)
    concurrency = 16  # simultaneously-writing lanes (the CPU model's max)
    fig = FigureResult(
        figure_id="ablation-gpu-write",
        title="Write-back semantics at GPU-scale concurrency, primal form",
        meta={"n_epochs": n_epochs, "concurrency": concurrency},
    )
    for mode in ("atomic", "wild"):
        factory = AsyncCpuKernelFactory(n_threads=concurrency, write_mode=mode)
        res = ScdSolver(factory, "primal", seed=0).solve(
            problem, n_epochs, monitor_every=max(1, n_epochs // 10)
        )
        fig.add(
            CurveSeries(
                label=mode,
                x=res.history.epochs,
                y=res.history.gaps,
                x_name="epochs",
                y_name="gap",
                meta={"mode": mode, "lost_updates": res.lost_updates},
            )
        )
    return fig


def run_aggregation_ablation(scale: ScaleConfig | None = None) -> FigureResult:
    """Ablation 3: averaging vs adding vs adaptive aggregation at K=4."""
    scale = scale or active_scale()
    problem, paper = webspam_problem(scale)
    n_epochs = epochs(40, scale)
    fig = FigureResult(
        figure_id="ablation-aggregation",
        title="Aggregation rules at K=4, dual form",
        meta={"n_epochs": n_epochs},
    )
    for rule in ("averaging", "adding", "adaptive"):
        eng = DistributedSCD(
            sequential_factory(paper, "dual"),
            "dual",
            n_workers=4,
            aggregation=rule,
            paper_scale=paper,
            seed=3,
        )
        res = eng.solve(problem, n_epochs, monitor_every=max(1, n_epochs // 10))
        fig.add(
            CurveSeries(
                label=rule,
                x=res.history.epochs,
                y=res.history.gaps,
                x_name="epochs",
                y_name="gap",
                meta={"rule": rule},
            )
        )
    return fig


def run_precision_ablation(scale: ScaleConfig | None = None) -> FigureResult:
    """Ablation 4: float32 (paper) vs float64 TPA-SCD arithmetic."""
    scale = scale or active_scale()
    problem, paper = webspam_problem(scale)
    n_epochs = epochs(60, scale)
    fig = FigureResult(
        figure_id="ablation-precision",
        title="TPA-SCD arithmetic precision, dual form",
        meta={"n_epochs": n_epochs},
    )
    for dtype, label in ((np.float32, "float32"), (np.float64, "float64")):
        factory = TpaScdKernelFactory(
            GpuDevice(GTX_TITAN_X), wave_size=2, dtype=dtype
        )
        res = ScdSolver(factory, "dual", seed=0).solve(
            problem, n_epochs, monitor_every=max(1, n_epochs // 10)
        )
        fig.add(
            CurveSeries(
                label=label,
                x=res.history.epochs,
                y=res.history.gaps,
                x_name="epochs",
                y_name="gap",
                meta={"dtype": label},
            )
        )
    return fig


def run_pcie_ablation(scale: ScaleConfig | None = None) -> FigureResult:
    """Ablation 5: pinned vs pageable PCIe for the per-epoch transfers."""
    scale = scale or active_scale()
    problem, paper = webspam_problem(scale)
    n_epochs = epochs(16, scale)
    fig = FigureResult(
        figure_id="ablation-pcie",
        title="Pinned vs pageable PCIe transfers, distributed TPA-SCD K=4",
        meta={"n_epochs": n_epochs},
    )
    results = {}
    for link, label in (
        (PCIE3_X16_PINNED, "pinned"),
        (PCIE3_X16_PAGEABLE, "pageable"),
    ):
        eng = DistributedSCD(
            lambda rank: tpa_factory(
                QUADRO_M4000, paper, "dual", problem, n_workers=4
            ),
            "dual",
            n_workers=4,
            aggregation="averaging",
            network=ETHERNET_10G,
            pcie=link,
            paper_scale=paper,
            seed=3,
        )
        res = eng.solve(problem, n_epochs, monitor_every=max(1, n_epochs // 4))
        results[label] = res
        fig.add(
            CurveSeries(
                label=label,
                x=res.history.sim_times,
                y=res.history.gaps,
                x_name="time(s)",
                y_name="gap",
                meta={
                    "pcie_seconds": res.ledger.get("comm_pcie"),
                    "total_seconds": res.ledger.total,
                },
            )
        )
    return fig


def _pageable_penalty(fig: FigureResult) -> float:
    pcie = {s.label: s.meta["pcie_seconds"] for s in fig.series}
    return pcie["pageable"] / pcie["pinned"]


CLAIMS = {
    "ablation-wave": (
        Claim(
            "ablation-wave-staleness", "Ablation (§III)",
            final_ratio("wave=1", "wave=256"), below(1e-3),
            "extreme staleness destroys per-epoch convergence (final gap, wave=1 / wave=256)",
        ),
        Claim(
            "ablation-wave-small-tracks", "Ablation (§III)",
            lambda fig: fig.get("wave=4").final(), below(1e-8),
            "small waves keep near-sequential convergence (final gap, wave=4)",
        ),
    ),
    "ablation-gpu-write": (
        Claim(
            "ablation-gpu-write-wild-floor", "Ablation (§III)",
            final_ratio("atomic", "wild"), below(0.1),
            "wild write-back plateaus far above atomic adds (final gap, atomic / wild)",
        ),
        Claim(
            "ablation-gpu-write-lost-updates", "Ablation (§III)",
            lambda fig: fig.get("wild").meta["lost_updates"], at_least(1),
            "wild write-back loses updates (lost updates, wild)",
        ),
        Claim(
            "ablation-gpu-write-atomic-exact", "Ablation (§III)",
            lambda fig: fig.get("atomic").meta["lost_updates"], Band(0, 0),
            "atomic adds lose no update (lost updates, atomic)",
        ),
    ),
    "ablation-aggregation": (
        Claim(
            "ablation-aggregation-adaptive", "Ablation (§IV)",
            final_ratio("adaptive", "averaging"), at_most(1),
            "adaptive aggregation beats averaging (final gap, adaptive / averaging)",
        ),
        Claim(
            "ablation-aggregation-adding-diverges", "Ablation (§IV)",
            final_ratio("averaging", "adding"), below(1e-3),
            "adding (gamma=1) diverges at K=4 (final gap, averaging / adding)",
        ),
    ),
    "ablation-precision": (
        Claim(
            "ablation-precision-fp64", "Ablation (§III)",
            final_ratio("float64", "float32"), at_most(1),
            "fp64 descends at least as far as fp32 (final gap, float64 / float32)",
        ),
    ),
    "ablation-pcie": (
        Claim(
            "ablation-pcie-pinned", "Ablation (§V)", _pageable_penalty, above(1.5),
            "pinned host memory makes the per-epoch transfers cheaper (PCIe seconds, pageable / "
            "pinned)",
        ),
    ),
}

