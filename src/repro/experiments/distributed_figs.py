"""Figs. 3-6 — distributed SCD on the CPU cluster (webspam-like data).

* Fig. 3 — duality gap vs epochs for K = 1, 2, 4, 8 workers (averaging
  aggregation): the per-epoch convergence slows roughly linearly in K.
* Fig. 4 — averaging vs adaptive aggregation at K = 8.
* Fig. 5 — the evolution of the optimal aggregation parameter gamma_t; it
  climbs and settles well above the averaging value 1/K.
* Fig. 6 — time to reach duality-gap targets vs K, averaging vs adaptive:
  scale-out keeps training time roughly constant.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.distributed import DistributedSCD
from .claims import Band, Claim, above, at_least, at_most, below, final_ratio, time_to
from .config import (
    ScaleConfig,
    active_scale,
    epochs,
    sequential_factory,
    webspam_problem,
)
from .results import CurveSeries, FigureResult

__all__ = [
    "WORKER_COUNTS",
    "EPS_TARGETS",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "distributed_epoch_budget",
]

WORKER_COUNTS = (1, 2, 4, 8)

#: duality-gap targets for the time-to-epsilon figures (paper values)
EPS_TARGETS = (3e-3, 3e-4, 3e-5)


def distributed_epoch_budget(formulation: str, scale: ScaleConfig) -> int:
    """Epoch budgets mirroring the paper's axes (primal needs more)."""
    return epochs(120 if formulation == "primal" else 40, scale)


def _engine(
    formulation: str,
    n_workers: int,
    aggregation: str,
    paper,
    *,
    seed: int = 3,
) -> DistributedSCD:
    return DistributedSCD(
        sequential_factory(paper, formulation),
        formulation,
        n_workers=n_workers,
        aggregation=aggregation,
        paper_scale=paper,
        seed=seed,
    )


def run_fig3(
    formulation: str = "primal", scale: ScaleConfig | None = None
) -> FigureResult:
    """Fig. 3: distributed convergence vs epochs for growing K."""
    scale = scale or active_scale()
    problem, paper = webspam_problem(scale)
    n_epochs = distributed_epoch_budget(formulation, scale)
    monitor = max(1, n_epochs // 20)
    fig = FigureResult(
        figure_id=f"fig3-{formulation}",
        title=f"Distributed SCD convergence ({formulation}, averaging)",
        meta={"formulation": formulation, "n_epochs": n_epochs, "scale": scale.name},
    )
    for k in WORKER_COUNTS:
        res = _engine(formulation, k, "averaging", paper).solve(
            problem, n_epochs, monitor_every=monitor
        )
        fig.add(
            CurveSeries(
                label=f"{k} Worker{'s' if k > 1 else ''}",
                x=res.history.epochs,
                y=res.history.gaps,
                x_name="epochs",
                y_name="gap",
                meta={"n_workers": k},
            )
        )
    return fig


def run_fig4(
    formulation: str = "primal", scale: ScaleConfig | None = None
) -> FigureResult:
    """Fig. 4: averaging vs adaptive aggregation at K = 8."""
    scale = scale or active_scale()
    problem, paper = webspam_problem(scale)
    n_epochs = distributed_epoch_budget(formulation, scale)
    monitor = max(1, n_epochs // 20)
    fig = FigureResult(
        figure_id=f"fig4-{formulation}",
        title=f"Adaptive vs averaging aggregation, K=8 ({formulation})",
        meta={"formulation": formulation, "n_epochs": n_epochs, "scale": scale.name},
    )
    for agg, label in (
        ("averaging", "Averaging Aggregation"),
        ("adaptive", "Adaptive Aggregation"),
    ):
        res = _engine(formulation, 8, agg, paper).solve(
            problem, n_epochs, monitor_every=monitor
        )
        fig.add(
            CurveSeries(
                label=label,
                x=res.history.epochs,
                y=res.history.gaps,
                x_name="epochs",
                y_name="gap",
                meta={"aggregation": agg},
            )
        )
    return fig


def run_fig5(
    formulation: str = "primal", scale: ScaleConfig | None = None
) -> FigureResult:
    """Fig. 5: evolution of the optimal aggregation parameter gamma_t."""
    scale = scale or active_scale()
    problem, paper = webspam_problem(scale)
    n_epochs = epochs(80 if formulation == "primal" else 25, scale)
    fig = FigureResult(
        figure_id=f"fig5-{formulation}",
        title=f"Optimal aggregation parameter evolution ({formulation})",
        meta={"formulation": formulation, "n_epochs": n_epochs, "scale": scale.name},
    )
    for k in WORKER_COUNTS:
        res = _engine(formulation, k, "adaptive", paper).solve(
            problem, n_epochs, monitor_every=1
        )
        gammas = np.asarray(res.gammas)
        # once the run is fully converged the updates vanish and gamma* is a
        # 0/0 ratio; report the gamma where the run is still meaningfully
        # optimizing (first epoch below a small-but-not-converged gap) as the
        # "settled" value the paper's Fig. 5 plateaus at
        settle_epoch = res.history.epochs_to_gap(1e-6)
        if not np.isfinite(settle_epoch):
            settle_epoch = gammas.shape[0]
        settled = float(gammas[min(int(settle_epoch), gammas.shape[0]) - 1])
        fig.add(
            CurveSeries(
                label=f"{k} Worker{'s' if k > 1 else ''}",
                x=np.arange(1, gammas.shape[0] + 1),
                y=gammas,
                x_name="epochs",
                y_name="gamma",
                meta={
                    "n_workers": k,
                    "averaging_value": 1.0 / k,
                    "settled_gamma": settled,
                },
            )
        )
    return fig


def run_fig6(
    formulation: str = "primal", scale: ScaleConfig | None = None
) -> FigureResult:
    """Fig. 6: time to reach gap targets vs number of workers."""
    scale = scale or active_scale()
    problem, paper = webspam_problem(scale)
    base_epochs = distributed_epoch_budget(formulation, scale)
    fig = FigureResult(
        figure_id=f"fig6-{formulation}",
        title=f"Time to reach duality gap vs workers ({formulation})",
        meta={"formulation": formulation, "base_epochs": base_epochs, "scale": scale.name},
    )
    eps_min = min(EPS_TARGETS)
    for agg, label in (("averaging", "Averaging"), ("adaptive", "Adaptive")):
        histories = {}
        for k in WORKER_COUNTS:
            # convergence in epochs slows ~linearly in K (Fig. 3), so the
            # epoch cap scales with K to let every run reach the targets
            res = _engine(formulation, k, agg, paper).solve(
                problem, base_epochs * k, monitor_every=2, target_gap=eps_min
            )
            histories[k] = res.history
        for eps in EPS_TARGETS:
            fig.add(
                CurveSeries(
                    label=f"{label} eps={eps:g}",
                    x=np.asarray(WORKER_COUNTS, dtype=float),
                    y=np.asarray(
                        [histories[k].time_to_gap(eps) for k in WORKER_COUNTS]
                    ),
                    x_name="workers",
                    y_name="time(s)",
                    meta={"aggregation": agg, "eps": eps},
                )
            )
    return fig


# -- claims ------------------------------------------------------------------


def _finals(fig: FigureResult) -> list[float]:
    return [s.final() for s in fig.series]


def _fig3_slowdown(fig: FigureResult) -> float:
    """Epochs K=8 needs over K=1's, to the geometric mid-target."""
    first, last = fig.series[0], fig.series[-1]
    eps = np.sqrt(max(last.final(), 1e-14) * first.y[0])
    return time_to(last, eps) / time_to(first, eps)


def _fig3_monotone(fig: FigureResult) -> float:
    """Largest final-gap drop from one K to the next (fp floor 1e-15)."""
    finals = _finals(fig)
    return max(a / max(b, 1e-15) for a, b in zip(finals, finals[1:]))


def _fig3_converges(fig: FigureResult) -> float:
    return max(_finals(fig)) / fig.series[0].y[0]


_fig4_final = final_ratio("Adaptive Aggregation", "Averaging Aggregation")


def _fig4_epochs(fig: FigureResult) -> float:
    """Epoch speed-up of adaptive to 2x averaging's final gap."""
    avg, ada = fig.get("Averaging Aggregation"), fig.get("Adaptive Aggregation")
    eps = max(avg.final() * 2, 1e-14)
    return time_to(avg, eps) / time_to(ada, eps)


def _fig5_settled(fig: FigureResult) -> float:
    """Smallest settled gamma * K over K > 1 (nan if any gamma is not finite)."""
    if not all(np.isfinite(s.y).all() for s in fig.series):
        return math.nan
    return min(
        s.meta["settled_gamma"] * s.meta["n_workers"]
        for s in fig.series
        if s.meta["n_workers"] > 1
    )


def _fig5_gamma(fig: FigureResult, k: int) -> float:
    return next(
        s.meta["settled_gamma"] for s in fig.series if s.meta["n_workers"] == k
    )


def _fig6_flat(fig: FigureResult) -> float:
    """Worst time-to-target at any K over the same curve's K=1 time."""
    return max(float(np.max(s.y / s.y[0])) for s in fig.series)


def _fig6_adaptive(fig: FigureResult) -> float:
    """Worst adaptive / averaging time-to-target at K=8 over the targets."""
    return max(
        fig.get(f"Adaptive eps={eps:g}").y[-1]
        / fig.get(f"Averaging eps={eps:g}").y[-1]
        for eps in EPS_TARGETS
    )


CLAIMS = {
    "fig3-primal": (
        Claim(
            "fig3-primal-converges", "Fig. 3a", _fig3_converges, below(1),
            "distributed SCD converges at every K (worst final gap / initial gap)",
        ),
        Claim(
            "fig3-primal-monotone", "Fig. 3a", _fig3_monotone, at_most(1.5),
            "per-epoch convergence degrades with K (largest final-gap ratio K / next K)",
        ),
        Claim(
            "fig3-primal-slowdown", "Fig. 3a", _fig3_slowdown, above(1),
            "approximately linear slow-down in epochs with K (epochs to the mid-target, K=8 / K=1)",
        ),
    ),
    "fig3-dual": (
        Claim(
            "fig3-dual-converges", "Fig. 3b", _fig3_converges, below(1),
            "distributed SCD converges at every K (worst final gap / initial gap)",
        ),
        Claim(
            "fig3-dual-monotone", "Fig. 3b", _fig3_monotone, at_most(1.5),
            "per-epoch convergence degrades with K (largest final-gap ratio K / next K)",
        ),
        Claim(
            "fig3-dual-slowdown", "Fig. 3b", _fig3_slowdown, above(1),
            "approximately linear slow-down in epochs with K (epochs to the mid-target, K=8 / K=1)",
        ),
    ),
    "fig4-primal": (
        Claim(
            "fig4-primal-adaptive-final", "Fig. 4a", _fig4_final, at_most(1),
            "adaptive aggregation is never worse than averaging (final gap, adaptive / averaging)",
        ),
        Claim(
            "fig4-primal-adaptive-epochs", "Fig. 4a", _fig4_epochs, at_least(1),
            "adaptive aggregation reaches small gaps in up to ~2x fewer epochs (epochs to 2x "
            "averaging's final gap, averaging / adaptive)",
        ),
    ),
    "fig4-dual": (
        Claim(
            "fig4-dual-adaptive-final", "Fig. 4b", _fig4_final, at_most(1),
            "adaptive aggregation is never worse than averaging (final gap, adaptive / averaging)",
        ),
        Claim(
            "fig4-dual-adaptive-epochs", "Fig. 4b", _fig4_epochs, at_least(1),
            "adaptive aggregation reaches small gaps in ~1.2x fewer epochs (epochs to 2x "
            "averaging's final gap, averaging / adaptive)",
        ),
    ),
    "fig5-primal": (
        Claim(
            "fig5-primal-lone-worker", "Fig. 5a",
            lambda fig: _fig5_gamma(fig, 1), Band(0.7, 1.6, strict=True),
            "a lone worker's optimal step is the full update (settled gamma, K=1)",
        ),
        Claim(
            "fig5-primal-above-averaging", "Fig. 5a", _fig5_settled, above(1.2),
            "gamma stays finite and settles significantly above the averaging value 1/K (smallest "
            "settled gamma * K, K > 1)",
        ),
        Claim(
            "fig5-primal-shrinks-with-k", "Fig. 5a",
            lambda fig: _fig5_gamma(fig, 8) / _fig5_gamma(fig, 1), below(1),
            "larger clusters settle at smaller gamma (settled gamma, K=8 / K=1)",
        ),
    ),
    "fig5-dual": (
        Claim(
            "fig5-dual-lone-worker", "Fig. 5b",
            lambda fig: _fig5_gamma(fig, 1), Band(0.7, 1.6, strict=True),
            "a lone worker's optimal step is the full update (settled gamma, K=1)",
        ),
        Claim(
            "fig5-dual-above-averaging", "Fig. 5b", _fig5_settled, above(1.2),
            "gamma stays finite and settles significantly above the averaging value 1/K (smallest "
            "settled gamma * K, K > 1)",
        ),
        Claim(
            "fig5-dual-shrinks-with-k", "Fig. 5b",
            lambda fig: _fig5_gamma(fig, 8) / _fig5_gamma(fig, 1), below(1),
            "larger clusters settle at smaller gamma (settled gamma, K=8 / K=1)",
        ),
    ),
    "fig6-primal": (
        Claim(
            "fig6-primal-flat", "Fig. 6a", _fig6_flat, at_most(3),
            "scaling out keeps training time roughly constant: every target reached at every K "
            "(worst time / the curve's K=1 time)",
        ),
        Claim(
            "fig6-primal-adaptive", "Fig. 6a", _fig6_adaptive, at_most(1.2),
            "adaptive is at least as fast as averaging at K=8 (worst time-to-target, adaptive / "
            "averaging)",
        ),
    ),
    "fig6-dual": (
        Claim(
            "fig6-dual-flat", "Fig. 6b", _fig6_flat, at_most(3),
            "scaling out keeps training time roughly constant: every target reached at every K "
            "(worst time / the curve's K=1 time)",
            scale="quick",
        ),
        Claim(
            "fig6-dual-adaptive", "Fig. 6b", _fig6_adaptive, at_most(1.2),
            "adaptive is at least as fast as averaging at K=8 (worst time-to-target, adaptive / "
            "averaging)",
        ),
    ),
}
