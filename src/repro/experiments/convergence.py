"""Figs. 1 and 2 — single-node convergence of all five solver configurations.

Reproduces: duality gap as a function of epochs and of (modelled) training
time for SCD (1 thread), A-SCD (16 threads), PASSCoDe-Wild (16 threads),
TPA-SCD on the Quadro M4000 and TPA-SCD on the GTX Titan X, on the
webspam-like dataset with lambda = 1e-3.  Fig. 1 is the primal form,
Fig. 2 the dual form.

Expected shapes (paper):
* per-epoch convergence of A-SCD and both TPA-SCD runs matches sequential;
* PASSCoDe-Wild plateaus at a nonzero gap (optimality violated);
* time-axis ordering: Titan X < M4000 < Wild < A-SCD < sequential.
"""

from __future__ import annotations

from ..gpu.spec import GTX_TITAN_X, QUADRO_M4000
from ..solvers.base import ScdSolver
from .claims import Band, Claim, above, at_most, below, time_to
from .config import (
    ScaleConfig,
    active_scale,
    async_factory,
    epochs,
    sequential_factory,
    tpa_factory,
    webspam_problem,
)
from .results import CurveSeries, FigureResult

__all__ = ["run_convergence", "run_fig1", "run_fig2", "SOLVER_LABELS"]

SOLVER_LABELS = (
    "SCD (1 thread)",
    "A-SCD (16 threads)",
    "PASSCoDe-Wild (16 threads)",
    "TPA-SCD (M4000)",
    "TPA-SCD (Titan X)",
)


def run_convergence(
    formulation: str, scale: ScaleConfig | None = None, *, seed: int = 0
) -> FigureResult:
    """Run the five-solver convergence comparison for one formulation."""
    scale = scale or active_scale()
    problem, paper = webspam_problem(scale)
    n_epochs = epochs(60 if formulation == "primal" else 16, scale)
    monitor = max(1, n_epochs // 15)

    solvers: list[tuple[str, ScdSolver]] = [
        (
            SOLVER_LABELS[0],
            ScdSolver(sequential_factory(paper, formulation), formulation, seed),
        ),
        (
            SOLVER_LABELS[1],
            ScdSolver(
                async_factory(paper, formulation, write_mode="atomic"),
                formulation,
                seed,
            ),
        ),
        (
            SOLVER_LABELS[2],
            ScdSolver(
                async_factory(paper, formulation, write_mode="wild"),
                formulation,
                seed,
            ),
        ),
        (
            SOLVER_LABELS[3],
            ScdSolver(
                tpa_factory(QUADRO_M4000, paper, formulation, problem),
                formulation,
                seed,
            ),
        ),
        (
            SOLVER_LABELS[4],
            ScdSolver(
                tpa_factory(GTX_TITAN_X, paper, formulation, problem),
                formulation,
                seed,
            ),
        ),
    ]

    fig_id = "fig1" if formulation == "primal" else "fig2"
    fig = FigureResult(
        figure_id=fig_id,
        title=(
            f"Convergence in duality gap, {formulation} ridge regression "
            f"(webspam-like, lambda=1e-3)"
        ),
        meta={"formulation": formulation, "n_epochs": n_epochs, "scale": scale.name},
    )
    for label, solver in solvers:
        res = solver.solve(problem, n_epochs, monitor_every=monitor)
        h = res.history
        fig.add(
            CurveSeries(
                label=f"{label} | epochs",
                x=h.epochs,
                y=h.gaps,
                x_name="epochs",
                y_name="gap",
                meta={"solver": label},
            )
        )
        fig.add(
            CurveSeries(
                label=f"{label} | time",
                x=h.sim_times,
                y=h.gaps,
                x_name="time(s)",
                y_name="gap",
                meta={"solver": label},
            )
        )
    return fig


def run_fig1(scale: ScaleConfig | None = None) -> FigureResult:
    """Fig. 1: primal-form convergence comparison."""
    return run_convergence("primal", scale)


def run_fig2(scale: ScaleConfig | None = None) -> FigureResult:
    """Fig. 2: dual-form convergence comparison."""
    return run_convergence("dual", scale)


# -- claims ------------------------------------------------------------------


def _final(fig: FigureResult, label: str) -> float:
    return fig.get(f"{label} | epochs").final()


def _tracks_sequential(fig: FigureResult) -> float:
    """Worst atomic/GPU final gap over the sequential one."""
    worst = max(
        _final(fig, label) for label in SOLVER_LABELS[1:] if "Wild" not in label
    )
    return worst / max(_final(fig, SOLVER_LABELS[0]), 1e-16)


def _wild_floor(fig: FigureResult) -> float:
    """Sequential final gap over Wild's: small when Wild stalls on a floor."""
    return _final(fig, SOLVER_LABELS[0]) / _final(fig, SOLVER_LABELS[2])


def _time_order(fig: FigureResult) -> float:
    """Smallest step between total times ordered Titan X ... sequential."""
    totals = [fig.get(f"{label} | time").x[-1] for label in SOLVER_LABELS[::-1]]
    return min(b / a for a, b in zip(totals, totals[1:]))


def _speedup(label: str):
    """Time-to-gap speed-up over sequential at 2x its mid-run gap."""

    def measure(fig: FigureResult) -> float:
        seq = fig.get(f"{SOLVER_LABELS[0]} | time")
        eps = seq.y[len(seq.y) // 2] * 2
        return time_to(seq, eps) / time_to(fig.get(f"{label} | time"), eps)

    return measure


CLAIMS = {
    "fig1": (
        Claim(
            "fig1-atomic-tracks-seq", "Fig. 1a", _tracks_sequential, at_most(1e3),
            "A-SCD and both TPA-SCD runs converge per epoch like sequential SCD (worst final gap "
            "/ sequential final gap)",
        ),
        Claim(
            "fig1-wild-floor", "Fig. 1a", _wild_floor, below(1e-2),
            "PASSCoDe-Wild plateaus at a duality-gap floor (sequential final gap / Wild final gap)",
        ),
        Claim(
            "fig1-seq-converges", "Fig. 1a", lambda fig: _final(fig, SOLVER_LABELS[0]), below(1e-6),
            "sequential SCD converges (final duality gap)",
        ),
        Claim(
            "fig1-time-order", "Fig. 1b", _time_order, above(1),
            "total time orders Titan X < M4000 < Wild < A-SCD < sequential (smallest ratio "
            "between neighbours)",
        ),
        Claim(
            "fig1-m4000-speedup", "Fig. 1b", _speedup("TPA-SCD (M4000)"), Band(7, 22),
            "TPA-SCD on the M4000 trains ~14x faster than sequential SCD",
        ),
        Claim(
            "fig1-titanx-speedup", "Fig. 1b", _speedup("TPA-SCD (Titan X)"), Band(18, 45),
            "TPA-SCD on the Titan X trains ~25x faster than sequential SCD",
        ),
    ),
    "fig2": (
        Claim(
            "fig2-atomic-tracks-seq", "Fig. 2a", _tracks_sequential, at_most(1e3),
            "A-SCD and both TPA-SCD runs converge per epoch like sequential SCD (worst final gap "
            "/ sequential final gap)",
        ),
        Claim(
            "fig2-wild-floor", "Fig. 2a", _wild_floor, below(1e-2),
            "PASSCoDe-Wild plateaus at a duality-gap floor (sequential final gap / Wild final gap)",
        ),
        Claim(
            "fig2-time-order", "Fig. 2b", _time_order, above(1),
            "total time orders Titan X < M4000 < Wild < A-SCD < sequential (smallest ratio "
            "between neighbours)",
        ),
        Claim(
            "fig2-m4000-speedup", "Fig. 2b, §I / §VI",
            _speedup("TPA-SCD (M4000)"), Band(7, 18),
            "TPA-SCD on the M4000 trains ~10x faster than sequential SCD",
        ),
        Claim(
            "fig2-titanx-speedup", "Fig. 2b, Abstract",
            _speedup("TPA-SCD (Titan X)"), Band(20, 45),
            "TPA-SCD on the Titan X trains up to 35x faster than sequential SCD",
        ),
    ),
}
