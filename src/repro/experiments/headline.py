"""Headline speed-up table (abstract / Sections I and VI).

The paper's summary numbers:

* TPA-SCD on a single GPU trains up to **35x** faster than single-threaded
  CPU SCD (Titan X, dual form; 25x primal; M4000 14x primal / 10x dual);
* **~2x** for A-SCD and **~4x** for PASSCoDe-Wild over sequential;
* distributed TPA-SCD on 4 GPUs is **~20x** faster than the distributed
  16-thread CPU implementation and **~40x** faster than distributed
  single-thread SCD on the criteo sample.

This driver measures the same ratios from the reproduction runs and emits
them as a table (one series per row group).
"""

from __future__ import annotations

import math

import numpy as np

from .claims import Band, Claim, time_to
from .config import ScaleConfig, active_scale
from .convergence import SOLVER_LABELS, run_convergence
from .large_scale import run_fig10
from .results import CurveSeries, FigureResult

__all__ = ["run_headline", "PAPER_SPEEDUPS"]

#: paper-reported speedup factors, for side-by-side comparison
PAPER_SPEEDUPS = {
    "A-SCD (16 threads)": 2.0,
    "PASSCoDe-Wild (16 threads)": 4.0,
    "TPA-SCD (M4000)": 10.0,
    "TPA-SCD (Titan X)": 35.0,
    "dist TPA-SCD vs dist SCD (K=4)": 40.0,
    "dist TPA-SCD vs dist PASSCoDe (K=4)": 20.0,
}


def run_headline(scale: ScaleConfig | None = None) -> FigureResult:
    """Measure the headline speed-ups on the dual webspam-like problem."""
    scale = scale or active_scale()
    fig2 = run_convergence("dual", scale)

    # pick a target every converging solver comfortably reaches: the
    # sequential curve's gap ~60% of the way through its run (the atomic
    # solvers track it per-epoch but with some jitter, so the very last
    # point would be too tight a target; Wild is handled separately below)
    seq = fig2.get(f"{SOLVER_LABELS[0]} | time")
    mid = max(1, int(0.6 * (len(seq.y) - 1)))
    eps = float(seq.y[mid]) * 2.0

    rows: list[tuple[str, float, float]] = []
    for label in SOLVER_LABELS[1:]:
        curve = fig2.get(f"{label} | time")
        target = eps
        if "Wild" in label:
            # Wild plateaus above the others' target; the paper's 4x is
            # measured at gap levels above its floor, so compare at the
            # smallest gap Wild itself attains
            target = float(np.nanmin(curve.y[1:])) * 1.5
        t_new = time_to(curve, target)
        t_seq_at = time_to(seq, target)
        measured = (
            t_seq_at / t_new if math.isfinite(t_new) and t_new > 0 else 0.0
        )
        rows.append((label, measured, PAPER_SPEEDUPS.get(label, math.nan)))

    fig10 = run_fig10(scale)
    tpa = fig10.get("TPA-SCD (Titan X)")
    wild = fig10.get("PASSCoDe (16 threads)")
    scd = fig10.get("SCD (1 thread)")
    # measure where Wild is still descending: its own best (final) gap x2
    eps10 = float(np.nanmin(wild.y[1:])) * 2.0
    t_tpa = time_to(tpa, eps10)
    t_wild = time_to(wild, eps10)
    t_scd = time_to(scd, eps10)
    rows.append(
        (
            "dist TPA-SCD vs dist SCD (K=4)",
            (t_scd / t_tpa) if math.isfinite(t_scd) and t_tpa > 0 else 0.0,
            PAPER_SPEEDUPS["dist TPA-SCD vs dist SCD (K=4)"],
        )
    )
    rows.append(
        (
            "dist TPA-SCD vs dist PASSCoDe (K=4)",
            (t_wild / t_tpa) if math.isfinite(t_wild) and t_tpa > 0 else 0.0,
            PAPER_SPEEDUPS["dist TPA-SCD vs dist PASSCoDe (K=4)"],
        )
    )

    fig = FigureResult(
        figure_id="headline",
        title="Headline training-time speedups vs paper",
        meta={"eps_dual": eps, "eps_criteo": eps10, "scale": scale.name},
    )
    labels = [r[0] for r in rows]
    fig.add(
        CurveSeries(
            label="measured speedup",
            x=np.arange(len(rows), dtype=float),
            y=np.asarray([r[1] for r in rows]),
            x_name="row",
            y_name="speedup",
            meta={"rows": labels},
        )
    )
    fig.add(
        CurveSeries(
            label="paper speedup",
            x=np.arange(len(rows), dtype=float),
            y=np.asarray([r[2] for r in rows]),
            x_name="row",
            y_name="speedup",
            meta={"rows": labels},
        )
    )
    for name, measured, paper_val in rows:
        fig.notes.append(
            f"{name}: measured {measured:.1f}x, paper {paper_val:.0f}x"
        )
    return fig


def _row(name: str):
    """The measured speed-up of one headline row."""

    def measure(fig: FigureResult) -> float:
        measured = fig.get("measured speedup")
        return float(measured.y[measured.meta["rows"].index(name)])

    return measure


CLAIMS = {
    "headline": (
        Claim(
            "headline-ascd", "§I / §VI", _row("A-SCD (16 threads)"), Band(1.4, 3.0),
            "A-SCD (16 threads) trains ~2x faster than sequential SCD",
        ),
        Claim(
            "headline-wild", "§I / §VI", _row("PASSCoDe-Wild (16 threads)"), Band(2.5, 6.0),
            "PASSCoDe-Wild (16 threads) trains ~4x faster than sequential SCD",
        ),
        Claim(
            "headline-dist-vs-scd", "§I / §VI, Fig. 10",
            _row("dist TPA-SCD vs dist SCD (K=4)"), Band(25.0, 70.0),
            "distributed TPA-SCD (K=4) is ~40x faster than distributed single-thread SCD",
        ),
        Claim(
            "headline-dist-vs-passcode", "Abstract, Fig. 10",
            _row("dist TPA-SCD vs dist PASSCoDe (K=4)"), Band(8.0, 30.0),
            "distributed TPA-SCD (K=4) is ~20x faster than distributed 16-thread PASSCoDe",
            scale="quick",
        ),
    ),
}
