"""SySCD thread-scaling scenario as a registered experiment driver.

One cell trains the bucketed :class:`~repro.solvers.syscd.SySCD` solver at a
given ``(threads, buckets, merge_every)`` setting next to its own
single-thread exact reference, on the same webspam-like problem the paper
figures use.  The figure carries both convergence curves plus the *measured*
(wall-clock) per-epoch times of each path, so a ``repro.eval`` sweep over
``threads`` renders a thread-scaling report straight from the registry
(see ``configs/syscd.toml``).
"""

from __future__ import annotations

import time

import numpy as np

from .claims import Claim, at_most
from .config import ScaleConfig, active_scale, epochs, webspam_problem
from .results import CurveSeries, FigureResult

__all__ = ["run_syscd_scaling"]


def _timed_solve(engine, problem, n_epochs: int) -> float:
    """Mean wall-clock seconds per epoch, monitoring only the final epoch."""
    start = time.perf_counter()
    engine.solve(problem, n_epochs, monitor_every=n_epochs)
    return (time.perf_counter() - start) / n_epochs


def run_syscd_scaling(
    scale: ScaleConfig | None = None,
    *,
    threads: int = 4,
    buckets: int = 0,
    merge_every: int = 1,
) -> FigureResult:
    """SySCD at one parallelism setting vs its exact 1-thread reference.

    ``buckets=0`` means cache-aware automatic bucket sizing (the solver's
    default); any positive value pins the bucket size exactly.
    """
    from ..solvers.syscd import SySCD

    scale = scale or active_scale()
    problem, _ = webspam_problem(scale)
    n_epochs = epochs(20, scale)
    bucket_size = None if buckets in (0, None) else int(buckets)

    reference = SySCD("primal", n_threads=1, seed=0)
    solver = SySCD(
        "primal",
        n_threads=threads,
        bucket_size=bucket_size,
        merge_every=merge_every,
        seed=0,
    )
    ref_result = reference.solve(problem, n_epochs)
    par_result = solver.solve(problem, n_epochs)
    ref_epoch_s = _timed_solve(reference, problem, n_epochs)
    par_epoch_s = _timed_solve(solver, problem, n_epochs)
    measured_speedup = ref_epoch_s / par_epoch_s if par_epoch_s > 0 else 0.0

    fig = FigureResult(
        figure_id="syscd",
        title=(
            f"SySCD thread scaling: {threads} thread(s), "
            f"{'auto' if bucket_size is None else bucket_size}-coordinate "
            f"buckets, merge every {merge_every}"
        ),
        meta={
            "threads": threads,
            "buckets": buckets,
            "merge_every": merge_every,
            "scale": scale.name,
            "backend": solver.factory.backend,
            "ref_epoch_s": ref_epoch_s,
            "par_epoch_s": par_epoch_s,
            "measured_speedup": measured_speedup,
            "final_gap_ref": ref_result.history.final_gap(),
            "final_gap_par": par_result.history.final_gap(),
        },
    )
    for label, result in (
        ("exact reference (1 thread)", ref_result),
        (f"SySCD ({threads} threads)", par_result),
    ):
        records = result.history.records
        fig.add(
            CurveSeries(
                label=label,
                x=np.asarray([r.epoch for r in records], dtype=float),
                y=np.asarray([r.gap for r in records], dtype=float),
                x_name="epoch",
                y_name="duality gap",
            )
        )
    fig.add(
        CurveSeries(
            label="measured s/epoch",
            x=np.asarray([1.0, float(threads)]),
            y=np.asarray([ref_epoch_s, par_epoch_s]),
            x_name="threads",
            y_name="s/epoch (wall-clock)",
        )
    )
    fig.notes.append(
        f"measured wall-clock speedup at {threads} thread(s): "
        f"{measured_speedup:.2f}x over the exact single-thread reference "
        f"on the same kernels (backend: {solver.factory.backend})"
    )
    return fig


#: the measured speed-up is wall-clock and host-dependent, so it is
#: reported, never asserted; the claim is about convergence
CLAIMS = {
    "syscd": (
        Claim(
            "syscd-converges-like-reference", "Scenario (SySCD)",
            lambda fig: fig.meta["final_gap_par"] / fig.meta["final_gap_ref"], at_most(2),
            "bucketed replica-merge SCD converges like the exact sequential reference (final gap, "
            "threaded / 1-thread reference)",
        ),
    ),
}
