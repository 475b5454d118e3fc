"""Elastic cluster membership as a registered experiment driver.

One cell trains the same seeded problem twice through the synchronous
ClusterRuntime: once with a fixed K-worker pool, once with an elastic pool
that loses a rank mid-run and gains one back later (plus, optionally, a
load-rebalance cadence under straggler faults).  The figure carries both
duality-gap trajectories and a membership timeline; its claim is that the
elastic run's final gap stays within 2x of the fixed-membership run on the
same seed.  ``configs/elastic.toml`` sweeps this driver through the eval
front door, which fails on the claim.
"""

from __future__ import annotations

import numpy as np

from ..cluster.faults import FaultSpec
from ..cluster.membership import MembershipSchedule
from ..core.distributed import DistributedSCD
from ..solvers.scd import SequentialKernelFactory
from .claims import Claim, at_most
from .config import ScaleConfig, active_scale, epochs, webspam_problem
from .results import CurveSeries, FigureResult

__all__ = ["run_elastic"]


def run_elastic(
    scale: ScaleConfig | None = None,
    *,
    workers: int = 4,
    comm: str = "sync",
    rebalance_every: int = 0,
    seed: int = 3,
) -> FigureResult:
    """Fixed vs elastic membership on the same problem and seed.

    The elastic schedule loses one rank a third of the way in and regains
    one at two thirds — the departure exercises survivor-rescaled
    aggregation and shard-aligned repartitioning, the join exercises
    state-preserving scale-up.  ``comm="async"`` runs the same comparison
    through the asynchronous parameter-server backend;
    ``rebalance_every > 0`` adds straggler faults so the load balancer has
    an imbalance to chase.
    """
    scale = scale or active_scale()
    problem, paper = webspam_problem(scale)
    n_epochs = max(6, epochs(30, scale))
    leave_at = max(2, n_epochs // 3)
    join_at = max(leave_at + 1, (2 * n_epochs) // 3)
    schedule = MembershipSchedule(
        [(leave_at, "leave"), (join_at, "join")]
    )
    faults = (
        FaultSpec(straggler_rate=0.4, straggler_multiplier=6.0, seed=seed)
        if rebalance_every
        else None
    )
    common: dict = dict(
        n_workers=workers,
        paper_scale=paper,
        seed=seed,
        faults=faults,
    )
    if comm == "async":
        common.update(comm="async", batch_fraction=1 / 16)
    results = {}
    for label, extra in (
        ("fixed membership", {}),
        (
            "elastic (leave@%d, join@%d)" % (leave_at, join_at),
            dict(membership=schedule, rebalance_every=rebalance_every),
        ),
    ):
        eng = DistributedSCD(
            SequentialKernelFactory(), "dual", **common, **extra
        )
        with np.errstate(over="ignore", invalid="ignore"):
            results[label] = eng.solve(problem, n_epochs, monitor_every=1)

    (fixed_label, fixed), (elastic_label, elastic) = results.items()
    fixed_gap = fixed.history.final_gap()
    elastic_gap = elastic.history.final_gap()
    log = elastic.membership_log
    fig = FigureResult(
        figure_id="elastic",
        title=(
            f"Elastic membership, K={workers} ({comm}): one departure, "
            "one join, same seed"
        ),
        meta={
            "workers": workers,
            "comm": comm,
            "rebalance_every": rebalance_every,
            "seed": seed,
            "scale": scale.name,
            "n_epochs": n_epochs,
            "leave_epoch": leave_at,
            "join_epoch": join_at,
            "final_gap_fixed": fixed_gap,
            "final_gap_elastic": elastic_gap,
            "gap_ratio": (elastic_gap / fixed_gap) if fixed_gap else float("inf"),
            "membership_changes": len(log),
            "rebalances": sum(1 for r in log if r.rebalanced),
        },
    )
    for label, res in results.items():
        records = res.history.records
        fig.add(
            CurveSeries(
                label=label,
                x=np.asarray([r.epoch for r in records], dtype=float),
                y=np.asarray([r.gap for r in records], dtype=float),
                x_name="epoch",
                y_name="duality gap",
            )
        )
    if log:
        fig.add(
            CurveSeries(
                label="cluster size",
                x=np.asarray(
                    [0.0] + [float(r.epoch) for r in log], dtype=float
                ),
                y=np.asarray(
                    [float(log[0].k_before)]
                    + [float(r.k_after) for r in log],
                    dtype=float,
                ),
                x_name="epoch",
                y_name="workers",
            )
        )
    for r in log:
        fig.notes.append(
            f"epoch {r.epoch}: {r.k_before}->{r.k_after} workers "
            f"(+{r.joins}/-{r.leaves}, evicted {r.evictions}"
            + (", rebalanced" if r.rebalanced else "")
            + ")"
        )
    return fig


CLAIMS = {
    "elastic": (
        Claim(
            "elastic-within-2x", "Scenario (elastic)",
            lambda fig: fig.meta["gap_ratio"], at_most(2),
            "one departure and one join cost at most 2x in final duality gap (final gap, elastic "
            "/ fixed membership)",
        ),
    ),
}
