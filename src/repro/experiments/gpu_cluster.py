"""Figs. 8 and 9 — distributed TPA-SCD across GPU clusters (Section V).

* Fig. 8 — time to reach duality-gap targets vs K for distributed SCD
  (1-thread CPU local solvers) and distributed TPA-SCD, on (a) a cluster of
  Quadro M4000s over 10 GbE and (b) GTX Titan Xs in one box over PCIe.
* Fig. 9 — the execution-time breakdown (GPU compute / host compute / PCIe /
  network) on the M4000 cluster at target gap 1e-5.

Both solve the dual formulation with the data partitioned by example, as in
the paper.
"""

from __future__ import annotations

import numpy as np

from ..core.distributed import DistributedSCD
from ..gpu.spec import GTX_TITAN_X, QUADRO_M4000, GpuSpec
from ..perf.ledger import COMPONENTS, PAPER_COMPONENTS
from ..perf.link import ETHERNET_10G, PCIE3_X16_PINNED, Link
from .claims import Band, Claim, above, at_least, below
from .config import (
    ScaleConfig,
    active_scale,
    epochs,
    sequential_factory,
    tpa_factory,
    webspam_problem,
)
from .distributed_figs import EPS_TARGETS, WORKER_COUNTS
from .results import CurveSeries, FigureResult

__all__ = ["run_fig8", "run_fig9", "COMPONENT_LABELS"]

COMPONENT_LABELS = {
    "compute_gpu": "Comp. Time (GPU)",
    "compute_host": "Comp. Time (Host)",
    "comm_pcie": "Comm. Time (PCIe)",
    "comm_network": "Comm. Time (Network)",
    "comm_retry": "Comm. Time (Retry)",
    "wait_straggler": "Wait Time (Straggler)",
    "shard_stream": "Stream Time (Shards)",
    "shard_retry": "Stream Time (Retry)",
}


def _tpa_engine(
    spec: GpuSpec,
    network: Link,
    n_workers: int,
    problem,
    paper,
    *,
    aggregation: str = "averaging",
    seed: int = 3,
) -> DistributedSCD:
    return DistributedSCD(
        lambda rank: tpa_factory(
            spec, paper, "dual", problem, n_workers=n_workers
        ),
        "dual",
        n_workers=n_workers,
        aggregation=aggregation,
        network=network,
        pcie=spec and PCIE3_X16_PINNED,
        paper_scale=paper,
        seed=seed,
    )


def run_fig8(
    cluster: str = "m4000", scale: ScaleConfig | None = None
) -> FigureResult:
    """Fig. 8: distributed SCD vs distributed TPA-SCD scaling (dual form).

    ``cluster`` selects ``"m4000"`` (8x M4000 over 10 GbE, Fig. 8a) or
    ``"titanx"`` (Titan Xs over PCIe in one machine, Fig. 8b).
    """
    scale = scale or active_scale()
    if cluster == "m4000":
        spec, network = QUADRO_M4000, ETHERNET_10G
    elif cluster == "titanx":
        spec, network = GTX_TITAN_X, PCIE3_X16_PINNED
    else:
        raise ValueError(f"unknown cluster {cluster!r}")
    problem, paper = webspam_problem(scale)
    base_epochs = epochs(40, scale)
    eps_min = min(EPS_TARGETS)

    fig = FigureResult(
        figure_id=f"fig8-{cluster}",
        title=f"Scaling out dual ridge regression on the {spec.name} cluster",
        meta={"cluster": cluster, "scale": scale.name},
    )
    histories: dict[tuple[str, int], object] = {}
    for k in WORKER_COUNTS:
        # epoch caps scale with K: per-epoch convergence slows ~linearly in K
        scd = DistributedSCD(
            sequential_factory(paper, "dual"),
            "dual",
            n_workers=k,
            aggregation="averaging",
            network=network,
            paper_scale=paper,
            seed=3,
        )
        histories[("SCD", k)] = scd.solve(
            problem, base_epochs * k, monitor_every=2, target_gap=eps_min
        ).history
        tpa = _tpa_engine(spec, network, k, problem, paper)
        histories[("TPA-SCD", k)] = tpa.solve(
            problem, base_epochs * k, monitor_every=2, target_gap=eps_min
        ).history

    ks = np.asarray(WORKER_COUNTS, dtype=float)
    for solver in ("SCD", "TPA-SCD"):
        for eps in EPS_TARGETS:
            fig.add(
                CurveSeries(
                    label=f"{solver} eps={eps:g}",
                    x=ks,
                    y=np.asarray(
                        [
                            histories[(solver, k)].time_to_gap(eps)
                            for k in WORKER_COUNTS
                        ]
                    ),
                    x_name="workers",
                    y_name="time(s)",
                    meta={"solver": solver, "eps": eps},
                )
            )
    return fig


def run_fig9(scale: ScaleConfig | None = None) -> FigureResult:
    """Fig. 9: computation vs communication breakdown, M4000 cluster."""
    scale = scale or active_scale()
    problem, paper = webspam_problem(scale)
    base_epochs = epochs(40, scale)
    target = 1e-5
    fig = FigureResult(
        figure_id="fig9",
        title="Computation vs communication on the M4000 cluster (dual, gap 1e-5)",
        meta={"target_gap": target, "scale": scale.name},
    )
    breakdowns = {}
    for k in WORKER_COUNTS:
        eng = _tpa_engine(QUADRO_M4000, ETHERNET_10G, k, problem, paper)
        res = eng.solve(
            problem, base_epochs * k, monitor_every=2, target_gap=target
        )
        breakdowns[k] = res.ledger.breakdown()
    ks = np.asarray(WORKER_COUNTS, dtype=float)
    for comp in COMPONENTS:
        ys = np.asarray([breakdowns[k][comp] for k in WORKER_COUNTS])
        if comp not in PAPER_COMPONENTS and not ys.any():
            continue  # fault-free in-memory run: keep the paper's four phases
        fig.add(
            CurveSeries(
                label=COMPONENT_LABELS[comp],
                x=ks,
                y=ys,
                x_name="workers",
                y_name="time(s)",
                meta={"component": comp},
            )
        )
    return fig


# -- claims ------------------------------------------------------------------


def _fig8_speedup(fig: FigureResult) -> float:
    """Smallest SCD / TPA-SCD time over every (target, K) both reach."""
    ratios = []
    for eps in EPS_TARGETS:
        scd = fig.get(f"SCD eps={eps:g}").y
        tpa = fig.get(f"TPA-SCD eps={eps:g}").y
        both = np.isfinite(scd) & np.isfinite(tpa)
        ratios.append(np.min(scd[both] / tpa[both]) if both.any() else np.nan)
    return float(np.min(ratios))


def _fig8_flat(fig: FigureResult) -> float:
    loose = fig.get(f"TPA-SCD eps={EPS_TARGETS[0]:g}").y
    return float(loose.max() / loose.min())


def _fig9_network(fig: FigureResult) -> np.ndarray:
    return fig.get(COMPONENT_LABELS["comm_network"]).y


def network_step(fig: FigureResult) -> float:
    """Smallest growth of network time from one worker count to the next."""
    return float(np.diff(_fig9_network(fig)).min())


def _fig9_shares(fig: FigureResult) -> tuple[np.ndarray, np.ndarray]:
    """(GPU compute share, communication share) of total time, per K."""
    gpu, host, pcie, net = (
        fig.get(COMPONENT_LABELS[c]).y for c in PAPER_COMPONENTS
    )
    total = gpu + host + pcie + net
    return gpu / total, (pcie + net) / total


CLAIMS = {
    "fig8-m4000": (
        Claim(
            "fig8-m4000-speedup", "Fig. 8a", _fig8_speedup, at_least(5),
            "distributed TPA-SCD sits ~10x below distributed SCD on the M4000 cluster (smallest "
            "SCD / TPA-SCD time-to-target)",
        ),
        Claim(
            "fig8-m4000-flat", "Fig. 8a", _fig8_flat, below(6),
            "TPA-SCD scales flat-ish (loosest target, slowest K / fastest K)",
        ),
    ),
    "fig8-titanx": (
        Claim(
            "fig8-titanx-speedup", "Fig. 8b", _fig8_speedup, at_least(15),
            "distributed TPA-SCD sits ~30x below distributed SCD on the Titan X cluster (smallest "
            "SCD / TPA-SCD time-to-target)",
        ),
        Claim(
            "fig8-titanx-flat", "Fig. 8b", _fig8_flat, below(6),
            "TPA-SCD scales flat-ish (loosest target, slowest K / fastest K)",
        ),
    ),
    "fig9": (
        Claim(
            "fig9-gpu-dominates", "Fig. 9", lambda fig: _fig9_shares(fig)[0].min(), above(0.5),
            "GPU compute dominates total time at every K (smallest GPU share)",
        ),
        Claim(
            "fig9-comm-minority", "Fig. 9", lambda fig: _fig9_shares(fig)[1].max(), below(0.45),
            "communication stays a minority, ~17% at K=8 (largest share)",
        ),
        Claim(
            "fig9-no-network-at-k1", "Fig. 9", lambda fig: _fig9_network(fig)[0], Band(0, 0),
            "a single worker makes no network hop (network time at K=1)",
        ),
        Claim(
            "fig9-network-grows", "Fig. 9", network_step, above(0),
            "network time grows with K (smallest step between neighbours)",
        ),
    ),
}
