"""Fault-tolerance experiments: convergence and cost under injected chaos.

The paper's distributed evaluation assumes perfectly synchronous, reliable
workers.  These drivers rerun the Fig. 3/9-style measurements with the
:class:`~repro.cluster.faults.FaultInjector` scenarios installed:

* ``run_fault_tolerance`` — duality gap vs epoch for distributed SCD under
  each named fault scenario, against the fault-free baseline.  The
  degraded-mode engine recomputes the adaptive gamma* over the K' surviving
  updates, so the faulty curves track the clean one instead of stalling.
* ``run_fault_breakdown`` — a Fig. 9-style execution-time breakdown at
  several K including the two fault-only phases (``comm_retry``,
  ``wait_straggler``), showing what a fault scenario costs in wall-clock.

Both use the webspam-like default at K=8 (dual, by-example partitioning) and
a fixed injector seed, so every run is bit-reproducible.
"""

from __future__ import annotations

import numpy as np

from ..cluster.faults import SCENARIOS, make_fault_injector
from ..core.distributed import DistributedSCD
from ..perf.ledger import COMPONENTS
from ..solvers.scd import SequentialKernelFactory
from .claims import Claim, above, at_most
from .config import ScaleConfig, active_scale, epochs, webspam_problem
from .gpu_cluster import COMPONENT_LABELS, network_step
from .results import CurveSeries, FigureResult

__all__ = ["run_fault_tolerance", "run_fault_breakdown", "FAULT_SCENARIOS"]

#: the scenarios the drivers sweep, in presentation order
FAULT_SCENARIOS = (
    "none",
    "straggler-only",
    "lossy-link",
    "worker-dropout",
    "chaos",
)

#: the fixed injector seed the documentation quotes
FAULT_SEED = 42


def _engine(k: int, scenario: str, *, seed: int = 7) -> DistributedSCD:
    return DistributedSCD(
        SequentialKernelFactory(),
        "dual",
        n_workers=k,
        aggregation="adaptive",
        seed=seed,
        faults=make_fault_injector(scenario, seed=FAULT_SEED),
    )


def _select_scenarios(scenario: str | None) -> tuple[str, ...]:
    """One scenario (plus the fault-free baseline) or the full sweep."""
    if scenario is None:
        return FAULT_SCENARIOS
    if scenario not in FAULT_SCENARIOS:
        raise ValueError(
            f"unknown fault scenario {scenario!r}; "
            f"expected one of {list(FAULT_SCENARIOS)}"
        )
    return tuple(dict.fromkeys(("none", scenario)))


def run_fault_tolerance(
    scale: ScaleConfig | None = None, *, scenario: str | None = None
) -> FigureResult:
    """Gap vs epoch under each fault scenario (K=8, dual, adaptive).

    ``scenario`` restricts the sweep to one named scenario against the
    fault-free baseline — the axis ``repro.eval`` configs sweep over.
    """
    scale = scale or active_scale()
    scenarios = _select_scenarios(scenario)
    problem, _ = webspam_problem(scale)
    n_epochs = epochs(30, scale)
    fig = FigureResult(
        figure_id="ext-fault-tolerance",
        title=(
            "Duality gap under injected faults "
            "(K=8, dual, adaptive gamma over survivors)"
        ),
        meta={
            "n_epochs": n_epochs,
            "fault_seed": FAULT_SEED,
            "scenarios": list(scenarios),
        },
    )
    for scenario in scenarios:
        res = _engine(8, scenario).solve(problem, n_epochs)
        fig.add(
            CurveSeries(
                label=scenario,
                x=np.asarray(res.history.epochs, dtype=float),
                y=np.asarray(res.history.gaps),
                x_name="epoch",
                y_name="gap",
                meta={
                    "scenario": scenario,
                    "fault_note": res.fault_report.note(),
                    "fault_seconds": res.ledger.fault_seconds(),
                },
            )
        )
    return fig


def run_fault_breakdown(
    scale: ScaleConfig | None = None, *, scenario: str = "chaos"
) -> FigureResult:
    """Fig. 9-style time breakdown with fault phases (default: chaos)."""
    scale = scale or active_scale()
    if scenario not in FAULT_SCENARIOS:
        raise ValueError(
            f"unknown fault scenario {scenario!r}; "
            f"expected one of {list(FAULT_SCENARIOS)}"
        )
    problem, _ = webspam_problem(scale)
    n_epochs = epochs(20, scale)
    worker_counts = (2, 4, 8)
    fig = FigureResult(
        figure_id="ext-fault-breakdown",
        title=f"Execution-time breakdown under the {scenario!r} scenario (dual)",
        meta={"n_epochs": n_epochs, "scenario": scenario, "fault_seed": FAULT_SEED},
    )
    breakdowns = {}
    for k in worker_counts:
        res = _engine(k, scenario).solve(problem, n_epochs)
        breakdowns[k] = res.ledger.breakdown()
    ks = np.asarray(worker_counts, dtype=float)
    for comp in COMPONENTS:
        ys = np.asarray([breakdowns[k][comp] for k in worker_counts])
        if comp not in ("comm_retry", "wait_straggler") and not ys.any():
            continue  # CPU cluster: skip the all-zero GPU/PCIe rows
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
    fig.notes.append(
        "comm_retry and wait_straggler are the overhead the fault injector "
        "adds on top of the paper's four Fig. 9 phases"
    )
    return fig


def _worst_vs_fault_free(fig: FigureResult) -> float:
    """Worst faulty final gap over the fault-free ("none") final gap."""
    clean = fig.get("none").final()
    return max(s.final() for s in fig.series) / clean


CLAIMS = {
    "ext-fault-tolerance": (
        Claim(
            "ext-fault-tolerance-converges", "Ext. (faults)", _worst_vs_fault_free, at_most(2),
            "survivor-rescaled adaptive aggregation keeps every faulty run converging (worst "
            "final gap / fault-free final gap)",
        ),
    ),
    "ext-fault-breakdown": (
        Claim(
            "ext-fault-breakdown-network-grows", "Ext. (faults) / Fig. 9", network_step, above(0),
            "faults add phases without hiding the Fig. 9 shape: network time still grows with K "
            "(smallest step between neighbours)",
        ),
    ),
}


def scenario_table() -> str:
    """Human-readable table of the named fault scenarios (CLI `faults`)."""
    rows = [
        "scenario         straggler  send-fail  recv-fail  drop   stale  "
        "dropout  disk"
    ]
    for name in sorted(SCENARIOS):
        s = SCENARIOS[name]
        rows.append(
            f"{name:<16} {s.straggler_rate:>9.2f}  {s.send_failure_rate:>9.2f}  "
            f"{s.recv_failure_rate:>9.2f}  {s.drop_rate:>5.2f}  "
            f"{s.stale_rate:>5.2f}  {s.dropout_rate:>7.2f}  "
            f"{s.shard_read_failure_rate:>4.2f}"
        )
    rows.append(
        "\nrates are per worker per epoch; see docs/fault_model.md for the "
        "taxonomy,\nretry policy and survivor-rescaled aggregation math"
    )
    return "\n".join(rows)
