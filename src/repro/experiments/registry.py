"""The single experiment-driver registry.

Every figure, ablation, extension, and scenario driver registers here once,
with the metadata the orchestration layers need:

* the public ``driver_id`` (``fig1``, ``ext-fault-tolerance``, ``serving``),
* a one-line title for reports and listings,
* the callable (``fn(scale=None, **params) -> FigureResult``),
* the *sweepable* keyword parameters the driver accepts beyond ``scale`` —
  the axes a ``repro.eval`` config may put in its ``[matrix]``,
* the paper claims its figure reproduces (:mod:`repro.experiments.claims`),
  declared in the driver's module and checked by :meth:`DriverSpec.check`.

Both the ``repro.eval`` subsystem and ``tools/generate_experiments_md.py``
discover drivers from this table (and the CLI's ``ALL_EXPERIMENTS`` mapping
is derived from it), so adding a driver means one :func:`register` call —
not another bespoke import site in every orchestration script.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .claims import Claim, Verdict
from .results import FigureResult

__all__ = [
    "DriverSpec",
    "REGISTRY",
    "register",
    "get_driver",
    "driver",
    "driver_ids",
    "run_driver",
]


@dataclass(frozen=True)
class DriverSpec:
    """One registered experiment driver and its sweepable surface."""

    driver_id: str
    title: str
    fn: Callable[..., FigureResult] = field(repr=False)
    #: grouping used by listings: figure | ablation | extension | scenario
    kind: str = "figure"
    #: keyword parameters (beyond ``scale``) a sweep axis may bind
    params: tuple[str, ...] = ()
    #: the paper claims the driver's figure must reproduce
    claims: tuple[Claim, ...] = ()

    def check(self, figure: FigureResult, scale: str) -> tuple[Verdict, ...]:
        """One verdict per declared claim on ``figure``, run at ``scale``."""
        return tuple(claim.verdict(figure, scale) for claim in self.claims)

    def run(self, scale=None, **params) -> FigureResult:
        """Invoke the driver, rejecting parameters it never declared."""
        unknown = sorted(set(params) - set(self.params))
        if unknown:
            raise TypeError(
                f"driver {self.driver_id!r} does not accept parameter(s) "
                f"{unknown}; declared sweepable params: {list(self.params)}"
            )
        return self.fn(scale, **params)


#: driver_id -> spec, in registration (presentation) order
REGISTRY: dict[str, DriverSpec] = {}


def register(
    driver_id: str,
    title: str,
    fn: Callable[..., FigureResult],
    *,
    kind: str = "figure",
    params: tuple[str, ...] = (),
    claims: tuple[Claim, ...] = (),
) -> DriverSpec:
    """Register one driver; duplicate ids are a programming error."""
    if driver_id in REGISTRY:
        raise ValueError(f"driver {driver_id!r} is already registered")
    spec = DriverSpec(
        driver_id, title, fn, kind=kind, params=params, claims=tuple(claims)
    )
    REGISTRY[driver_id] = spec
    return spec


def unregister(driver_id: str) -> None:
    """Remove a registered driver (test scaffolding)."""
    REGISTRY.pop(driver_id, None)


def get_driver(driver_id: str) -> DriverSpec:
    """Resolve ``driver_id`` or fail with the list of known ids."""
    try:
        return REGISTRY[driver_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment driver {driver_id!r}; known drivers: "
            f"{', '.join(sorted(REGISTRY))}"
        ) from None


def driver(driver_id: str) -> Callable[..., FigureResult]:
    """The bare callable for ``driver_id`` (benchmarks use this)."""
    return get_driver(driver_id).fn


def driver_ids(kind: str | None = None) -> list[str]:
    """All registered ids, optionally restricted to one ``kind``."""
    return [
        spec.driver_id
        for spec in REGISTRY.values()
        if kind is None or spec.kind == kind
    ]


def run_driver(driver_id: str, scale=None, **params) -> FigureResult:
    """One-call convenience: resolve and run."""
    return get_driver(driver_id).run(scale, **params)


def _populate() -> None:
    """Register the built-in drivers (import-cycle-free, called once)."""
    from . import ablations, convergence, distributed_figs, elastic_fig, extensions
    from . import faults, gpu_cluster, headline, large_scale, serving_fig, syscd_fig

    claims: dict[str, tuple[Claim, ...]] = {}
    for module in (ablations, convergence, distributed_figs, elastic_fig, extensions):
        claims.update(module.CLAIMS)
    for module in (faults, gpu_cluster, headline, large_scale, serving_fig, syscd_fig):
        claims.update(module.CLAIMS)

    def add(driver_id: str, title: str, fn, **kwargs) -> None:
        """``register`` with the claims the driver's module declares."""
        register(driver_id, title, fn, claims=claims.pop(driver_id), **kwargs)

    def _bind(fn, arg):
        def _run(scale=None):
            return fn(arg, scale)

        _run.__name__ = f"{fn.__name__}_{arg}"
        return _run

    add("fig1", "Fig. 1 — primal convergence (five solvers)", convergence.run_fig1)
    add("fig2", "Fig. 2 — dual convergence (five solvers)", convergence.run_fig2)
    for number, fn, title in (
        (3, distributed_figs.run_fig3, "distributed SCD vs epochs"),
        (4, distributed_figs.run_fig4, "adaptive vs averaging aggregation"),
        (5, distributed_figs.run_fig5, "optimal gamma evolution"),
        (6, distributed_figs.run_fig6, "time to gap vs workers"),
    ):
        for formulation in ("primal", "dual"):
            add(
                f"fig{number}-{formulation}",
                f"Fig. {number} — {title} ({formulation})",
                _bind(fn, formulation),
            )
    add("fig8-m4000", "Fig. 8a — M4000 cluster (10 GbE)", _bind(gpu_cluster.run_fig8, "m4000"))
    add("fig8-titanx", "Fig. 8b — Titan X cluster (PCIe)", _bind(gpu_cluster.run_fig8, "titanx"))
    add("fig9", "Fig. 9 — computation vs communication breakdown", gpu_cluster.run_fig9)
    add("fig10", "Fig. 10 — criteo-like large-scale training", large_scale.run_fig10)
    add(
        "fig10-outofcore",
        "Fig. 10 (out-of-core) — 40 GB footprint on one 12 GB GPU",
        large_scale.run_fig10_outofcore,
    )
    add("headline", "Headline speedups (abstract / Sections I & VI)", headline.run_headline)

    for driver_id, title, fn in (
        (
            "ablation-wave",
            "Ablation — wave size vs convergence and throughput",
            ablations.run_wave_ablation,
        ),
        (
            "ablation-gpu-write",
            "Ablation — GPU global-write strategies",
            ablations.run_gpu_write_ablation,
        ),
        (
            "ablation-aggregation",
            "Ablation — aggregation policies",
            ablations.run_aggregation_ablation,
        ),
        (
            "ablation-precision",
            "Ablation — fp32 vs fp64 accumulation",
            ablations.run_precision_ablation,
        ),
        (
            "ablation-pcie",
            "Ablation — PCIe generation sensitivity",
            ablations.run_pcie_ablation,
        ),
    ):
        add(driver_id, title, fn, kind="ablation")

    for driver_id, title, fn in (
        (
            "ext-smart-partition",
            "Extension — correlation-aware partitioning",
            extensions.run_smart_partition,
        ),
        (
            "ext-comm-tradeoff",
            "Extension — aggregation granularity vs fabric",
            extensions.run_comm_tradeoff,
        ),
        (
            "ext-sigma-sweep",
            "Extension — sigma' scaling sweep",
            extensions.run_sigma_sweep,
        ),
        (
            "ext-async-vs-sync",
            "Extension — asynchronous vs synchronous updates",
            extensions.run_async_vs_sync,
        ),
        (
            "ext-heterogeneous",
            "Extension — heterogeneous GPU cluster",
            extensions.run_heterogeneous_cluster,
        ),
        (
            "ext-glm-gpu",
            "Extension — TPA engine on elastic-net and SVM GLMs",
            extensions.run_glm_gpu,
        ),
        (
            "ext-batch-vs-stochastic",
            "Extension — batch vs stochastic methods",
            extensions.run_batch_vs_stochastic,
        ),
        (
            "ext-weak-scaling",
            "Extension — weak scaling as data grows with K",
            extensions.run_weak_scaling,
        ),
    ):
        add(driver_id, title, fn, kind="extension")
    add(
        "ext-fault-tolerance",
        "Extension — duality gap under injected fault scenarios",
        faults.run_fault_tolerance,
        kind="extension",
        params=("scenario",),
    )
    add(
        "ext-fault-breakdown",
        "Extension — execution-time breakdown under faults",
        faults.run_fault_breakdown,
        kind="extension",
        params=("scenario",),
    )

    add(
        "serving",
        "Online serving — train-to-serve hot-swap under seeded traffic",
        serving_fig.run_serving,
        kind="scenario",
        params=("solver", "seed"),
    )
    add(
        "syscd",
        "SySCD — bucketed parallel CPU solver thread scaling (measured)",
        syscd_fig.run_syscd_scaling,
        kind="scenario",
        params=("threads", "buckets", "merge_every"),
    )
    add(
        "elastic",
        "Elastic membership — fixed vs join/leave cluster on one seed",
        elastic_fig.run_elastic,
        kind="scenario",
        params=("workers", "comm", "rebalance_every", "seed"),
    )

    if claims:
        raise RuntimeError(f"claims declared for unknown drivers: {sorted(claims)}")


_populate()
