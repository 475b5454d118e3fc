"""The single experiment-driver registry.

Every figure, ablation, extension, and scenario driver has one row here,
with the metadata the orchestration layers need:

* the public ``driver_id`` (``fig1``, ``ext-fault-tolerance``, ``serving``),
* a one-line title for reports and listings,
* the callable (``fn(scale=None, **params) -> FigureResult``),
* the *sweepable* keyword parameters the driver accepts beyond ``scale`` —
  the axes a ``repro.eval`` config may put in its ``[matrix]``,
* the paper claims its figure reproduces (:mod:`repro.experiments.claims`),
  declared in the driver's module and checked by :meth:`DriverSpec.check`.

The ``repro.eval`` subsystem, the CLI and ``tools/generate_experiments_md.py``
all discover drivers from this table, so adding a driver means one row in
``_DRIVERS`` — not another bespoke import site in every orchestration
script.  Listing ids, reading a driver's kind or params and
:func:`claims_digest` import no driver; :data:`REGISTRY` imports a driver's
module on its first lookup, so a command pays only for the drivers it runs.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

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
    "claims_digest",
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


class _Row(NamedTuple):
    """One built-in driver: ``function`` and a ``CLAIMS`` table live in ``module``."""

    driver_id: str
    title: str
    #: submodule of this package that defines ``function`` and ``CLAIMS``
    module: str
    function: str
    #: when set, the driver is ``function(arg, scale)``
    arg: str | None = None
    kind: str = "figure"
    params: tuple[str, ...] = ()


#: the built-in drivers, in presentation order
_DRIVERS: tuple[_Row, ...] = (
    _Row("fig1", "Fig. 1 — primal convergence (five solvers)", "convergence", "run_fig1"),
    _Row("fig2", "Fig. 2 — dual convergence (five solvers)", "convergence", "run_fig2"),
    *(
        _Row(
            f"fig{number}-{formulation}",
            f"Fig. {number} — {title} ({formulation})",
            "distributed_figs",
            f"run_fig{number}",
            formulation,
        )
        for number, title in (
            (3, "distributed SCD vs epochs"),
            (4, "adaptive vs averaging aggregation"),
            (5, "optimal gamma evolution"),
            (6, "time to gap vs workers"),
        )
        for formulation in ("primal", "dual")
    ),
    _Row("fig8-m4000", "Fig. 8a — M4000 cluster (10 GbE)", "gpu_cluster", "run_fig8", "m4000"),
    _Row("fig8-titanx", "Fig. 8b — Titan X cluster (PCIe)", "gpu_cluster", "run_fig8", "titanx"),
    _Row("fig9", "Fig. 9 — computation vs communication breakdown", "gpu_cluster", "run_fig9"),
    _Row("fig10", "Fig. 10 — criteo-like large-scale training", "large_scale", "run_fig10"),
    _Row(
        "fig10-outofcore",
        "Fig. 10 (out-of-core) — 40 GB footprint on one 12 GB GPU",
        "large_scale",
        "run_fig10_outofcore",
    ),
    _Row("headline", "Headline speedups (abstract / Sections I & VI)", "headline", "run_headline"),
    *(
        _Row(driver_id, f"Ablation — {title}", "ablations", function, kind="ablation")
        for driver_id, title, function in (
            ("ablation-wave", "wave size vs convergence and throughput", "run_wave_ablation"),
            ("ablation-gpu-write", "GPU global-write strategies", "run_gpu_write_ablation"),
            ("ablation-aggregation", "aggregation policies", "run_aggregation_ablation"),
            ("ablation-precision", "fp32 vs fp64 accumulation", "run_precision_ablation"),
            ("ablation-pcie", "PCIe generation sensitivity", "run_pcie_ablation"),
        )
    ),
    *(
        _Row(driver_id, f"Extension — {title}", "extensions", function, kind="extension")
        for driver_id, title, function in (
            ("ext-smart-partition", "correlation-aware partitioning", "run_smart_partition"),
            ("ext-comm-tradeoff", "aggregation granularity vs fabric", "run_comm_tradeoff"),
            ("ext-sigma-sweep", "sigma' scaling sweep", "run_sigma_sweep"),
            ("ext-async-vs-sync", "asynchronous vs synchronous updates", "run_async_vs_sync"),
            ("ext-heterogeneous", "heterogeneous GPU cluster", "run_heterogeneous_cluster"),
            ("ext-glm-gpu", "TPA engine on elastic-net and SVM GLMs", "run_glm_gpu"),
            ("ext-batch-vs-stochastic", "batch vs stochastic methods", "run_batch_vs_stochastic"),
            ("ext-weak-scaling", "weak scaling as data grows with K", "run_weak_scaling"),
        )
    ),
    _Row(
        "ext-fault-tolerance",
        "Extension — duality gap under injected fault scenarios",
        "faults",
        "run_fault_tolerance",
        kind="extension",
        params=("scenario",),
    ),
    _Row(
        "ext-fault-breakdown",
        "Extension — execution-time breakdown under faults",
        "faults",
        "run_fault_breakdown",
        kind="extension",
        params=("scenario",),
    ),
    _Row(
        "serving",
        "Online serving — train-to-serve hot-swap under seeded traffic",
        "serving_fig",
        "run_serving",
        kind="scenario",
        params=("solver", "seed"),
    ),
    _Row(
        "syscd",
        "SySCD — bucketed parallel CPU solver thread scaling (measured)",
        "syscd_fig",
        "run_syscd_scaling",
        kind="scenario",
        params=("threads", "buckets", "merge_every"),
    ),
    _Row(
        "elastic",
        "Elastic membership — fixed vs join/leave cluster on one seed",
        "elastic_fig",
        "run_elastic",
        kind="scenario",
        params=("workers", "comm", "rebalance_every", "seed"),
    ),
)


def _bind(fn, arg):
    def _run(scale=None):
        return fn(arg, scale)

    _run.__name__ = f"{fn.__name__}_{arg}"
    return _run


def _load(row: _Row) -> DriverSpec:
    """Import ``row``'s module and build its spec with the claims declared there.

    A module's ``CLAIMS`` must cover each of its drivers and name no other
    id, so a typo in a claims table fails the first lookup of any driver of
    that module.
    """
    module = importlib.import_module(f"{__package__}.{row.module}")
    ids = {r.driver_id for r in _DRIVERS if r.module == row.module}
    stray = sorted(set(module.CLAIMS) - ids)
    if stray:
        raise RuntimeError(f"claims declared for unknown drivers in {module.__name__}: {stray}")
    if row.driver_id not in module.CLAIMS:
        raise RuntimeError(f"{module.__name__} declares no claims for {row.driver_id!r}")
    fn = getattr(module, row.function)
    return DriverSpec(
        row.driver_id,
        row.title,
        fn if row.arg is None else _bind(fn, row.arg),
        kind=row.kind,
        params=row.params,
        claims=tuple(module.CLAIMS[row.driver_id]),
    )


class _Registry(Mapping):
    """``driver_id -> DriverSpec``; a driver's module is imported on its first lookup.

    Iterating ids, ``len`` and ``in`` read the table and import nothing.
    """

    def __init__(self) -> None:
        #: every id in presentation order; ``None`` for a spec added by ``register``
        self._rows: dict[str, _Row | None] = {row.driver_id: row for row in _DRIVERS}
        self._specs: dict[str, DriverSpec] = {}

    def _row(self, driver_id: str) -> _Row | None:
        try:
            return self._rows[driver_id]
        except KeyError:
            raise KeyError(
                f"unknown experiment driver {driver_id!r}; known drivers: "
                f"{', '.join(sorted(self._rows))}"
            ) from None

    def __getitem__(self, driver_id: str) -> DriverSpec:
        spec = self._specs.get(driver_id)
        if spec is None:
            # setdefault: threads racing on a first lookup all get one spec
            spec = self._specs.setdefault(driver_id, _load(self._row(driver_id)))
        return spec

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, driver_id) -> bool:
        return driver_id in self._rows

    def kind(self, driver_id: str) -> str:
        """The driver's kind, read without importing its module."""
        row = self._row(driver_id)
        return self[driver_id].kind if row is None else row.kind

    def params(self, driver_id: str) -> tuple[str, ...]:
        """The driver's sweepable params, read without importing its module."""
        row = self._row(driver_id)
        return self[driver_id].params if row is None else row.params


#: driver_id -> spec, in registration (presentation) order
REGISTRY = _Registry()


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
    REGISTRY._rows[driver_id] = None
    REGISTRY._specs[driver_id] = spec
    return spec


def unregister(driver_id: str) -> None:
    """Remove a registered driver (test scaffolding)."""
    REGISTRY._rows.pop(driver_id, None)
    REGISTRY._specs.pop(driver_id, None)


def get_driver(driver_id: str) -> DriverSpec:
    """Resolve ``driver_id`` or fail with the list of known ids."""
    return REGISTRY[driver_id]


def driver(driver_id: str) -> Callable[..., FigureResult]:
    """The bare callable for ``driver_id`` (benchmarks use this)."""
    return get_driver(driver_id).fn


def driver_ids(kind: str | None = None) -> list[str]:
    """All registered ids, optionally restricted to one ``kind``."""
    return [d for d in REGISTRY if kind is None or REGISTRY.kind(d) == kind]


def run_driver(driver_id: str, scale=None, **params) -> FigureResult:
    """One-call convenience: resolve and run."""
    return get_driver(driver_id).run(scale, **params)


@functools.cache
def _sources_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        source = path.read_bytes()
        h.update(f"{path.name}\0{len(source)}\0".encode())
        h.update(source)
    return h.hexdigest()


def claims_digest(driver_id: str) -> str | None:
    """A sha256 over the sources of ``repro/experiments/*.py``.

    Every built-in driver, claim and measure is declared there, so a verdict
    stored under this digest still holds for the figure it was measured on.
    ``None`` for a driver added with :func:`register`: its claims live in
    the caller's code, which no digest covers, so they are always re-checked.
    """
    return None if REGISTRY._row(driver_id) is None else _sources_digest()
