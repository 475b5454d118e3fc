"""Shared experiment configuration: problems and solver builders per scale.

The scales themselves (``tiny``, ``quick``, ``full``) live in the numpy-free
leaf :mod:`repro.experiments.scales`; this module re-exports them.  Every
scale pairs the scaled-down data with the *paper-scale* dimensions
(:class:`~repro.core.scale.PaperScale`) used by the device cost models, so
the reproduced time axes stay comparable to the published ones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.scale import CRITEO_PAPER, WEBSPAM_PAPER, PaperScale
from ..data import Dataset, make_criteo_like, make_webspam_like
from ..gpu.device import GpuDevice
from ..gpu.spec import GpuSpec
from ..objectives.ridge import RidgeProblem
from ..solvers.ascd import AsyncCpuKernelFactory
from ..solvers.scd import SequentialKernelFactory
from .scales import SCALES, ScaleConfig, active_scale

if TYPE_CHECKING:
    from ..core.tpa_scd import TpaScdKernelFactory

__all__ = [
    "ScaleConfig",
    "SCALES",
    "active_scale",
    "webspam_problem",
    "criteo_problem",
    "sequential_factory",
    "async_factory",
    "tpa_factory",
    "LAMBDA",
    "PAPER_LAMBDA",
]

#: the regularization strength the paper uses on webspam
PAPER_LAMBDA = 1e-3

#: the strength the reproduction experiments use.  What governs coordinate
#: descent behaviour is the *effective* regularization ``lambda * N`` in the
#: update denominators: the paper's lambda=1e-3 at N=262,938 gives
#: ``lambda*N ~ 263`` against unit-normalized examples.  At our ~100x smaller
#: N, keeping lambda=1e-3 would under-regularize (``lambda*N ~ 1``, a much
#: harder problem with a long slow tail the paper never exhibits), while
#: scaling lambda fully would trivialize the optimum.  lambda=5e-3 is the
#: calibrated middle ground that reproduces the published convergence shapes:
#: dual SCD converging in a handful of epochs, primal in tens, and every
#: distributed gap target reachable at all K.
LAMBDA = 5e-3


def epochs(base: int, scale: ScaleConfig) -> int:
    """Scale a full-size epoch budget to the active scale."""
    return max(2, int(round(base * scale.epoch_factor)))


def webspam_problem(
    scale: ScaleConfig | None = None, *, seed: int = 7
) -> tuple[RidgeProblem, PaperScale]:
    """The webspam-like problem every Fig. 1-9 driver trains on."""
    scale = scale or active_scale()
    ds = make_webspam_like(
        scale.webspam_n,
        scale.webspam_m,
        nnz_per_example=scale.webspam_nnz_per_example,
        seed=seed,
    )
    return RidgeProblem(ds, LAMBDA), WEBSPAM_PAPER


def criteo_problem(
    scale: ScaleConfig | None = None, *, seed: int = 11
) -> tuple[RidgeProblem, PaperScale]:
    """The criteo-like problem for the Fig. 10 large-scale experiment."""
    scale = scale or active_scale()
    ds = make_criteo_like(
        scale.criteo_n,
        n_groups=scale.criteo_groups,
        group_cardinality=scale.criteo_cardinality,
        seed=seed,
    )
    return RidgeProblem(ds, LAMBDA), CRITEO_PAPER


# -- solver factory builders (paper-scale priced) ---------------------------


def sequential_factory(
    paper: PaperScale, formulation: str
) -> SequentialKernelFactory:
    """Single-thread SCD priced at the full paper-scale workload."""
    return SequentialKernelFactory(
        timing_workload=paper.worker_workload(formulation, 1.0, 1.0)
    )


def async_factory(
    paper: PaperScale,
    formulation: str,
    *,
    write_mode: str,
    n_threads: int = 16,
) -> AsyncCpuKernelFactory:
    """A-SCD / PASSCoDe-Wild factory priced at paper scale."""
    return AsyncCpuKernelFactory(
        n_threads=n_threads,
        write_mode=write_mode,
        timing_workload=paper.worker_workload(formulation, 1.0, 1.0),
    )


def tpa_factory(
    spec: GpuSpec,
    paper: PaperScale,
    formulation: str,
    problem: RidgeProblem,
    *,
    n_workers: int = 1,
) -> TpaScdKernelFactory:
    """TPA-SCD factory with scale-preserving staleness and paper pricing.

    ``n_workers`` shrinks both the scaled and the paper coordinate counts so
    per-worker wave sizing stays consistent in the distributed setting.
    """
    # imported here so a resumed ``repro eval`` never loads the engine (and
    # with it the native loader)
    from ..core.tpa_scd import TpaScdKernelFactory, scaled_wave_size

    n_coords_scaled = (
        problem.m if formulation == "primal" else problem.n
    ) // n_workers
    n_coords_paper = paper.n_coords(formulation) // n_workers
    wave = scaled_wave_size(spec, max(1, n_coords_scaled), max(1, n_coords_paper))
    return TpaScdKernelFactory(
        GpuDevice(spec),
        wave_size=wave,
        timing_workload=paper.worker_workload(
            formulation, 1.0 / n_workers, 1.0 / n_workers
        ),
    )
