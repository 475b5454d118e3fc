"""The experiment scales: sizes and epoch budgets, and nothing else.

The drivers run at one of three scales:

* ``tiny``  — smallest smoke scale; used by CI trace validation and anywhere
  a sub-second end-to-end run is needed.
* ``quick`` — default; every figure regenerates in seconds.  Used by the
  test-suite.
* ``full``  — larger synthetic stand-ins (still laptop friendly) for closer
  convergence curves.  Select with ``REPRO_SCALE=full``.

This module is a leaf: it imports no numpy and no other ``repro`` module,
so the CLI's choices, config validation and claim checks can name a scale
without loading the data generators or solvers that
:mod:`repro.experiments.config` builds problems from.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["ScaleConfig", "SCALES", "active_scale"]


@dataclass(frozen=True)
class ScaleConfig:
    """Sizes and epoch budgets for one experiment scale."""

    name: str
    webspam_n: int
    webspam_m: int
    webspam_nnz_per_example: int
    criteo_n: int
    criteo_groups: int
    criteo_cardinality: int
    epoch_factor: float  # multiplies the per-figure epoch budgets


SCALES: dict[str, ScaleConfig] = {
    "tiny": ScaleConfig(
        name="tiny",
        webspam_n=400,
        webspam_m=1_200,
        webspam_nnz_per_example=20,
        criteo_n=1_000,
        criteo_groups=12,
        criteo_cardinality=120,
        epoch_factor=0.25,
    ),
    "quick": ScaleConfig(
        name="quick",
        webspam_n=1_000,
        webspam_m=3_000,
        webspam_nnz_per_example=40,
        criteo_n=3_000,
        criteo_groups=20,
        criteo_cardinality=300,
        epoch_factor=0.5,
    ),
    "full": ScaleConfig(
        name="full",
        webspam_n=2_600,
        webspam_m=6_800,
        webspam_nnz_per_example=100,
        criteo_n=8_000,
        criteo_groups=26,
        criteo_cardinality=600,
        epoch_factor=1.0,
    ),
}


def active_scale() -> ScaleConfig:
    """Resolve the scale from ``REPRO_SCALE`` (default ``quick``)."""
    name = os.environ.get("REPRO_SCALE", "quick")
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(
            f"REPRO_SCALE={name!r} is not one of {sorted(SCALES)}"
        ) from None
