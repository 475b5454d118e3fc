"""Expand a validated config into a run matrix of content-hashed cells.

Each cell is one driver invocation — (driver, scale, seed, params) — and
carries a **stable content hash**: the SHA-256 of the canonical JSON of
exactly the inputs that determine the cell's numbers.  Canonical means
sorted keys and no whitespace variance, so two configs declaring the same
matrix with tables or keys in a different order plan *identical* hashes,
and the runner's result cache (keyed by hash) resumes across reruns.

Report settings deliberately do not participate in the hash: re-styling a
report must never invalidate computed results.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field

from .config import EvalConfig

__all__ = ["RunCell", "EvalPlan", "plan", "plan_cells", "cell_hash"]

#: bump when the cached cell payload layout changes incompatibly
CELL_SCHEMA = "repro.eval-cell/v2"


def cell_hash(driver_id: str, scale: str, seed: int, params: dict) -> str:
    """Canonical content hash of one cell's inputs."""
    doc = {
        "schema": CELL_SCHEMA,
        "driver": driver_id,
        "scale": scale,
        "seed": seed,
        "params": {str(k): params[k] for k in sorted(params)},
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunCell:
    """One planned driver invocation."""

    driver_id: str
    scale: str
    seed: int
    params: tuple[tuple[str, object], ...] = ()
    config_hash: str = ""

    @property
    def cell_id(self) -> str:
        """Human-readable cell label: ``fig1 scale=quick scenario=chaos``."""
        parts = [self.driver_id, f"scale={self.scale}"]
        parts += [f"{k}={v}" for k, v in self.params]
        return " ".join(parts)

    @property
    def short_hash(self) -> str:
        return self.config_hash[:12]

    def params_dict(self) -> dict:
        return dict(self.params)

    def to_dict(self) -> dict:
        return {
            "driver": self.driver_id,
            "scale": self.scale,
            "seed": self.seed,
            "params": self.params_dict(),
            "hash": self.config_hash,
        }


@dataclass(frozen=True)
class EvalPlan:
    """The expanded matrix for one config."""

    config: EvalConfig
    cells: tuple[RunCell, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.cells)

    def describe(self) -> str:
        axes = ", ".join(
            f"{name}[{len(values)}]" for name, values in self.config.axes
        )
        return (
            f"experiment {self.config.experiment_id!r}: {len(self.cells)} "
            f"cell(s) from axes {axes}"
        )


def plan_cells(
    config: EvalConfig, *, scale_override: str | None = None
) -> list[RunCell]:
    """Cartesian expansion of the config's axes into hashed cells.

    ``scale_override`` (the CLI ``--scale`` flag) replaces the scale axis
    wholesale — every cell runs at that scale.
    """
    axes = dict(config.axes)
    if scale_override is not None:
        axes["scale"] = (scale_override,)
    names = list(axes)
    cells = []
    for combo in itertools.product(*(axes[name] for name in names)):
        bound = dict(zip(names, combo))
        driver_id = bound.pop("driver")
        scale = bound.pop("scale")
        params = tuple(sorted(bound.items()))
        cells.append(
            RunCell(
                driver_id=driver_id,
                scale=scale,
                seed=config.seed,
                params=params,
                config_hash=cell_hash(driver_id, scale, config.seed, bound),
            )
        )
    return cells


def plan(config: EvalConfig, *, scale_override: str | None = None) -> EvalPlan:
    """Expand ``config`` into an :class:`EvalPlan`."""
    return EvalPlan(
        config=config,
        cells=tuple(plan_cells(config, scale_override=scale_override)),
    )
