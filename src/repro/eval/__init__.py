"""``repro.eval`` — declarative experiment orchestration.

One front door for every experiment in the repo: a ``configs/*.toml`` file
declares *what* to run (drivers from the shared registry, a sweep matrix, a
scale, a seed) and *how* to report it; this package plans the run matrix
with stable content hashes, executes cells in parallel with resumable
caching, and renders a self-contained HTML report.

Typical use::

    from repro.eval import load_config, plan, run_plan, render_report

    config = load_config("configs/fig1.toml")
    run = run_plan(plan(config))
    path = render_report(run, "eval-reports")

or, in one call, :func:`run_eval` — which is exactly what the
``repro eval`` CLI subcommand does.
"""

from __future__ import annotations

from pathlib import Path

from .config import (
    REPORT_SECTIONS,
    ConfigError,
    EvalConfig,
    ReportConfig,
    load_config,
    parse_config,
)
from .planner import CELL_SCHEMA, EvalPlan, RunCell, cell_hash, plan
from .provenance import collect_provenance, html_footer, markdown_footer, recorded_numpy
from .report import build_report, render_report
from .runner import (
    DEFAULT_CACHE_DIR,
    CellResult,
    EvalRun,
    run_drivers,
    run_plan,
)

__all__ = [
    "CELL_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "REPORT_SECTIONS",
    "CellResult",
    "ConfigError",
    "EvalConfig",
    "EvalPlan",
    "EvalRun",
    "ReportConfig",
    "RunCell",
    "build_report",
    "cell_hash",
    "collect_provenance",
    "html_footer",
    "load_config",
    "markdown_footer",
    "parse_config",
    "plan",
    "recorded_numpy",
    "render_report",
    "run_drivers",
    "run_eval",
    "run_plan",
]


def run_eval(
    config_path: str | Path,
    *,
    scale: str | None = None,
    out_dir: str | Path = "eval-reports",
    cache_dir: str | Path = DEFAULT_CACHE_DIR,
    jobs: int | None = None,
    force: bool = False,
    run_bench: bool = True,
) -> tuple[EvalRun, Path]:
    """Load, plan, run (resuming), and render one config end to end."""
    config = load_config(config_path)
    run = run_plan(
        plan(config, scale_override=scale),
        cache_dir=cache_dir,
        jobs=jobs,
        force=force,
    )
    path = render_report(run, out_dir, run_bench=run_bench)
    return run, path
