"""Declarative experiment configs: the ``configs/*.toml`` schema.

A config declares *what* to run and *how* to report it; the planner
(:mod:`repro.eval.planner`) expands it into a run matrix and the runner
executes the cells.  The schema:

.. code-block:: toml

    [experiment]
    id = "fig1"                      # required: report identifier
    title = "Fig. 1 convergence"     # optional
    description = "..."              # optional

    [run]
    scale = "quick"                  # tiny | quick | full (default: quick)
    seed = 0                         # master seed recorded per cell
    jobs = 1                         # parallel cell workers (0 = cpu count)

    [matrix]
    driver = ["fig1"]                # required axis: registry driver ids
    scale = ["tiny", "quick"]        # optional axis, overrides run.scale
    scenario = ["lossy-link"]        # any declared driver param is an axis

    [report]
    sections = ["figures", "ledger", "bench"]
    bench_baseline = "latest"        # newest committed BENCH_PR*.json, or a path
    log_y = true                     # log-scale convergence plots

Validation is strict: unknown sections or keys are rejected with a pointed
error naming the offender and the allowed set, axis values must be flat
lists of scalars, driver ids must exist in the registry, and every extra
axis must be a parameter each selected driver declared sweepable.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path

from ..experiments.registry import REGISTRY
from ..experiments.scales import SCALES

__all__ = [
    "EvalConfig",
    "ReportConfig",
    "ConfigError",
    "load_config",
    "parse_config",
    "REPORT_SECTIONS",
]

#: renderable report sections, in presentation order
REPORT_SECTIONS = ("figures", "ledger", "bench")

_TOP_LEVEL = ("experiment", "run", "matrix", "report")
_EXPERIMENT_KEYS = ("id", "title", "description")
_RUN_KEYS = ("scale", "seed", "jobs")
_REPORT_KEYS = ("sections", "bench_baseline", "log_y")
#: accepted and discarded: ``benchmarks/e2e/workloads.py`` still writes them
#: into the Fig. 1 config its eval workloads run
_IGNORED_REPORT_KEYS = ("bench_profile", "bench_threshold")
#: matrix keys with dedicated handling; anything else must be a driver param
_MATRIX_BUILTIN = ("driver", "scale")


class ConfigError(ValueError):
    """A config failed validation; the message names file, key, and fix."""


@dataclass(frozen=True)
class ReportConfig:
    """The ``[report]`` table, defaults applied."""

    sections: tuple[str, ...] = REPORT_SECTIONS
    #: a ``repro.e2e/v1`` record path, or ``"latest"`` — resolved at report
    #: time to the newest committed ``BENCH_PR*.json`` (numeric PR order)
    bench_baseline: str = "latest"
    log_y: bool = True


@dataclass(frozen=True)
class EvalConfig:
    """One parsed, validated experiment declaration."""

    experiment_id: str
    title: str = ""
    description: str = ""
    scale: str = "quick"
    seed: int = 0
    jobs: int = 1
    #: sweep axes in declaration order: (name, values); always includes
    #: ``driver`` and ``scale``
    axes: tuple[tuple[str, tuple], ...] = ()
    report: ReportConfig = field(default_factory=ReportConfig)
    source: str = "<memory>"

    @property
    def drivers(self) -> tuple[str, ...]:
        return dict(self.axes)["driver"]

    def n_cells(self) -> int:
        n = 1
        for _, values in self.axes:
            n *= len(values)
        return n


def _err(source: str, msg: str) -> ConfigError:
    return ConfigError(f"{source}: {msg}")


def _check_keys(source: str, table: dict, name: str, allowed: tuple) -> None:
    unknown = sorted(set(table) - set(allowed))
    if unknown:
        raise _err(
            source,
            f"unknown key {unknown[0]!r} in [{name}]; "
            f"allowed keys: {', '.join(allowed)}",
        )


def _as_list(value, source: str, where: str) -> list:
    """Promote a scalar to a one-item axis; reject nested/empty lists."""
    if isinstance(value, (list, tuple)):
        values = list(value)
    else:
        values = [value]
    if not values:
        raise _err(source, f"{where} must not be an empty list")
    for v in values:
        if isinstance(v, (list, tuple, dict)):
            raise _err(
                source, f"{where} must be a flat list of scalars, got {v!r}"
            )
    if len(set(map(repr, values))) != len(values):
        raise _err(source, f"{where} contains duplicate values")
    return values


def parse_config(doc: dict, *, source: str = "<memory>") -> EvalConfig:
    """Validate a parsed TOML document into an :class:`EvalConfig`."""
    if not isinstance(doc, dict):
        raise _err(source, "config must be a TOML document")
    unknown = sorted(set(doc) - set(_TOP_LEVEL))
    if unknown:
        raise _err(
            source,
            f"unknown section [{unknown[0]}]; "
            f"expected sections: {', '.join(_TOP_LEVEL)}",
        )
    for name in _TOP_LEVEL:
        if name in doc and not isinstance(doc[name], dict):
            raise _err(source, f"[{name}] must be a table")

    # [experiment]
    experiment = doc.get("experiment", {})
    _check_keys(source, experiment, "experiment", _EXPERIMENT_KEYS)
    if "id" not in experiment:
        raise _err(source, "[experiment] must declare an 'id'")
    experiment_id = experiment["id"]
    if not isinstance(experiment_id, str) or not experiment_id:
        raise _err(source, "[experiment] id must be a non-empty string")
    title = experiment.get("title", "")
    description = experiment.get("description", "")
    for key, value in (("title", title), ("description", description)):
        if not isinstance(value, str):
            raise _err(source, f"[experiment] {key} must be a string")

    # [run]
    run = doc.get("run", {})
    _check_keys(source, run, "run", _RUN_KEYS)
    scale = run.get("scale", "quick")
    if scale not in SCALES:
        raise _err(
            source,
            f"[run] scale {scale!r} is not one of {sorted(SCALES)}",
        )
    seed = run.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise _err(source, "[run] seed must be an integer")
    jobs = run.get("jobs", 1)
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 0:
        raise _err(source, "[run] jobs must be a non-negative integer (0 = auto)")

    # [matrix]
    matrix = doc.get("matrix", {})
    if "driver" not in matrix:
        raise _err(source, "[matrix] must declare a 'driver' axis")
    drivers = _as_list(matrix["driver"], source, "[matrix] driver")
    # read from the registry's table: validating a config imports no driver
    params: dict[str, tuple[str, ...]] = {}
    for driver_id in drivers:
        if not isinstance(driver_id, str):
            raise _err(source, f"[matrix] driver ids must be strings, got {driver_id!r}")
        try:
            params[driver_id] = REGISTRY.params(driver_id)
        except KeyError as exc:
            raise _err(source, exc.args[0]) from None

    scales = _as_list(matrix.get("scale", [scale]), source, "[matrix] scale")
    for s in scales:
        if s not in SCALES:
            raise _err(
                source, f"[matrix] scale {s!r} is not one of {sorted(SCALES)}"
            )

    axes: list[tuple[str, tuple]] = [
        ("driver", tuple(drivers)),
        ("scale", tuple(scales)),
    ]
    for axis, values in matrix.items():
        if axis in _MATRIX_BUILTIN:
            continue
        values = _as_list(values, source, f"[matrix] {axis}")
        for driver_id, declared in params.items():
            if axis not in declared:
                raise _err(
                    source,
                    f"[matrix] axis {axis!r} is not a sweepable parameter of "
                    f"driver {driver_id!r} (declared params: "
                    f"{list(declared) or 'none'})",
                )
        axes.append((axis, tuple(values)))

    # [report]
    report = {
        k: v for k, v in doc.get("report", {}).items()
        if k not in _IGNORED_REPORT_KEYS
    }
    _check_keys(source, report, "report", _REPORT_KEYS)
    sections = report.get("sections", list(REPORT_SECTIONS))
    if not isinstance(sections, (list, tuple)):
        raise _err(source, "[report] sections must be a list")
    for section in sections:
        if section not in REPORT_SECTIONS:
            raise _err(
                source,
                f"[report] unknown section {section!r}; "
                f"known sections: {', '.join(REPORT_SECTIONS)}",
            )
    bench_baseline = report.get("bench_baseline", "latest")
    if not isinstance(bench_baseline, str):
        raise _err(
            source, "[report] bench_baseline must be a path string or 'latest'"
        )
    log_y = report.get("log_y", True)
    if not isinstance(log_y, bool):
        raise _err(source, "[report] log_y must be a boolean")

    return EvalConfig(
        experiment_id=experiment_id,
        title=title,
        description=description,
        scale=scale,
        seed=seed,
        jobs=jobs,
        axes=tuple(axes),
        report=ReportConfig(
            sections=tuple(sections),
            bench_baseline=bench_baseline,
            log_y=log_y,
        ),
        source=source,
    )


def load_config(path: str | Path) -> EvalConfig:
    """Read and validate one ``*.toml`` experiment config."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"{path}: invalid TOML: {exc}") from exc
    return parse_config(doc, source=str(path))
