"""Execute planned cells: parallel where independent, resumable on rerun.

Every cell runs its driver under a fresh :class:`~repro.obs.Tracer` and
produces one JSON payload (schema ``repro.eval-cell/v2``) holding the
figure, the verdict on each of the driver's claims, the modelled-time
ledger breakdown, the metrics counters, and the cell's provenance.
Payloads are persisted to ``<cache_dir>/<hash>.json`` — the hash is the
planner's content hash of the cell's inputs — so a rerun of the same config
loads every completed cell instead of recomputing it.  A payload of any
other shape is a cache miss.  A Chrome trace (``<hash>.trace.json``) is
written beside each payload and linked from the HTML report.

The verdicts are stored under :func:`~repro.experiments.registry.claims_digest`.
A resumed cell whose digest still matches shows them as stored, so it loads
neither numpy nor its driver's module; after an edit to a claim or measure
(or for a driver added with ``register``) the cell is re-checked on its
cached figure instead — re-checked, never recomputed.

Independent cells run in a ``ProcessPoolExecutor`` when ``jobs > 1``; the
parent process does all cache writes, so parallelism never races on files.
The parent also opens an ``eval.cell`` span per cell (attrs: driver, hash,
cached) so an eval run is billed through ``repro.obs`` like every other
orchestrated workload.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from ..experiments.claims import Verdict
from ..experiments.registry import claims_digest, get_driver
from ..experiments.results import FigureResult
from ..experiments.scales import SCALES
from ..obs import Tracer, chrome_trace, metrics_json, use_tracer
from .config import EvalConfig, ReportConfig
from .planner import CELL_SCHEMA, EvalPlan, RunCell, plan
from .provenance import collect_provenance

__all__ = [
    "CellResult",
    "EvalRun",
    "run_plan",
    "run_drivers",
    "DEFAULT_CACHE_DIR",
]

DEFAULT_CACHE_DIR = ".eval-cache"


@dataclass(frozen=True)
class CellResult:
    """One executed-or-resumed cell and its payload."""

    cell: RunCell
    payload: dict = field(repr=False)
    cached: bool = False

    @cached_property
    def figure(self) -> FigureResult:
        return FigureResult.from_dict(self.payload["figure"])

    @cached_property
    def verdicts(self) -> tuple[Verdict, ...]:
        """The driver's declared claims checked on this cell's figure.

        Read from the payload while its ``claims_digest`` matches the
        sources; otherwise checked again on the cached figure.
        """
        digest = claims_digest(self.cell.driver_id)
        if digest is not None and self.payload.get("claims_digest") == digest:
            return tuple(Verdict.from_dict(v) for v in self.payload["verdicts"])
        return get_driver(self.cell.driver_id).check(self.figure, self.cell.scale)

    @property
    def elapsed_s(self) -> float:
        return float(self.payload.get("elapsed_s", 0.0))

    @property
    def ledger(self) -> dict:
        return dict(self.payload.get("ledger", {}))

    @property
    def trace_path(self) -> str | None:
        return self.payload.get("trace_path")


@dataclass(frozen=True)
class EvalRun:
    """The outcome of running one plan."""

    plan: EvalPlan
    results: tuple[CellResult, ...]
    cache_dir: str
    elapsed_s: float

    @property
    def executed(self) -> int:
        return sum(1 for r in self.results if not r.cached)

    @property
    def resumed(self) -> int:
        return sum(1 for r in self.results if r.cached)

    def failed_claims(self) -> list[tuple[RunCell, Verdict]]:
        """Every (cell, verdict) whose claim failed, in plan order."""
        return [(r.cell, v) for r in self.results for v in r.verdicts if v.failed]

    def figures(self) -> dict[str, FigureResult]:
        """cell_id -> figure, in plan order."""
        return {r.cell.cell_id: r.figure for r in self.results}


def _execute_cell(cell_doc: dict) -> dict:
    """Run one cell (importable top-level so process pools can pickle it)."""
    import numpy

    driver_id = cell_doc["driver"]
    scale_name = cell_doc["scale"]
    params = dict(cell_doc["params"])
    spec = get_driver(driver_id)
    if "seed" in spec.params and "seed" not in params:
        params["seed"] = cell_doc["seed"]
    tracer = Tracer()
    t0 = time.perf_counter()
    with use_tracer(tracer):
        with tracer.span(
            "eval.cell", "eval", driver=driver_id, hash=cell_doc["hash"]
        ):
            fig = spec.run(SCALES[scale_name], **params)
    elapsed = time.perf_counter() - t0
    metrics = metrics_json(tracer)
    return {
        "schema": CELL_SCHEMA,
        "cell": cell_doc,
        "figure": fig.to_dict(),
        "verdicts": [v.to_dict() for v in spec.check(fig, scale_name)],
        "claims_digest": claims_digest(driver_id),
        "elapsed_s": elapsed,
        "ledger": {k: v for k, v in tracer.ledger.breakdown().items() if v},
        "modelled_total_s": tracer.ledger.total,
        "counters": metrics["metrics"].get("counters", {}),
        "trace": chrome_trace(tracer),
        "provenance": {
            **collect_provenance(seeds=[cell_doc["seed"]]),
            "numpy": numpy.__version__,
        },
    }


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _strings(doc: dict, *keys: str) -> bool:
    return all(isinstance(doc.get(key), str) for key in keys)


def _series_ok(doc) -> bool:
    return (
        isinstance(doc, dict)
        and _strings(doc, "label", "x_name", "y_name")
        and isinstance(doc.get("x"), list)
        and isinstance(doc.get("y"), list)
        and len(doc["x"]) == len(doc["y"])
        and all(map(_number, doc["x"] + doc["y"]))
        and isinstance(doc.get("meta"), dict)
    )


def _figure_ok(doc) -> bool:
    return (
        isinstance(doc, dict)
        and _strings(doc, "figure_id", "title")
        and isinstance(doc.get("series"), list)
        and all(map(_series_ok, doc["series"]))
        and isinstance(doc.get("notes"), list)
        and all(isinstance(note, str) for note in doc["notes"])
        and isinstance(doc.get("meta"), dict)
    )


def _verdict_ok(doc) -> bool:
    if not isinstance(doc, dict) or set(doc) != set(Verdict.FIELDS):
        return False
    band, value = doc["band"], doc["value"]
    return (
        _strings(doc, "claim_id", "figure", "sentence", "scale")
        and isinstance(band, dict)
        and set(band) == {"lo", "hi", "strict"}
        and _number(band["lo"])
        and _number(band["hi"])
        and isinstance(band["strict"], bool)
        and doc["status"] in ("pass", "fail", "skip")
        and (value is None or isinstance(value, bool) or _number(value))
    )


def _payload_ok(payload, cell: RunCell) -> bool:
    """Whether ``payload`` is a whole ``CELL_SCHEMA`` payload of ``cell``."""
    if not isinstance(payload, dict) or payload.get("schema") != CELL_SCHEMA:
        return False
    cached_cell, ledger = payload.get("cell"), payload.get("ledger")
    provenance, verdicts = payload.get("provenance"), payload.get("verdicts")
    digest = payload.get("claims_digest", False)
    return (
        isinstance(cached_cell, dict)
        and cached_cell.get("hash") == cell.config_hash
        and _figure_ok(payload.get("figure"))
        and isinstance(verdicts, list)
        and all(map(_verdict_ok, verdicts))
        and (digest is None or isinstance(digest, str))
        and _number(payload.get("elapsed_s"))
        and isinstance(ledger, dict)
        and all(map(_number, ledger.values()))
        and isinstance(provenance, dict)
        and _strings(provenance, "numpy")
        and ("trace_path" not in payload or _strings(payload, "trace_path"))
    )


def _load_cached(path: Path, cell: RunCell) -> dict | None:
    """A valid cached payload for ``cell``, or ``None`` to recompute.

    Anything but a whole payload of this cell — unreadable, not JSON,
    another schema, another cell, or the right keys holding the wrong
    shapes — is a miss, never an error.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return payload if _payload_ok(payload, cell) else None


def _persist(payload: dict, cache_dir: Path, cell: RunCell) -> dict:
    """Write the payload (+ sidecar trace) and return the slimmed payload."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    trace = payload.pop("trace", None)
    if trace is not None:
        trace_path = cache_dir / f"{cell.config_hash}.trace.json"
        trace_path.write_text(json.dumps(trace), encoding="utf-8")
        payload["trace_path"] = str(trace_path)
    path = cache_dir / f"{cell.config_hash}.json"
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return payload


def _resolve_jobs(jobs: int, n_pending: int) -> int:
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return max(1, min(jobs, n_pending)) if n_pending else 1


def run_plan(
    eval_plan: EvalPlan,
    *,
    cache_dir: str | Path = DEFAULT_CACHE_DIR,
    jobs: int | None = None,
    resume: bool = True,
    force: bool = False,
    tracer: Tracer | None = None,
) -> EvalRun:
    """Run (or resume) every cell of ``eval_plan``.

    ``force`` recomputes everything; ``resume=False`` merely skips reading
    the cache but still writes fresh results into it.
    """
    cache = Path(cache_dir)
    tracer = tracer or Tracer()
    jobs = eval_plan.config.jobs if jobs is None else jobs
    t0 = time.perf_counter()

    results: dict[int, CellResult] = {}
    pending: list[tuple[int, RunCell]] = []
    for i, cell in enumerate(eval_plan.cells):
        payload = None
        if resume and not force:
            payload = _load_cached(cache / f"{cell.config_hash}.json", cell)
        if payload is not None:
            with tracer.span(
                "eval.cell",
                "eval",
                driver=cell.driver_id,
                hash=cell.short_hash,
                cached=True,
            ):
                results[i] = CellResult(cell=cell, payload=payload, cached=True)
        else:
            pending.append((i, cell))

    n_workers = _resolve_jobs(jobs, len(pending))
    if pending and n_workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [
                (i, cell, pool.submit(_execute_cell, cell.to_dict()))
                for i, cell in pending
            ]
            for i, cell, future in futures:
                with tracer.span(
                    "eval.cell",
                    "eval",
                    driver=cell.driver_id,
                    hash=cell.short_hash,
                    cached=False,
                ):
                    payload = _persist(future.result(), cache, cell)
                results[i] = CellResult(cell=cell, payload=payload)
    else:
        for i, cell in pending:
            with tracer.span(
                "eval.cell",
                "eval",
                driver=cell.driver_id,
                hash=cell.short_hash,
                cached=False,
            ):
                payload = _persist(_execute_cell(cell.to_dict()), cache, cell)
            results[i] = CellResult(cell=cell, payload=payload)

    ordered = tuple(results[i] for i in range(len(eval_plan.cells)))
    return EvalRun(
        plan=eval_plan,
        results=ordered,
        cache_dir=str(cache),
        elapsed_s=time.perf_counter() - t0,
    )


def run_drivers(
    driver_ids: list[str],
    *,
    scale: str | None = None,
    seed: int = 0,
    cache_dir: str | Path = DEFAULT_CACHE_DIR,
    jobs: int = 1,
    resume: bool = True,
    force: bool = False,
) -> EvalRun:
    """Run a list of registry drivers through the eval runner.

    The shared front door for orchestration scripts (the EXPERIMENTS.md
    generator uses this): same cache, same hashing, same spans as
    ``repro eval`` — one cell per driver, in ``driver_ids`` order.
    """
    from ..experiments.scales import active_scale

    scale = scale or active_scale().name
    config = EvalConfig(
        experiment_id="drivers",
        scale=scale,
        seed=seed,
        jobs=jobs,
        axes=(("driver", tuple(driver_ids)), ("scale", (scale,))),
        report=ReportConfig(),
    )
    return run_plan(
        plan(config),
        cache_dir=cache_dir,
        jobs=jobs,
        resume=resume,
        force=force,
    )
