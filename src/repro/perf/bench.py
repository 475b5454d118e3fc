"""Pinned micro-benchmark suite with a throughput regression gate.

The repo's north star is "as fast as the hardware allows", but nothing used
to *guard* kernel throughput: a stray ``np.add.at`` or a per-wave allocation
could quietly cost 10x and no test would notice.  This module pins a small
suite of epoch micro-benchmarks over a fixed synthetic problem:

* ``sequential`` — Algorithm 1, single-thread exact SCD (the normalizer);
* ``chunked`` — the A-SCD chunked-atomic CPU kernel;
* ``tpa_wave_planned`` — the TPA-SCD wave engine on its compiled/pooled
  :class:`~repro.gpu.plan.WavePlan` runtime;
* ``distributed`` — one full synchronous distributed epoch (K TPA workers,
  averaging aggregation, simulated fabric);
* ``serving`` — a full seeded traffic replay through the
  :class:`~repro.serve.server.ModelServer` (micro-batching + admission +
  scoring), gating scored-rows-per-second of the online serving layer;
* ``syscd_ref`` / ``syscd_threads`` — the SySCD solver's single-thread
  exact numpy reference vs its bucketed multi-thread replica-merge path
  (:mod:`repro.solvers.syscd`).  This pair is the repo's **measured**
  (wall-clock, not modelled) parallel-speedup gate:
  ``derived.syscd_measured_speedup`` must stay >= 2x at the profile's
  thread count.

``run_suite`` writes a ``repro.bench/v1`` payload with the **median**
wall-clock epoch time per case.  Baselines are committed at the repo root
as ``BENCH_PR<k>.json`` — one per landmark PR (``BENCH_PR10.json`` is the
newest); :func:`latest_baseline` resolves the current one and
:func:`render_trajectory` shows how each case moved across them.
Machines differ, so the regression gate compares
*normalized relative throughput* — each case's epoch rate divided by the
same run's ``sequential`` rate — which cancels the host's absolute speed:

    rel(case) = median_s(sequential) / median_s(case)

``compare`` flags any case whose normalized throughput dropped more than
``threshold`` (default 25%) versus the baseline payload.  Run it all via the
``repro bench`` CLI subcommand.
"""

from __future__ import annotations

import json
import re
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "BENCH_SCHEMA",
    "BenchProfile",
    "PROFILES",
    "run_suite",
    "validate_payload",
    "compare",
    "load_payload",
    "write_payload",
    "render_table",
    "find_baselines",
    "latest_baseline",
    "render_trajectory",
]

BENCH_SCHEMA = "repro.bench/v1"

#: cases whose normalized throughput is gated (sequential is the normalizer)
_GATED_CASES = (
    "chunked",
    "tpa_wave_planned",
    "distributed",
    "elastic_rebalance",
    "serving",
    "syscd_threads",
)

#: committed baseline file pattern at the repo root, one per landmark PR
_BASELINE_GLOB = "BENCH_PR*.json"


@dataclass(frozen=True)
class BenchProfile:
    """Pinned dimensions of one benchmark configuration."""

    name: str
    n_examples: int
    n_features: int
    nnz_per_example: int
    wave_size: int
    n_threads: int
    chunk_size: int
    n_workers: int
    reps: int
    warmup: int
    lam: float = 1e-3
    seed: int = 7
    #: feature-popularity exponent (1.0 = uniform).  The pinned suites use
    #: uniform popularity so every wave exercises the same kernel shape and
    #: the medians measure wave throughput, not tail-column skew.
    feature_exponent: float = 1.0
    #: SySCD measured-speedup scenario: worker threads, coordinates per
    #: bucket, and buckets per thread between replica merges
    syscd_threads: int = 4
    syscd_bucket: int = 64
    syscd_merge_every: int = 1


PROFILES: dict[str, BenchProfile] = {
    "default": BenchProfile(
        name="default",
        n_examples=4096,
        n_features=2048,
        nnz_per_example=24,
        wave_size=64,
        n_threads=256,
        chunk_size=16,
        n_workers=4,
        reps=15,
        warmup=3,
    ),
    "smoke": BenchProfile(
        name="smoke",
        n_examples=256,
        n_features=128,
        nnz_per_example=8,
        wave_size=16,
        n_threads=32,
        chunk_size=8,
        n_workers=2,
        reps=3,
        warmup=1,
        syscd_bucket=16,
    ),
}


def _problem(profile: BenchProfile):
    from ..data.synthetic import make_sparse_regression
    from ..objectives.ridge import RidgeProblem

    dataset = make_sparse_regression(
        profile.n_examples,
        profile.n_features,
        nnz_per_example=profile.nnz_per_example,
        feature_exponent=profile.feature_exponent,
        rng=np.random.default_rng(profile.seed),
        name=f"bench-{profile.name}",
    )
    return RidgeProblem(dataset, profile.lam)


def _time_epochs(run_one, profile: BenchProfile) -> list[float]:
    """Wall-time ``reps`` epochs after ``warmup`` untimed ones."""
    for _ in range(profile.warmup):
        run_one()
    times = []
    for _ in range(profile.reps):
        t0 = time.perf_counter()
        run_one()
        times.append(time.perf_counter() - t0)
    return times


def _bound_epoch_runner(factory, problem, profile: BenchProfile):
    """Bind a primal kernel and return a zero-arg one-epoch closure."""
    csc = problem.dataset.csc
    bound = factory.bind_primal(csc, problem.y, problem.n, problem.lam)
    beta = np.zeros(problem.m, dtype=bound.dtype)
    w = np.zeros(problem.n, dtype=bound.dtype)
    rng = np.random.default_rng(profile.seed + 1)

    def run_one():
        bound.run_epoch(beta, w, rng.permutation(problem.m), rng)

    return run_one


def _case_sequential(problem, profile: BenchProfile) -> list[float]:
    from ..solvers.scd import SequentialKernelFactory

    return _time_epochs(
        _bound_epoch_runner(SequentialKernelFactory(), problem, profile), profile
    )


def _case_chunked(problem, profile: BenchProfile) -> list[float]:
    from ..solvers.ascd import AsyncCpuKernelFactory

    factory = AsyncCpuKernelFactory(
        n_threads=profile.chunk_size, write_mode="atomic"
    )
    return _time_epochs(_bound_epoch_runner(factory, problem, profile), profile)


def _tpa_factory(profile: BenchProfile):
    from ..core.tpa_scd import TpaScdKernelFactory

    return TpaScdKernelFactory(
        n_threads=profile.n_threads, wave_size=profile.wave_size
    )


def _case_tpa(problem, profile: BenchProfile) -> list[float]:
    factory = _tpa_factory(profile)
    return _time_epochs(_bound_epoch_runner(factory, problem, profile), profile)


def _case_distributed(problem, profile: BenchProfile) -> list[float]:
    from ..core.distributed import DistributedSCD

    def run_one():
        engine = DistributedSCD(
            lambda rank: _tpa_factory(profile),
            "primal",
            n_workers=profile.n_workers,
            seed=profile.seed,
        )
        engine.solve(problem, 1, monitor_every=1)

    return _time_epochs(run_one, profile)


def _case_elastic_rebalance(problem, profile: BenchProfile) -> list[float]:
    """One elastic run per rep: a heterogeneous 4-rank cluster that loses a
    rank mid-run, regains one later, and rebalances from measured walls.

    This prices the full membership machinery — repartition with state
    carry-over, generation-salted worker rebinds, and the load balancer's
    EMA bookkeeping — not just a static epoch, so regressions in the elastic
    path show up even when the fixed-membership ``distributed`` case is flat.
    """
    from ..core.distributed import DistributedSCD
    from ..solvers.scd import SequentialKernelFactory

    n_epochs = 5

    def run_one():
        engine = DistributedSCD(
            SequentialKernelFactory(),
            "primal",
            n_workers=4,
            capacities=[2.0, 1.0, 1.0, 1.0],
            membership=[(2, "leave"), (4, "join")],
            rebalance_every=2,
            seed=profile.seed,
        )
        engine.solve(problem, n_epochs, monitor_every=n_epochs)

    return [t / n_epochs for t in _time_epochs(run_one, profile)]


def _case_serving(problem, profile: BenchProfile) -> tuple[list[float], int]:
    """Time a fixed seeded traffic replay; also returns the rows scored.

    One rep = admit every request through the micro-batching admission queue
    of a fresh :class:`~repro.serve.server.ModelServer` and drain it.  The
    request set is generated once (same seed → same arrivals across reps and
    machines), so wall-clock per rep is a clean scored-rows/sec measure.
    """
    from ..serve.server import ModelServer, ServeConfig
    from ..serve.snapshot import WeightSnapshot
    from ..serve.traffic import RequestSource, poisson_arrivals

    rate_hz = 20_000.0
    arrivals = poisson_arrivals(
        rate_hz, profile.n_examples / rate_hz, seed=profile.seed
    )
    source = RequestSource(problem.dataset.csr, seed=profile.seed)
    requests = source.requests(arrivals)
    n_rows = sum(r.n_rows for r in requests)
    snapshot = WeightSnapshot(
        version=1,
        weights=np.random.default_rng(profile.seed).standard_normal(problem.m),
    )
    config = ServeConfig()

    def run_one():
        server = ModelServer(snapshot, config=config)
        for req in requests:
            server.submit(req)
        server.drain()

    return _time_epochs(run_one, profile), n_rows


def _case_syscd(problem, profile: BenchProfile, n_threads: int) -> list[float]:
    """One SySCD epoch per rep: exact reference at 1 thread, bucketed above.

    The reference is pinned to the numpy backend (the bitwise-reference
    semantics); the threaded case uses ``kernel_backend="auto"`` so the
    measured speedup reflects whatever backend ships on the host.
    """
    from ..solvers.syscd import SyscdKernelFactory

    factory = SyscdKernelFactory(
        n_threads=n_threads,
        bucket_size=profile.syscd_bucket,
        merge_every=profile.syscd_merge_every,
        kernel_backend="numpy" if n_threads == 1 else "auto",
    )
    return _time_epochs(_bound_epoch_runner(factory, problem, profile), profile)


def run_suite(profile: str | BenchProfile = "default") -> dict:
    """Run every case of ``profile`` and return the ``repro.bench/v1`` payload."""
    from .. import __version__
    from ..gpu.plan import clear_plan_cache

    prof = PROFILES[profile] if isinstance(profile, str) else profile
    problem = _problem(prof)
    clear_plan_cache()

    cases: dict[str, dict] = {}

    def record(name: str, times: list[float]) -> None:
        med = statistics.median(times)
        cases[name] = {
            "median_s": med,
            "min_s": min(times),
            "reps": len(times),
            "epochs_per_s": (1.0 / med) if med > 0 else 0.0,
        }

    record("sequential", _case_sequential(problem, prof))
    record("chunked", _case_chunked(problem, prof))
    record("tpa_wave_planned", _case_tpa(problem, prof))
    record("distributed", _case_distributed(problem, prof))
    record("elastic_rebalance", _case_elastic_rebalance(problem, prof))
    record("syscd_ref", _case_syscd(problem, prof, 1))
    record("syscd_threads", _case_syscd(problem, prof, prof.syscd_threads))
    cases["syscd_threads"]["n_threads"] = prof.syscd_threads
    serving_times, serving_rows = _case_serving(problem, prof)
    record("serving", serving_times)
    cases["serving"]["rows_scored"] = serving_rows
    cases["serving"]["rows_per_s"] = (
        serving_rows / cases["serving"]["median_s"]
        if cases["serving"]["median_s"] > 0
        else 0.0
    )

    seq = cases["sequential"]["median_s"]
    normalized = {
        name: (seq / case["median_s"]) if case["median_s"] > 0 else 0.0
        for name, case in cases.items()
    }
    payload = {
        "schema": BENCH_SCHEMA,
        "version": __version__,
        "profile": prof.name,
        "params": {
            "n_examples": prof.n_examples,
            "n_features": prof.n_features,
            "nnz_per_example": prof.nnz_per_example,
            "wave_size": prof.wave_size,
            "n_threads": prof.n_threads,
            "chunk_size": prof.chunk_size,
            "n_workers": prof.n_workers,
            "reps": prof.reps,
            "warmup": prof.warmup,
            "seed": prof.seed,
            "feature_exponent": prof.feature_exponent,
            "syscd_threads": prof.syscd_threads,
            "syscd_bucket": prof.syscd_bucket,
            "syscd_merge_every": prof.syscd_merge_every,
        },
        "cases": cases,
        "derived": {
            "normalized_throughput": normalized,
            # wall-clock speedup of the threaded SySCD path over the
            # single-thread numpy reference — the measured (not modelled)
            # parallel-speedup gate
            "syscd_measured_speedup": (
                cases["syscd_ref"]["median_s"]
                / cases["syscd_threads"]["median_s"]
                if cases["syscd_threads"]["median_s"] > 0
                else 0.0
            ),
        },
    }
    validate_payload(payload)
    return payload


def validate_payload(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid ``repro.bench/v1``."""
    if not isinstance(payload, dict):
        raise ValueError("bench payload must be a JSON object")
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"bench schema must be {BENCH_SCHEMA!r}, got {payload.get('schema')!r}"
        )
    for key in ("version", "profile", "params", "cases", "derived"):
        if key not in payload:
            raise ValueError(f"bench payload missing {key!r}")
    cases = payload["cases"]
    if not isinstance(cases, dict) or "sequential" not in cases:
        raise ValueError("bench payload must contain a 'sequential' case")
    for name, case in cases.items():
        if not isinstance(case, dict):
            raise ValueError(f"case {name!r} must be an object")
        for field in ("median_s", "reps"):
            if field not in case:
                raise ValueError(f"case {name!r} missing {field!r}")
        if not isinstance(case["median_s"], (int, float)) or case["median_s"] < 0:
            raise ValueError(f"case {name!r} has invalid median_s")
    derived = payload["derived"]
    if "normalized_throughput" not in derived:
        raise ValueError("bench payload missing derived.normalized_throughput")


def compare(new: dict, baseline: dict, *, threshold: float = 0.25) -> list[str]:
    """Regression messages for any gated case that slowed down > ``threshold``.

    Throughput is normalized by each payload's own ``sequential`` median, so
    the comparison is valid across machines of different absolute speed.
    """
    validate_payload(new)
    validate_payload(baseline)
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    regressions = []
    new_rel = new["derived"]["normalized_throughput"]
    base_rel = baseline["derived"]["normalized_throughput"]
    for name in _GATED_CASES:
        if name not in new_rel or name not in base_rel:
            continue
        if base_rel[name] <= 0:
            continue
        ratio = new_rel[name] / base_rel[name]
        if ratio < 1.0 - threshold:
            regressions.append(
                f"{name}: normalized throughput {new_rel[name]:.3f} is "
                f"{(1.0 - ratio) * 100.0:.1f}% below baseline "
                f"{base_rel[name]:.3f} (threshold {threshold * 100.0:.0f}%)"
            )
    return regressions


def load_payload(path: str | Path) -> dict:
    payload = json.loads(Path(path).read_text())
    validate_payload(payload)
    return payload


def write_payload(payload: dict, path: str | Path) -> None:
    validate_payload(payload)
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")


def render_table(payload: dict) -> str:
    """Human-readable summary of one bench payload."""
    rows = [f"bench profile {payload['profile']!r}  (schema {payload['schema']})"]
    rows.append(f"{'case':<18} {'median':>12} {'epochs/s':>10} {'vs seq':>8}")
    rel = payload["derived"]["normalized_throughput"]
    for name, case in payload["cases"].items():
        rows.append(
            f"{name:<18} {case['median_s'] * 1e3:>10.3f}ms "
            f"{case.get('epochs_per_s', 0.0):>10.1f} {rel.get(name, 0.0):>7.2f}x"
        )
    syscd = payload["derived"].get("syscd_measured_speedup")
    if syscd is not None:
        threads = payload["cases"].get("syscd_threads", {}).get("n_threads", "?")
        rows.append(
            f"syscd measured speedup ({threads} threads vs 1): {syscd:.2f}x"
        )
    return "\n".join(rows)


def _baseline_key(path: Path) -> tuple[int, str]:
    """Sort key ordering ``BENCH_PR<k>.json`` numerically, others last."""
    match = re.fullmatch(r"BENCH_PR(\d+)\.json", path.name)
    if match:
        return (int(match.group(1)), path.name)
    return (10**9, path.name)


def find_baselines(root: str | Path = ".") -> list[Path]:
    """Committed ``BENCH_PR*.json`` baselines under ``root``, oldest first.

    Files are ordered by PR number (``BENCH_PR4`` < ``BENCH_PR6`` <
    ``BENCH_PR9`` — numeric, not lexicographic); unparsable names sort last
    alphabetically.  Invalid payloads are skipped rather than raising so a
    scratch file at the repo root cannot break the dashboard.
    """
    found = []
    for path in sorted(Path(root).glob(_BASELINE_GLOB), key=_baseline_key):
        try:
            load_payload(path)
        except (ValueError, OSError, json.JSONDecodeError):
            continue
        found.append(path)
    return found


def latest_baseline(root: str | Path = ".") -> Path | None:
    """The newest committed bench baseline under ``root`` (or ``None``)."""
    baselines = find_baselines(root)
    return baselines[-1] if baselines else None


def render_trajectory(paths: list[str | Path]) -> str:
    """Per-case normalized-throughput history across committed baselines.

    One row per case that appears in any payload, one column per baseline
    (oldest → newest), so ``repro bench --baseline`` can show how each
    scenario moved across landmark PRs instead of a single pairwise diff.
    """
    payloads = [(Path(p), load_payload(p)) for p in paths]
    if not payloads:
        return "no bench baselines found"
    names: list[str] = []
    for _, payload in payloads:
        for case in payload["derived"]["normalized_throughput"]:
            if case not in names:
                names.append(case)
    labels = [path.stem.removeprefix("BENCH_") for path, _ in payloads]
    width = max(8, *(len(label) for label in labels))
    rows = ["normalized throughput trajectory (vs each payload's own seq):"]
    rows.append(
        f"{'case':<18} " + " ".join(f"{label:>{width}}" for label in labels)
    )
    for case in names:
        cells = []
        for _, payload in payloads:
            rel = payload["derived"]["normalized_throughput"].get(case)
            cells.append(
                f"{rel:>{width - 1}.2f}x" if rel is not None else " " * width
            )
        rows.append(f"{case:<18} " + " ".join(cells))
    return "\n".join(rows)
