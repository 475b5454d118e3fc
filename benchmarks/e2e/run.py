"""End-to-end benchmark: time to a user-visible outcome, and where it went.

    python3 benchmarks/e2e/run.py                      # every workload, one child each
    python3 benchmarks/e2e/run.py --workload tpa_primal --seed 3 --seconds 6 --trace 1

With exactly one ``--workload`` the measurement runs in this process and the
last line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Otherwise each workload is run in a
fresh child process, one after another, and every metric is printed by name.

``BENCHMARK.json`` at the repository root declares the workloads and the
metrics; README.md in this directory says what each one is for.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
WORK_ROOT = HERE / ".work"
SCHEMA = "repro.e2e/v1"
#: a per-layer metric whose entry point no longer resolves is ``null`` in the
#: result file; the driver's result line carries numbers only
UNRESOLVED = -1.0
MIN_REPS = 3


def load_declaration() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def summarize(values: list[float]) -> dict:
    """Median (the metric), and the noise recorded next to it."""
    ordered = sorted(values)
    if len(ordered) > 1:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered), "min": ordered[0], "max": ordered[-1],
        "iqr": q3 - q1, "reps": len(ordered),
    }


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Linux reports ``ru_maxrss`` in KiB; the eval workloads peak in a child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def calibrate() -> dict[str, float]:
    """A fixed scipy mat-vec and a 64 MB copy: a slow host, or a slow program?"""
    import numpy as np
    import scipy.sparse as sp

    rng = np.random.default_rng(0)
    n, nnz = 20000, 400_000
    matrix = sp.csr_matrix(
        (rng.standard_normal(nnz), (rng.integers(0, n, nnz), rng.integers(0, n, nnz))),
        shape=(n, n),
    )
    x = np.ones(n)
    src = np.ones(8 * 2**20)
    dst = np.empty_like(src)
    matvecs, copies = [], []
    for _ in range(30):
        t0 = time.perf_counter()
        matrix @ x
        matvecs.append(time.perf_counter() - t0)
    for _ in range(10):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        copies.append(time.perf_counter() - t0)
    return {
        "host.calib_matvec_s": statistics.median(matvecs),
        "host.calib_memcpy_gbps": src.nbytes / statistics.median(copies) / 1e9,
    }


def import_seconds(reps: int) -> float:
    """Median wall of ``python -c "import repro"`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _timed_rep(workload, recorder=None):
    """One rep of the operation: ``(wall s, cpu s, result)``."""
    workload.before_rep()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    if recorder is None:
        result = workload.run(False)
    else:
        with recorder.span(layers.ROOT_SPAN):
            result = workload.run(True)
    wall = time.perf_counter() - t0
    return wall, _cpu_seconds() - cpu0, result


def measure(name: str, *, seed: int, seconds: float, trace: bool, smoke: bool,
            trace_dir: Path | None = None) -> dict:
    """Set-up, an untimed first rep, timed reps for ``seconds``, then a traced rep."""
    import workloads  # imports repro: only once main() has found src/

    declaration = load_declaration()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        workload = workloads.make_workload(name, smoke=smoke, seed=seed, workdir=workdir)
        setup_reps = 1 if smoke else workload.setup_reps
        import_s = import_seconds(setup_reps)
        setups = []
        for _ in range(setup_reps):
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)

        first_rep_s, _, result = _timed_rep(workload)
        outcomes = [workload.outcome(result)]
        walls, cpus = [], []
        deadline = time.perf_counter() + seconds
        while len(walls) < MIN_REPS or time.perf_counter() < deadline:
            wall, cpu, result = _timed_rep(workload)
            walls.append(wall)
            cpus.append(cpu)
            outcomes.append(workload.outcome(result))
            if len(walls) == MIN_REPS:
                # read after a fixed amount of work: a faster program fits more
                # reps into the window, and whatever a rep leaves behind (plans
                # cached per bound matrix) would otherwise count against it
                peak_rss_mb = _peak_rss_mb()
        timed = outcomes[1:]

        failures = [msg for o in outcomes for msg in o.failures]
        failed = sum(o.failed for o in timed)
        if len({o.fingerprint for o in outcomes}) > 1:
            failures.append("weights fingerprint differs between reps")
            failed = max(failed, 1)
        final = workload.final_check(result)
        if final:
            failures += final
            failed = max(failed, 1)
        attempted = sum(o.attempted for o in timed)

        e2e = {
            "setup_s": dict(summarize([import_s + t for t in setups]), import_s=import_s),
            "time_to_target_s": summarize(walls),
            "work_per_s": summarize([o.work / w for o, w in zip(timed, walls)]),
            "cpu_s": summarize(cpus),
            "peak_rss_mb": summarize([peak_rss_mb]),
        }
        units = {m["name"]: m["unit"] for m in declaration["end_to_end"]}
        for metric, stats in e2e.items():
            stats["unit"] = units[metric]

        record = {
            "workload": name, "seed": seed, "seconds": seconds,
            "label": "smoke" if smoke else "full",
            "e2e": e2e,
            "epochs_to_target": timed[-1].epochs,
            "checks": {"attempted": attempted, "failed": failed, "failures": failures},
        }
        if trace:
            record["per_layer"] = _traced(
                workload, declaration, record, first_rep_s, import_s, trace_dir
            )
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced(workload, declaration, record, first_rep_s, import_s, trace_dir) -> dict:
    """One more set-up and one more rep with the layer trace installed."""
    counters = calibrate()
    recorder = layers.SpanRecorder()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with layers.installed(recorder):
            workload.setup()
            wall, _, result = _timed_rep(workload, recorder)
            rolled = layers.rollup(recorder.spans)
            counters.update(workload.counters(result, recorder, rolled))
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    outcome = workload.outcome(result)
    if outcome.failures:
        record["checks"]["failures"] += [f"traced rep: {m}" for m in outcome.failures]
        record["checks"]["failed"] = max(record["checks"]["failed"], 1)

    median = record["e2e"]["time_to_target_s"]["median"]
    root = rolled.get(layers.ROOT_SPAN, {"busy_s": wall, "self_s": wall})
    checks_ = record["checks"]
    counters.update({
        "cli.import_s": import_s,
        "bench.first_rep_s": first_rep_s,
        "bench.reps": record["e2e"]["time_to_target_s"]["reps"],
        "bench.epochs_to_target": outcome.epochs,
        "bench.failed_frac": checks_["failed"] / max(1, checks_["attempted"]),
        "obs.trace_overhead_frac": (wall - median) / median,
        "obs.layer_coverage_frac": 1.0 - root["self_s"] / root["busy_s"],
        "obs.spans": len(recorder.spans),
    })
    names = [m["name"] for m in declaration["per_layer"]]
    values = layers.layer_metrics(names, rolled, counters, recorder.unresolved)
    units = {m["name"]: m["unit"] for m in declaration["per_layer"]}
    if trace_dir is not None:
        out = trace_dir / workload.name
        out.mkdir(parents=True, exist_ok=True)
        (out / "spans.json").write_text(
            json.dumps(recorder.as_dicts(workload.name, "traced")), encoding="utf-8"
        )
        (out / "layers.json").write_text(
            json.dumps({"rollup": rolled, "metrics": values}, indent=1), encoding="utf-8"
        )
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def result_line(record: dict, trace: bool) -> dict:
    """The object the driver reads from the last line of standard output."""
    if trace:
        metrics = {
            k: {"value": UNRESOLVED if v["value"] is None else v["value"], "unit": v["unit"]}
            for k, v in record["per_layer"].items()
        }
    else:
        metrics = {
            k: {"value": v["median"], "unit": v["unit"]} for k, v in record["e2e"].items()
        }
    checks_ = record["checks"]
    return {
        "correct": checks_["failed"] == 0 and not checks_["failures"],
        "attempted": checks_["attempted"],
        "failed": checks_["failed"],
        "metrics": metrics,
    }


def print_record(record: dict) -> None:
    name = record["workload"]
    for metric, s in record["e2e"].items():
        print(
            f"{name:18s} {metric:20s} {s['median']:14.6g} {s['unit']:6s} "
            f"min {s['min']:.6g}  max {s['max']:.6g}  iqr {s['iqr']:.3g}  reps {s['reps']}"
        )
    for metric, v in record.get("per_layer", {}).items():
        value = "null" if v["value"] is None else f"{v['value']:.6g}"
        print(f"{name:18s} {metric:32s} {value:>14s} {v['unit']}")
    checks_ = record["checks"]
    print(
        f"{name:18s} checks: {checks_['attempted']} attempted, {checks_['failed']} failed, "
        f"epochs_to_target {record['epochs_to_target']}"
    )
    for message in checks_["failures"]:
        print(f"{name:18s} FAILED: {message}")


def run_suite(args, names: list[str]) -> int:
    """Each workload in a fresh child process, one after another."""
    WORK_ROOT.mkdir(exist_ok=True)
    records = {}
    status = 0
    for name in names:
        with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
            out = Path(tmp) / "record.json"
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", "1", "--out", str(out),
            ]
            if args.smoke:
                cmd.append("--smoke")
            if args.trace_dir:
                cmd += ["--trace-dir", str(Path(args.trace_dir).resolve())]
            proc = subprocess.run(cmd, cwd=REPO_ROOT, stdout=subprocess.DEVNULL, check=False)
            if not out.is_file():
                print(f"{name}: no result (exit code {proc.returncode})")
                status = 1
                continue
            records[name] = json.loads(out.read_text(encoding="utf-8"))
        print_record(records[name])
        if proc.returncode != 0:
            status = 1
    payload = {
        "schema": SCHEMA, "label": "smoke" if args.smoke else "full",
        "seed": args.seed, "seconds": args.seconds, "workloads": records,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=1), encoding="utf-8")
    print("all checks passed" if status == 0 else "CHECKS FAILED")
    return status


def main(argv=None) -> int:
    if not (REPO_ROOT / "src" / "repro").is_dir() or not (REPO_ROOT / "BENCHMARK.json").is_file():
        print("benchmarks/e2e needs the repository around it (src/repro, BENCHMARK.json)",
              file=sys.stderr)
        return 2
    declaration = load_declaration()
    known = [w["name"] for w in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=known, default=[])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the timed reps run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result (JSON) here")
    parser.add_argument("--trace-dir", help="write spans.json and layers.json per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: proves the harness runs, compares with nothing")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.2 if args.smoke else float(declaration["run_seconds"])

    # the host has 2 cores: BLAS worker threads would spin next to SySCD's two
    # threads and the shard prefetcher, and make cpu_s a copy of the wall clock
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if str(REPO_ROOT / "src") not in sys.path:
        sys.path.insert(0, str(REPO_ROOT / "src"))
    if len(args.workload) != 1:
        return run_suite(args, args.workload or known)

    trace_dir = Path(args.trace_dir) if args.trace_dir else None
    record = measure(
        args.workload[0], seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), smoke=args.smoke, trace_dir=trace_dir,
    )
    print_record(record)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1), encoding="utf-8")
    line = result_line(record, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
