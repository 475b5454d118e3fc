"""Command-line interface: list and run the reproduction experiments.

Usage::

    python -m repro list                      # all experiment ids
    python -m repro run fig2                  # regenerate one figure
    python -m repro run fig2 --scale full     # at the larger scale
    python -m repro run fig2 --json           # machine-readable series dump
    python -m repro trace fig2 --scale tiny   # Chrome-trace + metrics export
    python -m repro info                      # paper + substitution summary
    python -m repro faults                    # named fault-injection scenarios
    python -m repro shards pack out/          # pack a dataset into a shard set
    python -m repro shards info out/          # inspect a packed shard set
    python -m repro serve                     # train-to-serve hot-swap demo
    python -m repro eval configs/fig1.toml    # declarative eval -> HTML report
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .experiments import ALL_EXPERIMENTS, SCALES, active_scale

__all__ = ["main", "build_parser"]

_INFO = """\
repro {version} — reproduction of 'Large-Scale Stochastic Learning using
GPUs' (Parnell et al., IPPS 2017, arXiv:1702.07005).

Implements TPA-SCD on a simulated GPU substrate, distributed SCD with
adaptive aggregation over a simulated cluster fabric, the CPU baselines
(sequential SCD, A-SCD, PASSCoDe-Wild), and drivers regenerating every
figure of the paper's evaluation plus ablations and extensions.

Hardware substitutions (full rationale in DESIGN.md):
  GPUs     -> wave-scheduled thread-block emulation + roofline timing
  cluster  -> in-process MPI-style collectives + link cost models
  datasets -> synthetic webspam-/criteo-like generators, paper-scale priced

Scales: {scales} (select with --scale or REPRO_SCALE).
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Large-Scale Stochastic Learning using GPUs'.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all experiment ids")
    sub.add_parser("info", help="describe the reproduction")
    sub.add_parser(
        "faults",
        help="list the named fault-injection scenarios "
        "(run them via ext-fault-tolerance / ext-fault-breakdown)",
    )

    run = sub.add_parser("run", help="run one experiment and print its series")
    run.add_argument("experiment", choices=sorted(ALL_EXPERIMENTS))
    run.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="dataset scale (default: REPRO_SCALE or 'quick')",
    )
    run.add_argument(
        "--max-rows",
        type=int,
        default=10,
        help="points printed per series",
    )
    run.add_argument(
        "--plot",
        action="store_true",
        help="draw the series as an ASCII log-plot instead of tables",
    )
    run.add_argument(
        "--series",
        default=None,
        help="with --plot: only series whose label contains this substring",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="emit the figure as JSON (schema repro.run/v1) instead of text",
    )
    run.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="with --json: write to PATH instead of stdout",
    )

    trace = sub.add_parser(
        "trace",
        help="run one experiment under the tracer and export Chrome-trace "
        "JSON, a metrics dump, and an ASCII flame summary",
    )
    trace.add_argument("experiment", choices=sorted(ALL_EXPERIMENTS))
    trace.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="dataset scale (default: REPRO_SCALE or 'quick')",
    )
    trace.add_argument(
        "--out-dir",
        default="traces",
        metavar="DIR",
        help="directory for <exp>-<scale>.trace.json / .metrics.json",
    )
    trace.add_argument(
        "--detail",
        choices=["epoch", "wave"],
        default="epoch",
        help="span granularity: per-epoch (default) or per-GPU-wave",
    )

    shards = sub.add_parser(
        "shards",
        help="pack datasets into out-of-core shard sets and inspect them",
    )
    shards_sub = shards.add_subparsers(dest="shards_command", required=True)
    pack = shards_sub.add_parser(
        "pack", help="pack a synthetic dataset into an on-disk shard set"
    )
    pack.add_argument("out_dir", help="directory for the shard set")
    pack.add_argument(
        "--dataset",
        choices=["webspam", "criteo"],
        default="criteo",
        help="synthetic dataset family (default: criteo)",
    )
    pack.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="dataset scale (default: REPRO_SCALE or 'quick')",
    )
    pack.add_argument(
        "--axis",
        choices=["rows", "cols"],
        default="rows",
        help="major axis to slice: rows (dual/examples) or cols (primal)",
    )
    pack.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="number of shards (default: byte-balanced 8)",
    )
    info = shards_sub.add_parser("info", help="describe a packed shard set")
    info.add_argument("shard_dir", help="directory holding the shard set")
    info.add_argument(
        "--verify",
        action="store_true",
        help="re-read every shard and check its checksum",
    )

    serve = sub.add_parser(
        "serve",
        help="run the train-to-serve demo: train, hot-swap published weight "
        "versions under seeded traffic, audit responses against the oracle",
    )
    serve.add_argument(
        "--solver",
        default="seq",
        help="training engine (any repro.train solver alias; default: seq)",
    )
    serve.add_argument(
        "--epochs", type=int, default=12, help="training epochs (default 12)"
    )
    serve.add_argument(
        "--publish-every",
        type=int,
        default=3,
        help="publish a weight version every N epochs (default 3)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=2000.0,
        help="mean request arrival rate in Hz (default 2000)",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=1.0,
        help="modelled traffic window in seconds (default 1.0)",
    )
    serve.add_argument(
        "--seed", type=int, default=0, help="master seed (default 0)"
    )
    serve.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the serving run's Chrome-trace JSON to PATH",
    )
    serve.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON (schema repro.serve/v1) instead of text",
    )

    ev = sub.add_parser(
        "eval",
        help="run a declarative experiment config (configs/*.toml) through "
        "the resumable eval runner and render a self-contained HTML report; "
        "exits 1 when a paper claim of any cell fails",
    )
    ev.add_argument("config", help="path to the experiment config TOML")
    ev.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="override every cell's scale (replaces the config's scale axis)",
    )
    ev.add_argument(
        "--out-dir",
        default="eval-reports",
        metavar="DIR",
        help="directory for the HTML report (default: eval-reports)",
    )
    ev.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cell result cache (default: .eval-cache)",
    )
    ev.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="parallel cell workers, 0 = cpu count (default: config [run] jobs)",
    )
    ev.add_argument(
        "--force",
        action="store_true",
        help="recompute every cell, ignoring cached results",
    )
    ev.add_argument(
        "--no-bench",
        action="store_true",
        help="leave the committed benchmark record out of the report's bench section",
    )
    ev.add_argument(
        "--json",
        action="store_true",
        help="emit a run summary as JSON (schema repro.eval/v1) after the report",
    )
    return parser


def _cmd_eval(args) -> int:
    from .eval import DEFAULT_CACHE_DIR, ConfigError, run_eval

    try:
        run, report_path = run_eval(
            args.config,
            scale=args.scale,
            out_dir=args.out_dir,
            cache_dir=args.cache_dir or DEFAULT_CACHE_DIR,
            jobs=args.jobs,
            force=args.force,
            run_bench=not args.no_bench,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    failed = run.failed_claims()
    for cell, verdict in failed:
        print(
            f"claim failed: {cell.cell_id}: {verdict.claim.claim_id} measured "
            f"{verdict.measured()}, band {verdict.claim.band}",
            file=sys.stderr,
        )
    if args.json:
        print(
            json.dumps(
                {
                    "schema": "repro.eval/v1",
                    "version": __version__,
                    "experiment": run.plan.config.experiment_id,
                    "config": args.config,
                    "cells": len(run.plan),
                    "executed": run.executed,
                    "resumed": run.resumed,
                    "elapsed_s": run.elapsed_s,
                    "cache_dir": run.cache_dir,
                    "report": str(report_path),
                    "claims_failed": len(failed),
                },
                indent=2,
            )
        )
    else:
        print(run.plan.describe())
        for r in run.results:
            status = "resumed " if r.cached else "executed"
            print(
                f"  {status}  {r.cell.cell_id}  "
                f"[{r.cell.short_hash}]  {r.elapsed_s:.3f}s"
            )
        print(
            f"{run.executed} executed, {run.resumed} resumed "
            f"({run.elapsed_s:.2f}s wall clock), {len(failed)} claim(s) failed"
        )
        print(f"report: {report_path}")
    return 1 if failed else 0


def _cmd_serve(args) -> int:
    from .obs import chrome_trace, validate_chrome_trace, write_chrome_trace
    from .serve import train_to_serve

    report = train_to_serve(
        solver=args.solver,
        n_epochs=args.epochs,
        publish_every=args.publish_every,
        rate_hz=args.rate,
        duration_s=args.duration,
        seed=args.seed,
    )
    validate_chrome_trace(chrome_trace(report.tracer))
    if args.trace_out:
        write_chrome_trace(report.tracer, args.trace_out)
    summary = {
        "schema": "repro.serve/v1",
        "version": __version__,
        "solver": report.solver,
        "requests": report.n_requests,
        "served": report.n_served,
        "shed": report.n_shed,
        "versions_published": report.versions_published,
        "versions_served": report.versions_served,
        "fingerprints": [f"{fp:#010x}" for fp in report.fingerprints],
        "staleness_at_swaps": [
            {"version": v, "before": b, "after": a}
            for v, b, a in report.staleness_at_swaps
        ],
        "oracle_mismatches": len(report.oracle_mismatches),
        "p50_latency_s": report.p50_latency_s,
        "p99_latency_s": report.p99_latency_s,
        "ok": report.ok,
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"train-to-serve demo  ({report.solver})")
        print(
            f"  requests: {report.n_requests}  served: {report.n_served}  "
            f"shed: {report.n_shed}"
        )
        print(
            f"  versions served: {report.versions_served} "
            f"(published {report.versions_published})"
        )
        print(
            "  fingerprints: "
            + " ".join(f"{fp:#010x}" for fp in report.fingerprints)
        )
        for v, before, after in report.staleness_at_swaps:
            print(f"  swap -> v{v}: staleness {before} -> {after} epochs")
        print(
            f"  latency p50 {report.p50_latency_s * 1e3:.3f}ms  "
            f"p99 {report.p99_latency_s * 1e3:.3f}ms"
        )
        print(
            "  oracle audit: "
            + (
                "all responses bit-identical"
                if not report.oracle_mismatches
                else f"{len(report.oracle_mismatches)} MISMATCHES"
            )
        )
        if args.trace_out:
            print(f"  trace:   {args.trace_out}")
        print("  OK" if report.ok else "  FAILED")
    return 0 if report.ok else 1


def _cmd_trace(args) -> int:
    from .obs import (
        Tracer,
        flame_summary,
        use_tracer,
        write_chrome_trace,
        write_metrics_json,
    )

    scale = SCALES[args.scale] if args.scale else active_scale()
    tracer = Tracer(detail=args.detail)
    with use_tracer(tracer):
        fig = ALL_EXPERIMENTS[args.experiment](scale)
    out_dir = Path(args.out_dir)
    stem = f"{args.experiment}-{scale.name}"
    trace_path = out_dir / f"{stem}.trace.json"
    metrics_path = out_dir / f"{stem}.metrics.json"
    write_chrome_trace(tracer, trace_path)
    write_metrics_json(tracer, metrics_path)
    print(flame_summary(tracer))
    print()
    print(f"figure:  {fig.figure_id}: {fig.title}")
    print(f"trace:   {trace_path}")
    print(f"metrics: {metrics_path}")
    return 0


def _cmd_shards(args) -> int:
    from .shards import ShardStore, pack_dataset

    if args.shards_command == "pack":
        from .experiments.config import criteo_problem, webspam_problem

        scale = SCALES[args.scale] if args.scale else active_scale()
        build = criteo_problem if args.dataset == "criteo" else webspam_problem
        problem, _ = build(scale)
        manifest = pack_dataset(
            problem.dataset, args.out_dir, axis=args.axis, n_shards=args.shards
        )
        print(
            f"packed {manifest.name!r}: {len(manifest.shards)} "
            f"{manifest.axis}-axis shards, {manifest.total_nbytes:,} bytes "
            f"-> {args.out_dir}"
        )
        for meta in manifest.shards:
            print(
                f"  shard {meta.shard_id:3d}  [{meta.start:>8}, {meta.stop:>8})"
                f"  {meta.nbytes:>12,} B  nnz={meta.nnz:,}"
            )
        return 0

    store = ShardStore(args.shard_dir, verify_checksums=args.verify)
    m = store.manifest
    print(f"shard set {m.name!r}  ({args.shard_dir})")
    print(f"  axis:    {m.axis}")
    print(f"  matrix:  {m.shape[0]} x {m.shape[1]}  dtype={m.dtype}")
    print(f"  bytes:   {m.total_nbytes:,} across {len(m.shards)} shards")
    for meta in m.shards:
        status = ""
        if args.verify:
            store.read(meta.shard_id)  # raises on checksum mismatch
            status = "  crc ok"
        print(
            f"  shard {meta.shard_id:3d}  [{meta.start:>8}, {meta.stop:>8})"
            f"  {meta.nbytes:>12,} B  nnz={meta.nnz:,}{status}"
        )
    if args.verify:
        print("all checksums verified")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            for name in sorted(ALL_EXPERIMENTS):
                print(name)
            return 0
        if args.command == "info":
            print(
                _INFO.format(version=__version__, scales=", ".join(sorted(SCALES)))
            )
            return 0
        if args.command == "faults":
            from .experiments.faults import scenario_table

            print(scenario_table())
            return 0
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "shards":
            return _cmd_shards(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "run":
            scale = SCALES[args.scale] if args.scale else active_scale()
            fig = ALL_EXPERIMENTS[args.experiment](scale)
            if args.json:
                payload = {
                    "schema": "repro.run/v1",
                    "version": __version__,
                    "experiment": args.experiment,
                    "scale": scale.name,
                    "figure": fig.to_dict(),
                }
                text = json.dumps(payload, indent=2)
                if args.out:
                    out = Path(args.out)
                    out.parent.mkdir(parents=True, exist_ok=True)
                    out.write_text(text + "\n")
                    print(f"wrote {out}")
                else:
                    print(text)
            elif args.plot:
                from .experiments.ascii_plot import ascii_plot

                print(ascii_plot(fig, label_filter=args.series))
            else:
                print(fig.render_text(max_rows=args.max_rows))
            return 0
    except BrokenPipeError:  # output piped to a pager that quit early
        return 0
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
