#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md and docs/REPRODUCTION.md from the claims table.

Every registered driver runs through the shared ``repro.eval`` runner (the
same registry, content-hash cache, and spans as ``repro eval``), so a
generator run after a ``repro eval`` sweep resumes every already-computed
cell instead of recomputing it.  Drivers run at the active scale
(``REPRO_SCALE``) for EXPERIMENTS.md and additionally at ``tiny`` for the
reproduction guide.  Whether a claim holds — the measured value, its band,
✓/✗ — comes from the registry's verdicts
(:meth:`repro.experiments.registry.DriverSpec.check`), never from prose.
Both documents end with a provenance footer recording the commit, scale,
and seeds that produced them.

Run:  python tools/generate_experiments_md.py [--jobs N] [--force]
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
from pathlib import Path

from repro.eval import collect_provenance, load_config, markdown_footer, run_drivers
from repro.experiments import active_scale
from repro.experiments.registry import REGISTRY
from repro.experiments.results import format_float

ROOT = Path(__file__).resolve().parent.parent


def fmt(x) -> str:
    if isinstance(x, (list, tuple)):
        return ", ".join(fmt(v) for v in x)
    if isinstance(x, (bool, int, str)) or x is None:
        return str(x)
    return format_float(x)


def cell(text: str) -> str:
    """``text`` safe inside a markdown table cell."""
    return text.replace("|", "\\|")


def series_lines(fig) -> list[str]:
    """The figure's data: a grid when every series shares one short x axis,
    otherwise each series' final point and scalar meta."""
    axes = {tuple(s.x) for s in fig.series}
    if len(axes) == 1 and 0 < len(fig.series[0].x) <= 8:
        first = fig.series[0]
        lines = [
            "| series | "
            + " | ".join(f"{first.x_name}={fmt(x)}" for x in first.x)
            + " |",
            "|---" * (len(first.x) + 1) + "|",
        ]
        lines += [
            f"| {cell(s.label)} | " + " | ".join(fmt(y) for y in s.y) + " |"
            for s in fig.series
        ]
    else:
        lines = ["| series | final x | final y | detail |", "|---|---|---|---|"]
        for s in fig.series:
            detail = ", ".join(
                f"{k} {fmt(v)}" for k, v in s.meta.items() if not isinstance(v, str)
            )
            lines.append(
                f"| {cell(s.label)} | {s.x_name} {fmt(s.x[-1])} | "
                f"{s.y_name} {fmt(s.y[-1])} | {detail} |"
            )
    meta = [f"{k} {fmt(v)}" for k, v in fig.meta.items() if k != "scale"]
    lines += [""] + (["- " + "; ".join(meta)] if meta else [])
    lines += [f"- {note}" for note in fig.notes]
    return lines + [""]


def claims_lines(verdicts) -> list[str]:
    lines = ["| | claim | paper | says | measured | band |", "|---|---|---|---|---|---|"]
    for v in verdicts:
        c = v.claim
        lines.append(
            f"| {v.mark} | `{c.claim_id}` | {c.figure} | {cell(c.sentence)} | "
            f"{v.measured()} | {c.band} |"
        )
    return lines + [""]


def kernel_runtime_section() -> list[str]:
    """The pinned-bench summary, from the newest committed baseline payload."""
    from repro.perf.bench import latest_baseline, load_payload

    newest = latest_baseline(ROOT)
    payload = load_payload(newest)
    p = payload["params"]
    rel = payload["derived"]["normalized_throughput"]
    lines = [
        "## Kernel runtime (pinned bench suite, `python -m repro bench`)",
        "",
        f"From the newest committed baseline `{newest.name}` — profile"
        f" `{payload['profile']}`: {p['n_examples']}x{p['n_features']},"
        f" {p['nnz_per_example']} nnz/example, wave {p['wave_size']},"
        f" {p['n_threads']} threads; median of {p['reps']} epochs."
        " Throughput is normalized by the run's own sequential case, which"
        " is what the CI regression gate compares (`docs/performance.md`).",
        "",
        "| case | median epoch | vs sequential |",
        "|---|---|---|",
    ]
    for name, case in payload["cases"].items():
        if name == "tpa_wave_seed":  # retired loop, only in old baselines
            continue
        lines.append(
            f"| {name} | {case['median_s'] * 1e3:.2f} ms "
            f"| {rel.get(name, 0.0):.2f}x |"
        )
    lines.append("")
    syscd = payload["derived"].get("syscd_measured_speedup")
    if syscd is not None:
        threads = payload["cases"]["syscd_threads"].get("n_threads", "?")
        lines += [
            f"SySCD threaded path vs its exact single-thread numpy reference "
            f"(**measured** wall-clock, not modelled): **{syscd:.2f}x** at "
            f"{threads} threads; reported, not a claim (`docs/performance.md`).",
            "",
        ]
    return lines


def experiments_md(run, scale: str) -> list[str]:
    lines = [
        "# EXPERIMENTS — paper vs measured",
        "",
        "Auto-generated by `tools/generate_experiments_md.py` at scale "
        f"`{scale}` (`REPRO_SCALE={scale}`).",
        "",
        "All *time* quantities are modelled seconds from the calibrated device",
        "models pricing the **paper-scale** workloads (webspam: 262,938 x",
        "680,715, ~1e9 nnz; criteo: 200M x 75M, ~5.2e9 nnz) — see DESIGN.md",
        "for the substitution rationale.  Absolute epoch counts differ from",
        "the paper (the reproduction datasets are ~100x smaller synthetic",
        "stand-ins with a calibrated lambda, see `repro/experiments/config.py`);",
        "the *shapes* — who wins, by what factor, where crossovers fall — are",
        "the reproduction targets.  Each section ends with its driver's claims",
        "table: the measured value, the band it must fall in, and the verdict",
        "(✓ holds, ✗ fails, – not asserted below the claim's smallest scale),",
        "all from the claims declared next to the driver.",
        "",
    ]
    for r in run.results:
        spec = REGISTRY[r.cell.driver_id]
        lines += [f"## {spec.title}", ""]
        lines += series_lines(r.figure)
        lines += claims_lines(r.verdicts)
    lines += kernel_runtime_section()
    return lines


def reproduction_md(runs: dict) -> list[str]:
    """docs/REPRODUCTION.md: figure -> command -> claims -> driver seconds."""
    configs = [load_config(p) for p in sorted((ROOT / "configs").glob("*.toml"))]
    scales = list(runs)
    total = {s: sum(r.elapsed_s for r in run.results) for s, run in runs.items()}
    cost = ", ".join(f"{total[s]:.1f} s at `{s}`" for s in scales)
    lines = [
        "# Reproduction Guide",
        "",
        "Every claim this repository reproduces from *Large-Scale Stochastic",
        "Learning Using GPUs* is declared once, next to its driver, as an",
        "executable assertion: a measure over the driver's figure, the band",
        "the measured value must fall in, and the smallest shipped scale at",
        "which it holds.  This guide is generated from that table by",
        "`tools/generate_experiments_md.py`; EXPERIMENTS.md shows the data.",
        "",
        f"Running every driver once takes {cost} (measured driver",
        f"wall-clock on the {os.cpu_count()}-core {platform.machine()} host",
        "that generated this file, cells run in parallel; a resumed cell",
        "keeps the seconds of the run that computed it).",
        "",
        "## Settings",
        "",
        "- **Scales.** `tiny` (sub-second drivers, CI smoke), `quick` (the",
        "  default, seconds per driver), `full` (minutes).  Select with",
        "  `--scale` or `REPRO_SCALE`.",
        "- **What \"reproduced\" means.** A claim is asserted at its smallest",
        "  scale and every larger one; below it the verdict is `–` (shown,",
        "  never failed).  `repro eval` renders the verdicts beside each",
        "  figure and exits 1 when any asserted claim fails; the tier-1 suite",
        "  (`tests/test_experiments.py`) runs every claim at its smallest scale.",
        "- **One command for everything.** `python -m repro eval",
        "  configs/paper.toml` runs every paper figure, ablation and",
        "  extension; the scenario configs cover the rest.",
        "",
        "## Experiments",
        "",
    ]
    for i, spec in enumerate(REGISTRY.values()):
        commands = " or ".join(
            f"`python -m repro eval {Path(c.source).relative_to(ROOT)}`"
            for c in configs
            if spec.driver_id in c.drivers
        )
        results = {s: runs[s].results[i] for s in scales}
        seconds = ", ".join(f"{results[s].elapsed_s:.2f} s at `{s}`" for s in scales)
        lines += [
            f"### `{spec.driver_id}` — {spec.title}",
            "",
            f"- command: {commands}",
            f"- driver seconds: {seconds}",
            "",
            "| claim | paper | band | smallest scale | "
            + " | ".join(f"`{s}`" for s in scales)
            + " |",
            "|---" * (4 + len(scales)) + "|",
        ]
        for j, claim in enumerate(spec.claims):
            cells = " | ".join(
                f"{v.mark} {v.measured() if v.status != 'skip' else ''}".strip()
                for v in (results[s].verdicts[j] for s in scales)
            )
            lines.append(
                f"| `{claim.claim_id}` | {claim.figure} | {claim.band} | "
                f"`{claim.scale}` | {cells} |"
            )
        lines.append("")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--jobs", type=int, default=0,
        help="parallel cell workers (0 = cpu count, default)",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="recompute every driver, ignoring the eval cache",
    )
    args = parser.parse_args()

    scale = active_scale().name
    runs = {
        s: run_drivers(list(REGISTRY), scale=s, jobs=args.jobs, force=args.force)
        for s in dict.fromkeys(("tiny", scale))
    }
    footer = markdown_footer(collect_provenance(seeds=[0]))
    for path, lines in (
        (ROOT / "EXPERIMENTS.md", experiments_md(runs[scale], scale)),
        (ROOT / "docs" / "REPRODUCTION.md", reproduction_md(runs)),
    ):
        path.write_text("\n".join(lines + footer), encoding="utf-8")
        print(f"wrote {path} ({len(lines)} lines)")
    failed = sum(len(run.failed_claims()) for run in runs.values())
    if failed:
        print(f"{failed} claim verdict(s) failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
