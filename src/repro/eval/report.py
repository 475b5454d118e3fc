"""Render an :class:`~repro.eval.runner.EvalRun` into one self-contained HTML file.

The report needs no network, no JS libraries, and no external assets: charts
are inline SVG (:mod:`repro.eval.svg`), styling is one embedded stylesheet,
and tooltips are native SVG ``<title>`` elements.  Sections (selected by the
config's ``[report] sections``):

* **figures** — per cell, the verdict on each paper claim its driver
  declares (measured value, band, ✓/✗), then one convergence/line chart per
  (x, y) axis pair, its data table and the driver notes;
* **ledger** — Fig. 9-style modelled-time breakdowns: a stacked bar across
  cells plus the per-component table;
* **bench** — the kernel micro-benchmark suite re-run at report time and
  diffed against a committed ``BENCH_*.json`` baseline, with the regression
  gate's verdict per case.

Every run summary row links the cell's Chrome trace sidecar, and the page
ends with the provenance footer (commit, scale, seeds, versions).
"""

from __future__ import annotations

import math
from html import escape
from pathlib import Path

from ..perf.ledger import COMPONENTS
from .provenance import collect_provenance, html_footer
from .runner import EvalRun
from .svg import CHROME, line_plot, stacked_bar

__all__ = ["build_report", "render_report"]

_STYLE = f"""
:root {{
  --surface: {CHROME["surface"]};
  --ink: {CHROME["ink"]};
  --ink2: {CHROME["ink2"]};
  --muted: {CHROME["muted"]};
  --grid: {CHROME["grid"]};
  --axis: {CHROME["axis"]};
}}
html {{ background: var(--surface); }}
body {{
  font-family: system-ui, sans-serif; color: var(--ink);
  max-width: 860px; margin: 2rem auto; padding: 0 1rem; line-height: 1.45;
}}
h1 {{ font-size: 1.45rem; margin-bottom: 0.2rem; }}
h2 {{ font-size: 1.15rem; margin-top: 2.2rem; border-bottom: 1px solid var(--grid);
     padding-bottom: 0.25rem; }}
h3 {{ font-size: 1rem; margin-top: 1.6rem; }}
p.desc {{ color: var(--ink2); margin-top: 0.2rem; }}
table {{ border-collapse: collapse; margin: 0.6rem 0; font-size: 0.85rem; }}
th, td {{
  text-align: left; padding: 0.25rem 0.7rem; border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}}
th {{ color: var(--ink2); font-weight: 600; }}
td.num {{ text-align: right; }}
code {{ font-size: 0.85em; background: #f1f0ea; padding: 0.05rem 0.25rem;
       border-radius: 3px; }}
a {{ color: #2a78d6; }}
.note {{ color: var(--ink2); font-size: 0.85rem; }}
.ok {{ color: var(--ink); }}
.status-icon {{ font-weight: 700; margin-right: 0.3rem; }}
tr.fail {{ color: #b3261e; }}
tr.skip {{ color: var(--muted); }}
details {{ margin: 0.5rem 0; }}
summary {{ cursor: pointer; color: var(--ink2); font-size: 0.85rem; }}
footer.provenance {{
  margin-top: 3rem; padding-top: 0.8rem; border-top: 1px solid var(--grid);
  color: var(--muted); font-size: 0.8rem;
}}
figure {{ margin: 1rem 0; }}
"""


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        if math.isnan(v):
            return "-"
        if v == 0:
            return "0"
        if 1e-3 <= abs(v) < 1e5:
            return f"{v:.4g}"
        return f"{v:.3e}"
    return str(v)


def _series_table(figure) -> str:
    """Accessible data-table view of every series in a figure."""
    rows = []
    for s in figure.series:
        head = (
            f"<tr><th>{escape(s.label)}</th>"
            f"<th colspan=99>{escape(s.x_name)} → {escape(s.y_name)}</th></tr>"
        )
        n = len(s.x)
        idx = range(n) if n <= 10 else sorted(
            {round(i * (n - 1) / 9) for i in range(10)}
        )
        xs = "".join(f'<td class="num">{_fmt(float(s.x[i]))}</td>' for i in idx)
        ys = "".join(f'<td class="num">{_fmt(float(s.y[i]))}</td>' for i in idx)
        rows.append(
            head
            + f"<tr><td>{escape(s.x_name)}</td>{xs}</tr>"
            + f"<tr><td>{escape(s.y_name)}</td>{ys}</tr>"
        )
    return (
        "<details><summary>data table</summary><table>"
        + "".join(rows)
        + "</table></details>"
    )


def _claims_table(verdicts) -> str:
    """The driver's paper claims checked on this figure: ✓, ✗, or – (skip)."""
    rows = "".join(
        f'<tr class="claim {v.status}"><td class="status-icon">{v.mark}</td>'
        f"<td><code>{escape(v.claim.claim_id)}</code></td>"
        f"<td>{escape(v.claim.figure)}</td>"
        f"<td>{escape(v.claim.sentence)}</td>"
        f'<td class="num">{escape(v.measured())}</td>'
        f"<td>{escape(str(v.claim.band))}</td></tr>"
        for v in verdicts
    )
    return (
        '<table class="claims"><tr><th></th><th>claim</th><th>paper</th>'
        "<th>says</th><th>measured</th><th>band</th></tr>" + rows + "</table>"
    )


def _figure_section(result, log_y: bool) -> list[str]:
    """Charts for one cell: its claims, then one plot per (x, y) pair."""
    figure = result.figure
    out = [f"<h3>{escape(result.cell.cell_id)} — {escape(figure.title)}</h3>"]
    if result.verdicts:
        out.append(_claims_table(result.verdicts))
    groups: dict[tuple[str, str], list] = {}
    for s in figure.series:
        groups.setdefault((s.x_name, s.y_name), []).append(s)
    for (x_name, y_name), group in groups.items():
        series = [
            {"label": s.label, "x": list(s.x), "y": list(s.y)} for s in group
        ]
        # log-y only suits positive, decaying quantities (gaps, errors)
        use_log = log_y and all(
            float(y) > 0 for s in group for y in s.y if math.isfinite(float(y))
        )
        out.append("<figure>")
        out.append(
            line_plot(
                series,
                x_label=x_name,
                y_label=y_name,
                log_y=use_log,
                desc=f"{figure.title}: {y_name} vs {x_name}",
            )
        )
        out.append("</figure>")
    for note in figure.notes:
        out.append(f'<p class="note">{escape(note)}</p>')
    out.append(_series_table(figure))
    return out


def _summary_section(run: EvalRun) -> list[str]:
    n_claims = sum(1 for r in run.results for v in r.verdicts if v.status != "skip")
    n_failed = len(run.failed_claims())
    out = [
        "<h2>Run summary</h2>",
        f"<p class='note'>{escape(run.plan.describe())} — "
        f"{run.executed} executed, {run.resumed} resumed from cache, "
        f"wall clock {run.elapsed_s:.2f}s; "
        f"{n_claims - n_failed} of {n_claims} paper claims hold.</p>",
        "<table><tr><th>cell</th><th>hash</th><th>status</th>"
        "<th>driver time</th><th>trace</th></tr>",
    ]
    for r in run.results:
        trace = r.trace_path
        trace_cell = (
            f'<a href="{escape(str(trace), quote=True)}">trace</a>'
            if trace
            else "-"
        )
        status = "resumed" if r.cached else "executed"
        out.append(
            f"<tr><td>{escape(r.cell.cell_id)}</td>"
            f"<td><code>{r.cell.short_hash}</code></td>"
            f"<td>{status}</td>"
            f'<td class="num">{r.elapsed_s:.3f}s</td>'
            f"<td>{trace_cell}</td></tr>"
        )
    out.append("</table>")
    return out


def _ledger_section(run: EvalRun) -> list[str]:
    """Fig. 9-style modelled-time breakdown across cells."""
    ledgers = [(r.cell.cell_id, r.ledger) for r in run.results if r.ledger]
    out = ["<h2>Modelled time breakdown</h2>"]
    if not ledgers:
        out.append(
            '<p class="note">No cell recorded a modelled-time ledger '
            "(in-process drivers do not bill simulated components).</p>"
        )
        return out
    labels = [c for c in COMPONENTS if any(l.get(c) for _, l in ledgers)]
    categories = [cell_id for cell_id, _ in ledgers]
    components = {
        label: [float(l.get(label, 0.0)) for _, l in ledgers]
        for label in labels
    }
    out.append("<figure>")
    out.append(
        stacked_bar(
            categories,
            components,
            x_label="cell",
            y_label="modelled seconds",
            desc="modelled time per component per cell",
        )
    )
    out.append("</figure>")
    out.append(
        "<table><tr><th>cell</th>"
        + "".join(f"<th>{escape(c)}</th>" for c in labels)
        + "<th>total</th></tr>"
    )
    for cell_id, ledger in ledgers:
        cells = "".join(
            f'<td class="num">{_fmt(float(ledger.get(c, 0.0)))}</td>'
            for c in labels
        )
        total = sum(float(v) for v in ledger.values())
        out.append(
            f"<tr><td>{escape(cell_id)}</td>{cells}"
            f'<td class="num">{_fmt(total)}</td></tr>'
        )
    out.append("</table>")
    return out


def _bench_section(
    run: EvalRun,
    bench_new: dict | None,
    bench_baseline: dict | None,
    baseline_label: str | None = None,
) -> list[str]:
    """Bench-regression dashboard: this machine vs the committed baseline."""
    from ..perf.bench import _GATED_CASES, compare

    report = run.plan.config.report
    out = ["<h2>Kernel bench regression dashboard</h2>"]
    if bench_new is None:
        out.append(
            '<p class="note">Bench suite skipped for this report '
            "(no baseline configured or --no-bench).</p>"
        )
        return out
    new_rel = bench_new["derived"]["normalized_throughput"]
    if bench_baseline is None:
        out.append(
            f'<p class="note">Profile <code>{escape(bench_new["profile"])}'
            "</code>; no baseline payload available — showing this run "
            "without a gate.</p>"
        )
        base_rel = {}
        regressions: list[str] = []
    else:
        regressions = compare(
            bench_new, bench_baseline, threshold=report.bench_threshold
        )
        base_rel = bench_baseline["derived"]["normalized_throughput"]
        gate = (
            f'<span class="status-icon">✗</span>{len(regressions)} regression(s)'
            if regressions
            else '<span class="status-icon">✓</span>no regressions'
        )
        label = baseline_label or report.bench_baseline or ""
        out.append(
            f'<p class="note">Profile <code>{escape(bench_new["profile"])}'
            f"</code> vs baseline <code>{escape(label)}"
            f"</code> (threshold {report.bench_threshold * 100:.0f}%): "
            f"{gate}.</p>"
        )
    out.append(
        "<table><tr><th>case</th><th>median</th><th>vs seq (this run)</th>"
        "<th>vs seq (baseline)</th><th>ratio</th><th>gate</th></tr>"
    )
    for name, case in bench_new["cases"].items():
        rel = new_rel.get(name, 0.0)
        base = base_rel.get(name)
        ratio = (rel / base) if base else None
        gated = name in _GATED_CASES and base
        regressed = any(msg.startswith(f"{name}:") for msg in regressions)
        if not gated:
            verdict = "—"
        elif regressed:
            verdict = '<span class="status-icon">✗</span>REGRESSED'
        else:
            verdict = '<span class="status-icon">✓</span>ok'
        out.append(
            f"<tr><td>{escape(name)}</td>"
            f'<td class="num">{case["median_s"] * 1e3:.3f} ms</td>'
            f'<td class="num">{rel:.3f}×</td>'
            f'<td class="num">{_fmt(base) + "×" if base else "-"}</td>'
            f'<td class="num">{f"{ratio:.3f}" if ratio else "-"}</td>'
            f"<td>{verdict}</td></tr>"
        )
    out.append("</table>")
    for msg in regressions:
        out.append(f'<p class="note"><strong>{escape(msg)}</strong></p>')
    return out


def build_report(
    run: EvalRun,
    *,
    bench_new: dict | None = None,
    bench_baseline: dict | None = None,
    bench_baseline_label: str | None = None,
) -> str:
    """Assemble the full HTML document for one eval run."""
    config = run.plan.config
    report = config.report
    title = config.title or f"Experiment {config.experiment_id}"
    body: list[str] = [f"<h1>{escape(title)}</h1>"]
    if config.description:
        body.append(f'<p class="desc">{escape(config.description)}</p>')
    body += _summary_section(run)
    if "figures" in report.sections:
        body.append("<h2>Figures</h2>")
        for result in run.results:
            body += _figure_section(result, report.log_y)
    if "ledger" in report.sections:
        body += _ledger_section(run)
    if "bench" in report.sections:
        body += _bench_section(
            run, bench_new, bench_baseline, bench_baseline_label
        )
    prov = collect_provenance(seeds=[r.cell.seed for r in run.results])
    body.append(html_footer(prov))
    return (
        "<!DOCTYPE html>\n<html lang='en'>\n<head>\n"
        "<meta charset='utf-8'>\n"
        "<meta name='viewport' content='width=device-width, initial-scale=1'>\n"
        f"<title>{escape(title)}</title>\n"
        f"<style>{_STYLE}</style>\n</head>\n<body>\n"
        + "\n".join(body)
        + "\n</body>\n</html>\n"
    )


def render_report(
    run: EvalRun,
    out_dir: str | Path = "eval-reports",
    *,
    run_bench: bool = True,
) -> Path:
    """Write ``<out_dir>/<experiment_id>.html`` and return its path.

    When the config enables the ``bench`` section, the micro-benchmark suite
    runs here (report time), and the committed baseline named by
    ``[report] bench_baseline`` is loaded relative to the current directory.
    The default value ``"latest"`` resolves to the newest committed
    ``BENCH_PR*.json`` (numeric PR order) so the dashboard always diffs
    against the current landmark, not a hard-coded historical one.
    """
    config = run.plan.config
    bench_new = bench_baseline = None
    baseline_label = None
    if run_bench and "bench" in config.report.sections:
        from ..perf.bench import latest_baseline, load_payload, run_suite

        bench_new = run_suite(config.report.bench_profile)
        requested = config.report.bench_baseline
        base_path = (
            latest_baseline(".") if requested == "latest"
            else Path(requested) if requested else None
        )
        if base_path is not None and base_path.exists():
            bench_baseline = load_payload(base_path)
            baseline_label = base_path.name
    html = build_report(
        run,
        bench_new=bench_new,
        bench_baseline=bench_baseline,
        bench_baseline_label=baseline_label,
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{config.experiment_id}.html"
    path.write_text(html, encoding="utf-8")
    return path
