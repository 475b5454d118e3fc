"""Render an :class:`~repro.eval.runner.EvalRun` into one self-contained HTML file.

The report needs no network, no JS libraries, and no external assets: charts
are inline SVG (:mod:`repro.eval.svg`), styling is one embedded stylesheet,
and tooltips are native SVG ``<title>`` elements.  Sections (selected by the
config's ``[report] sections``):

* **figures** — per cell, the verdict on each paper claim its driver
  declares (measured value, band, ✓/✗), then one convergence/line chart per
  (x, y) axis pair, its data table and the driver notes, all drawn from the
  cell payload's ``figure`` dict (lists of floats, no numpy);
* **ledger** — Fig. 9-style modelled-time breakdowns: a stacked bar across
  cells plus the per-component table;
* **bench** — the committed end-to-end benchmark record (``repro.e2e/v1``,
  written by ``benchmarks/e2e/run.py``): per workload the end-to-end
  medians with their noise, and the largest per-layer seconds.  Nothing is
  timed at report time; the numbers belong to the host that committed them.

Every run summary row links the cell's Chrome trace sidecar, and the page
ends with the provenance footer (commit, scale, seeds, versions; the numpy
version is the one the cells recorded when they computed their numbers).
"""

from __future__ import annotations

import json
import math
import re
import statistics
from html import escape
from pathlib import Path

from ..perf.ledger import COMPONENTS
from .config import ConfigError, ReportConfig
from .provenance import collect_provenance, html_footer, recorded_numpy
from .runner import EvalRun
from .svg import CHROME, line_plot, stacked_bar

__all__ = [
    "RECORD_SCHEMA",
    "build_report",
    "latest_record",
    "load_record",
    "record_calibration",
    "render_report",
]

#: the schema ``benchmarks/e2e/run.py --out`` writes for a whole suite
RECORD_SCHEMA = "repro.e2e/v1"
#: per-layer ``_s`` metrics drawn per workload in the record's bar chart
_LARGEST_LAYERS = 3

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


def _series_table(figure: dict) -> str:
    """Accessible data-table view of every series in a figure."""
    rows = []
    for s in figure["series"]:
        x_name, y_name = s["x_name"], s["y_name"]
        head = (
            f"<tr><th>{escape(s['label'])}</th>"
            f"<th colspan=99>{escape(x_name)} → {escape(y_name)}</th></tr>"
        )
        n = len(s["x"])
        idx = range(n) if n <= 10 else sorted(
            {round(i * (n - 1) / 9) for i in range(10)}
        )
        xs = "".join(f'<td class="num">{_fmt(float(s["x"][i]))}</td>' for i in idx)
        ys = "".join(f'<td class="num">{_fmt(float(s["y"][i]))}</td>' for i in idx)
        rows.append(
            head
            + f"<tr><td>{escape(x_name)}</td>{xs}</tr>"
            + f"<tr><td>{escape(y_name)}</td>{ys}</tr>"
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
    figure = result.payload["figure"]
    out = [f"<h3>{escape(result.cell.cell_id)} — {escape(figure['title'])}</h3>"]
    if result.verdicts:
        out.append(_claims_table(result.verdicts))
    groups: dict[tuple[str, str], list] = {}
    for s in figure["series"]:
        groups.setdefault((s["x_name"], s["y_name"]), []).append(s)
    for (x_name, y_name), group in groups.items():
        # log-y only suits positive, decaying quantities (gaps, errors)
        use_log = log_y and all(
            float(y) > 0 for s in group for y in s["y"] if math.isfinite(float(y))
        )
        out.append("<figure>")
        out.append(
            line_plot(
                group,
                x_label=x_name,
                y_label=y_name,
                log_y=use_log,
                desc=f"{figure['title']}: {y_name} vs {x_name}",
            )
        )
        out.append("</figure>")
    for note in figure["notes"]:
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


def load_record(path: str | Path) -> dict:
    """Read one committed benchmark record; ``ConfigError`` unless it is one."""
    path = Path(path)
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"benchmark record {path}: cannot read it ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"benchmark record {path}: not JSON ({exc})") from exc
    schema = record.get("schema") if isinstance(record, dict) else None
    if schema != RECORD_SCHEMA or not isinstance(record.get("workloads"), dict):
        raise ConfigError(
            f"benchmark record {path}: schema {schema!r}, expected {RECORD_SCHEMA!r}"
        )
    return record


def latest_record(root: str | Path = ".") -> Path | None:
    """The newest ``BENCH_PR<k>.json`` under ``root`` in numeric PR order."""
    numbered = [
        (int(match.group(1)), path)
        for path in Path(root).glob("BENCH_PR*.json")
        if (match := re.fullmatch(r"BENCH_PR(\d+)\.json", path.name))
    ]
    return max(numbered)[1] if numbered else None


def record_calibration(record: dict) -> dict[str, float]:
    """Each ``host.calib_*`` metric, median over the record's workloads."""
    values: dict[str, list[float]] = {}
    for entry in record["workloads"].values():
        for name, metric in entry.get("per_layer", {}).items():
            if name.startswith("host.calib_") and metric["value"] is not None:
                values.setdefault(name, []).append(metric["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def _layer_value(entry: dict, name: str) -> float | None:
    metric = entry.get("per_layer", {}).get(name)
    return None if metric is None else metric["value"]


def _record_body(record: dict, name: str) -> list[str]:
    """The record's end-to-end table and its largest-layers bar chart."""
    workloads = record["workloads"]
    metrics = list(dict.fromkeys(m for w in workloads.values() for m in w["e2e"]))
    calib = ", ".join(
        f"<code>{escape(k)}</code> {_fmt(v)}"
        for k, v in record_calibration(record).items()
    )
    out = [
        f'<p class="note">Record <code>{escape(name)}</code> '
        f"(label <code>{escape(str(record.get('label')))}</code>, seed "
        f"{escape(str(record.get('seed')))}, {_fmt(record.get('seconds'))} s of "
        "timed reps per workload), written by <code>python3 benchmarks/e2e/run.py"
        " --out</code>.  These numbers were measured on the host that committed "
        "the record, not on this one; nothing is timed while this report "
        f"renders.  Host calibration (median over workloads): {calib or '-'}.</p>",
        '<p class="note">Each end-to-end cell reads: median (IQR, reps).</p>',
        "<table><tr><th>workload</th>"
        + "".join(f"<th>{escape(m)}</th>" for m in metrics)
        + "<th>epochs_to_target</th><th>checks</th></tr>",
    ]
    for workload, entry in workloads.items():
        cells = []
        for m in metrics:
            stats = entry["e2e"].get(m)
            cells.append(
                '<td class="num">-</td>' if stats is None else
                f'<td class="num">{_fmt(stats["median"])} {escape(stats["unit"])} '
                f'(IQR {_fmt(stats["iqr"])}, {stats["reps"]})</td>'
            )
        checks = entry["checks"]
        verdict = (
            f'<span class="status-icon">✓</span>{checks["attempted"]} passed'
            if checks["failed"] == 0
            else f'<span class="status-icon">✗</span>{checks["failed"]} of '
            f'{checks["attempted"]} failed'
        )
        out.append(
            f'<tr class="{"pass" if checks["failed"] == 0 else "fail"}">'
            f"<td>{escape(workload)}</td>{''.join(cells)}"
            f'<td class="num">{_fmt(entry.get("epochs_to_target"))}</td>'
            f"<td>{verdict}</td></tr>"
        )
    out.append("</table>")

    # each workload's largest layers; host.* and bench.* are not layers
    layers: list[str] = []
    for entry in workloads.values():
        timed = [
            (value, layer)
            for layer, metric in entry.get("per_layer", {}).items()
            if layer.endswith("_s") and not layer.startswith(("host.", "bench."))
            and (value := metric["value"]) is not None
        ]
        for _, layer in sorted(timed, reverse=True)[:_LARGEST_LAYERS]:
            if layer not in layers:
                layers.append(layer)
    if layers:
        out.append("<figure>")
        out.append(
            stacked_bar(
                list(workloads),
                {
                    layer: [_layer_value(e, layer) or 0.0 for e in workloads.values()]
                    for layer in layers
                },
                x_label="workload",
                y_label="per-layer seconds",
                width=840,
                desc="each workload's largest per-layer seconds, set-up included; "
                "layers nest, so a bar's height is no wall time",
            )
        )
        out.append("</figure>")
        out.append(
            "<details><summary>per-layer seconds</summary><table><tr><th>workload</th>"
            + "".join(f"<th>{escape(layer)}</th>" for layer in layers)
            + "</tr>"
        )
        for workload, entry in workloads.items():
            values = (_layer_value(entry, layer) for layer in layers)
            out.append(
                f"<tr><td>{escape(workload)}</td>"
                + "".join(
                    f'<td class="num">{"null" if v is None else _fmt(v)}</td>'
                    for v in values
                )
                + "</tr>"
            )
        out.append("</table></details>")
    nulls = dict.fromkeys(
        layer
        for entry in workloads.values()
        for layer, metric in entry.get("per_layer", {}).items()
        if metric["value"] is None
    )
    if nulls:
        out.append(
            '<p class="note">Per-layer metrics recorded as null (their entry '
            "point no longer resolves): "
            + ", ".join(f"<code>{escape(layer)}</code>" for layer in nulls)
            + ".</p>"
        )
    return out


def _bench_section(report: ReportConfig, run_bench: bool) -> list[str]:
    """The committed end-to-end benchmark record, read and never re-timed.

    An explicit ``bench_baseline`` path that is missing or is not a
    ``repro.e2e/v1`` record raises :class:`ConfigError`; ``"latest"`` with
    no committed record renders a note instead.
    """
    out = ["<h2>End-to-end benchmark record</h2>"]
    if not run_bench:
        out.append(
            '<p class="note">Benchmark record skipped for this report '
            "(--no-bench).</p>"
        )
        return out
    if report.bench_baseline == "latest":
        path = latest_record(".")
        if path is None:
            out.append(
                '<p class="note">No committed <code>BENCH_PR*.json</code> record '
                f"under <code>{escape(str(Path.cwd()))}</code>.  Write one with "
                "<code>python3 benchmarks/e2e/run.py --out BENCH_PR&lt;k&gt;.json"
                "</code> from the repository root.</p>"
            )
            return out
    else:
        path = Path(report.bench_baseline)
    return out + _record_body(load_record(path), path.name)


def build_report(run: EvalRun, *, run_bench: bool = True) -> str:
    """Assemble the full HTML document for one eval run.

    ``run_bench=False`` (``repro eval --no-bench``) leaves the benchmark
    record out of the ``bench`` section.
    """
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
        body += _bench_section(report, run_bench)
    prov = collect_provenance(seeds=[r.cell.seed for r in run.results])
    prov["numpy"] = recorded_numpy(r.payload["provenance"] for r in run.results)
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

    ``[report] bench_baseline`` is resolved relative to the current
    directory; see :func:`build_report` for ``run_bench``.
    """
    config = run.plan.config
    html = build_report(run, run_bench=run_bench)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{config.experiment_id}.html"
    path.write_text(html, encoding="utf-8")
    return path
