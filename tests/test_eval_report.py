"""The HTML report renderer (with claim verdicts), `repro eval` exit codes, and SVG primitives."""

from __future__ import annotations

import json
from pathlib import Path
from xml.etree import ElementTree

import pytest

from repro.cli import main
from repro.eval import build_report, parse_config, plan, render_report, run_plan
from repro.eval.svg import PALETTE, line_plot, stacked_bar
from repro.experiments import registry
from repro.experiments.claims import Claim, below
from repro.experiments.results import CurveSeries, FigureResult

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _render(tmp_path, doc, **kwargs):
    run = run_plan(plan(parse_config(doc)), cache_dir=tmp_path / "cache")
    return run, build_report(run, **kwargs)


@pytest.fixture(scope="module")
def fault_run_and_html(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("report")
    doc = {
        "experiment": {
            "id": "rep",
            "title": "Report test",
            "description": "two fault cells",
        },
        "run": {"scale": "tiny"},
        "matrix": {
            "driver": ["ext-fault-breakdown"],
            "scenario": ["chaos", "lossy-link"],
        },
        "report": {"sections": ["figures", "ledger"]},
    }
    return _render(tmp_path, doc)


class TestHtmlReport:
    def test_self_contained_document(self, fault_run_and_html):
        _, html = fault_run_and_html
        assert html.startswith("<!DOCTYPE html>")
        assert "<style>" in html and "<svg" in html
        # self-contained: no external scripts, stylesheets, or images
        assert "<script" not in html
        assert "<link" not in html
        assert "<img" not in html

    def test_every_svg_is_well_formed(self, fault_run_and_html):
        import re

        _, html = fault_run_and_html
        svgs = re.findall(r"<svg.*?</svg>", html, flags=re.S)
        assert svgs
        for svg in svgs:
            ElementTree.fromstring(svg)

    def test_summary_lists_cells_with_trace_links(self, fault_run_and_html):
        run, html = fault_run_and_html
        for r in run.results:
            assert r.cell.short_hash in html
            assert r.trace_path and r.trace_path in html
        assert "scenario=chaos" in html and "scenario=lossy-link" in html

    def test_ledger_breakdown_rendered(self, fault_run_and_html):
        _, html = fault_run_and_html
        assert "Modelled time breakdown" in html
        # fault scenarios bill retry/straggler components
        assert "comm_retry" in html or "wait_straggler" in html

    def test_provenance_footer(self, fault_run_and_html):
        _, html = fault_run_and_html
        assert '<footer class="provenance">' in html
        assert "REPRO_SCALE=" in html

    def test_notes_and_data_table(self, fault_run_and_html):
        _, html = fault_run_and_html
        assert "data table" in html

    def test_sections_respect_config(self, fault_run_and_html):
        _, html = fault_run_and_html
        # bench disabled in this config
        assert "bench regression" not in html.lower()


class TestBenchSection:
    def test_dashboard_against_baseline(self, tmp_path):
        from repro.perf.bench import latest_baseline, load_payload

        # the dashboard diffs against the *newest* committed landmark
        newest = latest_baseline(".")
        assert newest is not None and newest.name == "BENCH_PR10.json"
        baseline = load_payload(newest)
        doc = {
            "experiment": {"id": "bench-rep"},
            "run": {"scale": "tiny"},
            "matrix": {"driver": ["ext-fault-breakdown"]},
            "report": {"sections": ["bench"], "bench_threshold": 0.4},
        }
        # reuse the committed baseline as the "new" run too: zero regressions
        run = run_plan(plan(parse_config(doc)), cache_dir=tmp_path / "cache")
        html = build_report(
            run,
            bench_new=baseline,
            bench_baseline=baseline,
            bench_baseline_label=newest.name,
        )
        assert "Kernel bench regression dashboard" in html
        assert "no regressions" in html
        assert "BENCH_PR10.json" in html
        assert "sequential" in html and "tpa_wave_planned" in html
        for case in ("chunked", "distributed", "serving", "syscd_threads"):
            assert case in html

    def test_dashboard_without_baseline(self, tmp_path):
        from repro.perf.bench import load_payload

        baseline = load_payload("BENCH_PR10.json")
        doc = {
            "experiment": {"id": "bench-rep2"},
            "run": {"scale": "tiny"},
            "matrix": {"driver": ["ext-fault-breakdown"]},
            "report": {"sections": ["bench"]},
        }
        run = run_plan(plan(parse_config(doc)), cache_dir=tmp_path / "cache")
        html = build_report(run, bench_new=baseline, bench_baseline=None)
        assert "no baseline payload available" in html


class TestRenderReport:
    def test_writes_named_html_file(self, tmp_path):
        doc = {
            "experiment": {"id": "filetest"},
            "run": {"scale": "tiny"},
            "matrix": {"driver": ["ext-fault-breakdown"]},
            "report": {"sections": ["figures"]},
        }
        run = run_plan(plan(parse_config(doc)), cache_dir=tmp_path / "cache")
        path = render_report(run, tmp_path / "reports", run_bench=False)
        assert path == tmp_path / "reports" / "filetest.html"
        assert "<svg" in path.read_text(encoding="utf-8")


class TestSvgPrimitives:
    def test_line_plot_log_y_and_legend(self):
        svg = line_plot(
            [
                {"label": "a", "x": [0, 1, 2], "y": [1.0, 0.1, 0.01]},
                {"label": "b", "x": [0, 1, 2], "y": [1.0, 0.5, 0.2]},
            ],
            x_label="epoch",
            y_label="gap",
            log_y=True,
        )
        ElementTree.fromstring(svg)
        assert svg.count("<polyline") == 2
        # categorical palette assigned in fixed order, never cycled
        assert PALETTE[0] in svg and PALETTE[1] in svg
        # legend labels present
        assert ">a</text>" in svg and ">b</text>" in svg
        # decade ticks from the log scale
        assert ">0.01<" in svg and ">1<" in svg

    def test_line_plot_drops_nonpositive_on_log(self):
        svg = line_plot(
            [{"label": "a", "x": [0, 1, 2], "y": [1.0, 0.0, 0.01]}],
            log_y=True,
        )
        ElementTree.fromstring(svg)  # must not crash on log(0)

    def test_line_plot_empty_series(self):
        svg = line_plot([{"label": "a", "x": [], "y": []}])
        assert "no finite data" in svg

    def test_stacked_bar_tooltips_and_order(self):
        svg = stacked_bar(
            ["K=1", "K=2"],
            {"compute": [3.0, 2.0], "network": [0.5, 1.0]},
            y_label="seconds",
        )
        ElementTree.fromstring(svg)
        assert svg.count("<rect") >= 4  # segments + legend swatches
        assert "<title>K=1 — compute: 3</title>" in svg
        assert PALETTE[0] in svg and PALETTE[1] in svg


def _planted_figure(scale=None):
    fig = FigureResult(figure_id="planted", title="planted failing claim")
    fig.add(CurveSeries("gap", [0.0, 1.0, 2.0], [1.0, 0.5, 0.25]))
    return fig


@pytest.fixture
def planted(tmp_path):
    """A registered driver whose one claim fails, and a config running it."""
    registry.register(
        "planted",
        "planted failing claim",
        _planted_figure,
        claims=(
            Claim(
                "planted-converges", "none",
                lambda fig: fig.get("gap").final(), below(1e-3),
                "the planted gap falls below 1e-3 (final gap)",
            ),
        ),
    )
    config = tmp_path / "planted.toml"
    config.write_text(
        '[experiment]\nid = "planted"\n[run]\nscale = "tiny"\n'
        '[matrix]\ndriver = ["planted"]\n[report]\nsections = ["figures"]\n'
    )
    yield config
    registry.unregister("planted")


def _eval(config, tmp_path, *extra) -> int:
    return main(
        [
            "eval", str(config), "--jobs", "1", "--no-bench",
            "--cache-dir", str(tmp_path / "cache"),
            "--out-dir", str(tmp_path / "reports"),
            *extra,
        ]
    )


class TestEvalVerdicts:
    def test_failed_claim_exits_1_and_still_writes_the_report(
        self, planted, tmp_path, capsys
    ):
        assert _eval(planted, tmp_path) == 1
        assert "planted-converges" in capsys.readouterr().err
        html = (tmp_path / "reports" / "planted.html").read_text(encoding="utf-8")
        assert '<tr class="claim fail">' in html and "✗" in html
        assert "0 of 1 paper claims hold" in html

    def test_json_summary_is_one_document_with_the_failed_count(
        self, planted, tmp_path, capsys
    ):
        assert _eval(planted, tmp_path, "--json") == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.eval/v1"
        assert doc["claims_failed"] == 1

    def test_resumed_cells_are_checked_too(self, planted, tmp_path, capsys):
        _eval(planted, tmp_path)
        capsys.readouterr()
        assert _eval(planted, tmp_path, "--json") == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["resumed"] == 1 and doc["claims_failed"] == 1

    def test_passing_fig1_at_tiny_exits_0(self, tmp_path, capsys):
        assert _eval(CONFIGS / "fig1.toml", tmp_path, "--scale", "tiny", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["claims_failed"] == 0
        html = (tmp_path / "reports" / "fig1.html").read_text(encoding="utf-8")
        assert '<tr class="claim pass">' in html
        assert 'class="claim fail"' not in html
