"""The HTML report renderer (with claim verdicts), `repro eval` exit codes, and SVG primitives."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree

import pytest

from repro.cli import main
from repro.eval import (
    ConfigError,
    ReportConfig,
    build_report,
    parse_config,
    plan,
    render_report,
    run_plan,
)
from repro.eval.report import latest_record, load_record
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
        assert "End-to-end benchmark record" not in html


def _e2e_stats(median: float, iqr: float, unit: str) -> dict:
    return {
        "median": median, "min": median - iqr, "max": median + iqr,
        "iqr": iqr, "reps": 7, "unit": unit,
    }


def _write_record(path: Path, **overrides) -> Path:
    """A synthetic two-workload ``repro.e2e/v1`` record, as ``run.py --out`` writes."""
    workloads = {}
    for k, name in enumerate(("alpha_primal", "beta_replay")):
        workloads[name] = {
            "workload": name, "seed": 7, "seconds": 6.0, "label": "full",
            "e2e": {
                "setup_s": _e2e_stats(0.6125 + k, 0.0125, "s"),
                "time_to_target_s": _e2e_stats(0.2375 + k, 0.0075, "s"),
                "work_per_s": _e2e_stats(4.25 + k, 0.125, "1/s"),
                "cpu_s": _e2e_stats(0.3125 + k, 0.0625, "s"),
                "peak_rss_mb": _e2e_stats(181.5 + k, 0.0, "MB"),
            },
            "epochs_to_target": 12 + k,
            "checks": {"attempted": 7, "failed": 0, "failures": []},
            "per_layer": {
                "solvers.epoch_s": {"value": 0.125 + k, "unit": "s"},
                "objectives.gap_eval_s": {"value": 0.0625, "unit": "s"},
                "gpu.plan.compile_s": {"value": None, "unit": "s"},
                "bench.rep_s": {"value": 9.0, "unit": "s"},
                "host.calib_matvec_s": {"value": 0.0004, "unit": "s"},
                "host.calib_memcpy_gbps": {"value": 5.5, "unit": "GB/s"},
            },
        }
    record = {
        "schema": "repro.e2e/v1", "label": "full", "seed": 7, "seconds": 6.0,
        "workloads": workloads,
    }
    record.update(overrides)
    path.write_text(json.dumps(record), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def bench_run(tmp_path_factory):
    doc = {
        "experiment": {"id": "bench-rep"},
        "run": {"scale": "tiny"},
        "matrix": {"driver": ["ext-fault-breakdown"]},
        "report": {"sections": ["bench"]},
    }
    cache = tmp_path_factory.mktemp("bench") / "cache"
    return run_plan(plan(parse_config(doc)), cache_dir=cache)


def _with_report(run, **report):
    """``run`` as if its config's ``[report]`` table had been ``report``."""
    config = replace(run.plan.config, report=ReportConfig(sections=("bench",), **report))
    return replace(run, plan=replace(run.plan, config=config))


def _bench_section(html: str) -> str:
    start = html.index("<h2>End-to-end benchmark record</h2>")
    return html[start:html.index('<footer class="provenance">')]


class TestBenchSection:
    def test_section_is_a_pure_function_of_the_record(self, bench_run, tmp_path):
        path = _write_record(tmp_path / "BENCH_PR3.json")
        run = _with_report(bench_run, bench_baseline=str(path))
        first = _bench_section(build_report(run))
        assert first == _bench_section(build_report(run))
        assert "BENCH_PR3.json" in first and "not on this one" in first
        for k, workload in enumerate(("alpha_primal", "beta_replay")):
            assert workload in first
            for median, iqr in (
                (0.6125, 0.0125), (0.2375, 0.0075), (4.25, 0.125),
                (0.3125, 0.0625), (181.5, 0.0),
            ):
                assert f"{median + k:.4g}" in first
                assert f"IQR {iqr:.4g}" in first if iqr else "IQR 0" in first
        for metric in ("setup_s", "time_to_target_s", "work_per_s", "cpu_s", "peak_rss_mb"):
            assert metric in first
        # the largest layers are drawn; bench.* and host.* are not layers
        assert "<svg" in first and "solvers.epoch_s" in first
        assert "bench.rep_s" not in first
        assert "host.calib_matvec_s</code> 4.000e-04" in first
        # a null per-layer value is named, not a crash
        assert "no longer resolves): <code>gpu.plan.compile_s</code>." in first

    def test_null_layer_drawn_for_another_workload_reads_null(self, bench_run, tmp_path):
        path = _write_record(tmp_path / "BENCH_PR3.json")
        record = json.loads(path.read_text(encoding="utf-8"))
        record["workloads"]["beta_replay"]["per_layer"]["solvers.epoch_s"]["value"] = None
        path.write_text(json.dumps(record), encoding="utf-8")
        section = _bench_section(build_report(_with_report(bench_run, bench_baseline=str(path))))
        assert '<td class="num">null</td>' in section

    def test_latest_without_a_record_renders_a_note(self, bench_run, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        section = _bench_section(build_report(_with_report(bench_run)))
        assert "No committed <code>BENCH_PR*.json</code> record" in section

    def test_latest_reads_the_newest_record(self, bench_run, tmp_path, monkeypatch):
        _write_record(tmp_path / "BENCH_PR9.json", seed=9)
        _write_record(tmp_path / "BENCH_PR12.json", seed=12)
        monkeypatch.chdir(tmp_path)
        section = _bench_section(build_report(_with_report(bench_run)))
        assert "BENCH_PR12.json" in section and "seed 12" in section

    def test_no_bench_skips_the_record(self, bench_run, tmp_path):
        run = _with_report(bench_run, bench_baseline=str(tmp_path / "missing.json"))
        section = _bench_section(build_report(run, run_bench=False))
        assert "skipped for this report (--no-bench)" in section

    def test_retired_bench_keys_change_nothing_in_the_html(self, bench_run, tmp_path):
        path = str(_write_record(tmp_path / "BENCH_PR3.json"))
        report = {"sections": ["bench"], "bench_baseline": path}
        doc = {"experiment": {"id": "bench-rep"}, "run": {"scale": "tiny"},
               "matrix": {"driver": ["ext-fault-breakdown"]}}
        plain = parse_config(dict(doc, report=report))
        retired = parse_config(dict(
            doc, report=dict(report, bench_profile="default", bench_threshold=0.4)
        ))
        assert retired == plain
        html = [
            build_report(replace(bench_run, plan=replace(bench_run.plan, config=c)))
            for c in (plain, retired)
        ]
        assert html[0].split("<footer")[0] == html[1].split("<footer")[0]


class TestRecordLoader:
    def test_missing_path_names_it(self, tmp_path):
        with pytest.raises(ConfigError, match="nope.json: cannot read"):
            load_record(tmp_path / "nope.json")

    def test_other_schema_names_path_and_schema(self, tmp_path):
        path = tmp_path / "BENCH_PR4.json"
        path.write_text(json.dumps({"schema": "repro.run/v1", "cases": {}}))
        with pytest.raises(ConfigError, match=r"BENCH_PR4.json: schema 'repro.run/v1'"):
            load_record(path)

    def test_truncated_json_names_it(self, tmp_path):
        path = _write_record(tmp_path / "BENCH_PR5.json")
        path.write_text(path.read_text(encoding="utf-8")[:200], encoding="utf-8")
        with pytest.raises(ConfigError, match="BENCH_PR5.json: not JSON"):
            load_record(path)

    def test_latest_record_numeric_order(self, tmp_path):
        # PR10 sorts after PR9: numeric, not lexicographic
        for name in ("BENCH_PR10.json", "BENCH_PR4.json", "BENCH_PR9.json", "BENCH_PRx.json"):
            (tmp_path / name).write_text("{}")
        assert latest_record(tmp_path).name == "BENCH_PR10.json"
        assert latest_record(tmp_path / "empty-subdir") is None

    def test_committed_record_is_latest(self):
        root = Path(__file__).resolve().parents[1]
        path = latest_record(root)
        assert sorted(root.glob("BENCH_PR*.json")) == [path]
        record = load_record(path)
        declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        assert record["label"] == "full"
        assert set(record["workloads"]) == {w["name"] for w in declared["workloads"]}
        assert all(w["checks"]["failed"] == 0 for w in record["workloads"].values())

    def test_bad_explicit_path_makes_repro_eval_exit_2(self, planted, tmp_path, capsys):
        config = tmp_path / "bench.toml"
        config.write_text(
            '[experiment]\nid = "planted"\n[run]\nscale = "tiny"\n'
            '[matrix]\ndriver = ["planted"]\n[report]\nsections = ["bench"]\n'
            f'bench_baseline = "{tmp_path / "BENCH_PR1.json"}"\n'
        )
        rc = main(["eval", str(config), "--jobs", "1",
                   "--cache-dir", str(tmp_path / "cache"),
                   "--out-dir", str(tmp_path / "reports")])
        assert rc == 2
        assert "BENCH_PR1.json: cannot read" in capsys.readouterr().err


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
