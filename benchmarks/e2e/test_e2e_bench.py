"""Self-tests of the end-to-end benchmark (smoke sizes, under a minute).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
for _path in (str(REPO_ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DECLARATION = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E = [m["name"] for m in DECLARATION["end_to_end"]]
PER_LAYER = [m["name"] for m in DECLARATION["per_layer"]]
TRAINING = ["seq_primal", "tpa_primal", "syscd_primal", "dist_tpa_dual", "ooc_stream_dual"]


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=REPO_ROOT, capture_output=True, text=True, check=False,
    )


# -- the layer table ---------------------------------------------------------


@pytest.mark.parametrize("entry", layers.TABLE, ids=lambda e: e.target)
def test_every_traced_entry_point_resolves(entry):
    _, _, value = layers.resolve(entry.target)
    assert callable(value)


def test_unresolved_entry_point_is_null_with_a_warning():
    table = (
        layers.Entry("bogus.layer", "repro.gpu.plan:NoSuchClass.method"),
        layers.Entry("gpu.wave.dots", "repro.gpu.plan:EpochRun.block_dots"),
    )
    recorder = layers.SpanRecorder()
    with pytest.warns(RuntimeWarning, match="NoSuchClass"):
        with layers.installed(recorder, table):
            pass
    values = layers.layer_metrics(
        ["bogus.layer_s", "gpu.wave.dots_s"], {}, {}, recorder.unresolved, table
    )
    assert values == {"bogus.layer_s": None, "gpu.wave.dots_s": 0.0}


def test_install_wraps_and_restores():
    before = [layers.resolve(e.target)[2] for e in layers.TABLE]
    with layers.installed(layers.SpanRecorder()):
        assert all(layers.resolve(e.target)[2] is not b for e, b in zip(layers.TABLE, before))
    assert all(layers.resolve(e.target)[2] is b for e, b in zip(layers.TABLE, before))


def test_rollup_self_time_is_span_minus_children():
    spans = [(2, 1, "child", 0, 1.0, 3.0, None), (1, 0, "parent", 0, 0.0, 10.0, None)]
    rolled = layers.rollup(spans)
    assert rolled["parent"]["busy_s"] == 10.0 and rolled["parent"]["self_s"] == 8.0
    assert rolled["child"]["self_s"] == 2.0 and rolled["child"]["calls"] == 1


# -- the declaration ---------------------------------------------------------


def test_declaration_and_code_name_the_same_things():
    assert [w["name"] for w in DECLARATION["workloads"]] == list(workloads.WORKLOADS)
    assert set(E2E) == {"setup_s", "time_to_target_s", "work_per_s", "cpu_s", "peak_rss_mb"}
    counters = {m for m in PER_LAYER if layers.split_metric(m) is None}
    assert counters == set(layers.COUNTERS)
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    for section in ("workloads", "end_to_end", "per_layer"):
        names = [m["name"] for m in DECLARATION[section]]
        assert len(set(names)) == len(names)
        assert all(name.fullmatch(n) for n in names)


# -- a whole smoke run -------------------------------------------------------


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    proc = _run("--smoke", "--out", str(out / "smoke.json"), "--trace-dir", str(out / "trace"))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return out, json.loads((out / "smoke.json").read_text(encoding="utf-8")), proc.stdout


def test_smoke_result_names_exactly_the_declared_metrics(smoke):
    _, payload, stdout = smoke
    assert payload["label"] == "smoke" and payload["schema"] == run.SCHEMA
    assert list(payload["workloads"]) == list(workloads.WORKLOADS)
    for name, record in payload["workloads"].items():
        assert list(record["e2e"]) == E2E, name
        assert list(record["per_layer"]) == PER_LAYER, name
        assert record["checks"]["failed"] == 0 and not record["checks"]["failures"], name
        assert all(v["value"] is not None for v in record["per_layer"].values()), name
        for metric in E2E:
            assert f"{name:18s} {metric}" in stdout
    assert "all checks passed" in stdout


def test_smoke_layers_separate_the_workloads(smoke):
    _, payload, _ = smoke
    layer = {
        name: {k: v["value"] for k, v in record["per_layer"].items()}
        for name, record in payload["workloads"].items()
    }
    assert layer["seq_primal"]["solvers.epoch_s"] >= 0.8 * layer["seq_primal"]["bench.rep_s"]
    for name in ("tpa_primal", "serve_replay", "dist_tpa_dual"):
        assert layer[name]["solvers.epoch_s"] == 0
    for name in ("seq_primal", "syscd_primal", "serve_replay"):
        assert layer[name]["gpu.engine.epoch_s"] == 0 and layer[name]["gpu.waves"] == 0
    assert layer["tpa_primal"]["gpu.engine.epoch_s"] > 0
    assert layer["tpa_primal"]["gpu.plan.cache_misses"] == 1
    assert layer["ooc_stream_dual"]["shards.stream_epoch_s"] > 0
    assert layer["ooc_stream_dual"]["shards.cache.misses"] > 0
    assert layer["dist_tpa_dual"]["shards.read_calls"] == 0
    assert layer["dist_tpa_dual"]["cluster.round_calls"] > 0
    assert layer["syscd_primal"]["solvers.syscd.merges"] > 0
    for name in TRAINING:
        assert layer[name]["serve.submit_calls"] == 0
        assert layer[name]["obs.layer_coverage_frac"] > 0.9
    assert layer["serve_replay"]["serve.submit_calls"] == layer["serve_replay"]["serve.rows_scored"]
    assert layer["eval_fig1_cold"]["eval.cells_executed"] == 1
    assert layer["eval_fig1_resumed"]["eval.cells_resumed"] == 1


def test_smoke_trace_dir_holds_the_span_tree(smoke):
    out, _, _ = smoke
    spans = json.loads((out / "trace" / "tpa_primal" / "spans.json").read_text(encoding="utf-8"))
    ids = {s["id"] for s in spans}
    roots = [s for s in spans if s["name"] == layers.ROOT_SPAN]
    assert len(roots) == 1 and roots[0]["parent"] == 0
    assert all(s["parent"] in ids or s["parent"] == 0 for s in spans)
    assert all(s["end"] >= s["start"] and s["workload"] == "tpa_primal" for s in spans)


def test_compare_refuses_smoke_results(smoke, capsys):
    out, _, _ = smoke
    assert compare.main([str(out / "smoke.json")] * 2) == 2
    assert "smoke" in capsys.readouterr().out


def test_single_workload_prints_the_result_line_last():
    for trace, names in (("0", E2E), ("1", PER_LAYER)):
        proc = _run("--workload", "serve_replay", "--smoke", "--seed", "3", "--trace", trace)
        assert proc.returncode == 0, proc.stderr[-2000:]
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == names
        assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())


def test_outside_the_repository_the_benchmark_refuses(tmp_path):
    lone = tmp_path / "benchmarks" / "e2e"
    lone.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (lone / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(DECLARATION), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "seq_primal"],
        cwd=tmp_path, capture_output=True, text=True, check=False,
    )
    assert proc.returncode != 0 and not proc.stdout.strip()


# -- compare.py --------------------------------------------------------------


def _payload(median: float, iqr: float = 0.0, epochs: int = 12, failed: int = 0) -> dict:
    stats = {"median": median, "min": median - iqr, "max": median + iqr, "iqr": iqr, "reps": 5}
    return {
        "schema": run.SCHEMA, "label": "full", "seed": 7, "seconds": 6,
        "workloads": {"tpa_primal": {
            "e2e": {metric: dict(stats) for metric in E2E},
            "epochs_to_target": epochs,
            "checks": {"attempted": 5, "failed": failed, "failures": []},
        }},
    }


#: the tests of compare.py fix their own bounds; BENCHMARK.json's may be retuned
BOUNDS = {m: ("higher" if m == "work_per_s" else "lower", 0.1) for m in E2E}
BOUNDS["setup_s"] = ("lower", 0.25)


def _statuses(a: dict, b: dict) -> dict[str, str]:
    return {r["metric"]: r["status"] for r in compare.compare(a, b, BOUNDS)}


def test_compare_flags_regressions_by_direction_and_bound():
    same = _statuses(_payload(1.0), _payload(1.05))
    assert set(same.values()) == {"ok"}
    slower = _statuses(_payload(1.0), _payload(1.2))
    assert slower["time_to_target_s"] == "regressed" and slower["cpu_s"] == "regressed"
    assert slower["work_per_s"] == "ok"  # higher is better
    assert slower["setup_s"] == "ok"  # within its 25 % bound
    assert _statuses(_payload(1.2), _payload(1.0))["work_per_s"] == "regressed"


def test_compare_reports_noise_as_unresolved_and_counts_as_exact():
    noisy = _statuses(_payload(1.0, iqr=0.3), _payload(1.05, iqr=0.3))
    assert noisy["time_to_target_s"] == "unresolved"
    assert _statuses(_payload(1.0, iqr=0.3), _payload(2.0, iqr=0.3))["cpu_s"] == "regressed"
    assert _statuses(_payload(1.0), _payload(1.0, epochs=13))["epochs_to_target"] == "regressed"
    assert _statuses(_payload(1.0), _payload(1.0, failed=1))["failed_checks"] == "regressed"


def test_compare_exit_code(tmp_path):
    for name, doc in (("a", _payload(1.0)), ("b", _payload(1.0)), ("c", _payload(1.5))):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 0
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "c.json")]) == 1


# -- the instrument detects a planted regression -------------------------------


def test_planted_scatter_slowdown_is_flagged_and_attributed():
    """A busy-wait in ``EpochRun.scatter_shared`` that triples the smoke-size epoch.

    At smoke sizes a rep is ~25 ms and a shared host moves it by tens of
    percent, so the plant is large; README.md gives the full-size recipe for a
    plant just past the bound.
    """
    from repro.gpu.plan import EpochRun

    better, bound = compare.load_bounds()["time_to_target_s"]

    def measure(name):
        return run.measure(name, seed=7, seconds=0.8, trace=True, smoke=True)

    base = {name: measure(name) for name in ("tpa_primal", "seq_primal")}
    tpa = base["tpa_primal"]
    waves = tpa["per_layer"]["gpu.waves"]["value"]
    delay = 2.0 * tpa["e2e"]["time_to_target_s"]["median"] / waves
    original = EpochRun.scatter_shared

    def slow_scatter(self, *args, **kwargs):
        end = time.perf_counter() + delay
        while time.perf_counter() < end:
            pass
        return original(self, *args, **kwargs)

    EpochRun.scatter_shared = slow_scatter
    try:
        planted = {name: measure(name) for name in base}
    finally:
        EpochRun.scatter_shared = original

    def status(name):
        return compare.judge(
            base[name]["e2e"]["time_to_target_s"],
            planted[name]["e2e"]["time_to_target_s"], better, bound,
        )

    worse, verdict = status("tpa_primal")
    assert verdict == "regressed" and worse > bound
    # the per-layer trace puts the loss where it was planted
    lost = (planted["tpa_primal"]["e2e"]["time_to_target_s"]["median"]
            - tpa["e2e"]["time_to_target_s"]["median"])
    scatter = (planted["tpa_primal"]["per_layer"]["gpu.wave.scatter_s"]["value"]
               - tpa["per_layer"]["gpu.wave.scatter_s"]["value"])
    assert scatter == pytest.approx(delay * waves, rel=0.25)
    assert scatter == pytest.approx(lost, rel=0.5)
    # and the workload that never scatters stays where it was (to within what
    # a shared host does to a 0.1 s rep)
    assert status("seq_primal")[0] < 0.25 * worse
    assert planted["seq_primal"]["per_layer"]["gpu.wave.scatter_s"]["value"] == 0
