"""Planner hashing and the resumable runner."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.eval import EvalConfig, cell_hash, parse_config, plan, run_plan
from repro.eval.runner import run_drivers
from repro.experiments import registry
from repro.experiments.results import CurveSeries, FigureResult


@pytest.fixture
def counting_driver(tmp_path):
    """A registered driver that logs every execution to a file."""
    log = tmp_path / "calls.log"

    def fn(scale=None, *, knob="a", seed=0):
        with log.open("a") as fh:
            fh.write(f"{knob}:{seed}\n")
        fig = FigureResult(figure_id="probe", title=f"probe {knob}")
        fig.add(CurveSeries("gap", [0.0, 1.0, 2.0], [1.0, 0.1, 0.01]))
        return fig

    registry.register(
        "test-probe", "test probe", fn, kind="figure", params=("knob", "seed")
    )
    yield log
    registry.unregister("test-probe")


def _probe_config(**matrix_extra) -> EvalConfig:
    return parse_config(
        {
            "experiment": {"id": "probe"},
            "run": {"scale": "tiny"},
            "matrix": {"driver": ["test-probe"], **matrix_extra},
        }
    )


class TestCellHash:
    def test_stable_across_param_key_reordering(self):
        a = cell_hash("d", "tiny", 0, {"alpha": 1, "beta": "x"})
        b = cell_hash("d", "tiny", 0, {"beta": "x", "alpha": 1})
        assert a == b

    def test_sensitive_to_every_input(self):
        base = cell_hash("d", "tiny", 0, {"k": 1})
        assert cell_hash("e", "tiny", 0, {"k": 1}) != base
        assert cell_hash("d", "quick", 0, {"k": 1}) != base
        assert cell_hash("d", "tiny", 1, {"k": 1}) != base
        assert cell_hash("d", "tiny", 0, {"k": 2}) != base

    def test_config_reordering_plans_identical_hashes(self):
        doc_a = {
            "experiment": {"id": "x"},
            "run": {"seed": 7, "scale": "tiny"},
            "matrix": {
                "driver": ["ext-fault-tolerance"],
                "scenario": ["chaos", "lossy-link"],
            },
        }
        # same declaration, tables and keys in different order
        doc_b = {
            "matrix": {
                "scenario": ["chaos", "lossy-link"],
                "driver": ["ext-fault-tolerance"],
            },
            "run": {"scale": "tiny", "seed": 7},
            "experiment": {"id": "x"},
        }
        hashes_a = {c.config_hash for c in plan(parse_config(doc_a)).cells}
        hashes_b = {c.config_hash for c in plan(parse_config(doc_b)).cells}
        assert hashes_a == hashes_b

    def test_report_settings_do_not_change_hashes(self):
        doc = {
            "experiment": {"id": "x"},
            "matrix": {"driver": ["fig1"]},
        }
        plain = plan(parse_config(doc)).cells[0].config_hash
        doc["report"] = {"log_y": False, "sections": ["figures"]}
        styled = plan(parse_config(doc)).cells[0].config_hash
        assert plain == styled


class TestRunnerResume:
    def test_expansion_and_execution(self, counting_driver, tmp_path):
        cfg = _probe_config(knob=["a", "b", "c"])
        run = run_plan(plan(cfg), cache_dir=tmp_path / "cache")
        assert len(run.results) == 3
        assert run.executed == 3 and run.resumed == 0
        assert counting_driver.read_text().splitlines() == ["a:0", "b:0", "c:0"]

    def test_rerun_resumes_every_completed_cell(self, counting_driver, tmp_path):
        cfg = _probe_config(knob=["a", "b"])
        run_plan(plan(cfg), cache_dir=tmp_path / "cache")
        rerun = run_plan(plan(cfg), cache_dir=tmp_path / "cache")
        assert rerun.executed == 0 and rerun.resumed == 2
        # the driver really was not called again
        assert len(counting_driver.read_text().splitlines()) == 2
        # cached payloads rehydrate into full figures
        figs = rerun.figures()
        assert set(figs) == {
            "test-probe scale=tiny knob=a",
            "test-probe scale=tiny knob=b",
        }
        assert figs["test-probe scale=tiny knob=a"].get("gap").final() == 0.01

    def test_new_cells_run_while_old_ones_resume(self, counting_driver, tmp_path):
        run_plan(plan(_probe_config(knob=["a"])), cache_dir=tmp_path / "cache")
        grown = run_plan(
            plan(_probe_config(knob=["a", "b"])), cache_dir=tmp_path / "cache"
        )
        assert grown.executed == 1 and grown.resumed == 1

    def test_force_recomputes(self, counting_driver, tmp_path):
        cfg = _probe_config(knob=["a"])
        run_plan(plan(cfg), cache_dir=tmp_path / "cache")
        forced = run_plan(plan(cfg), cache_dir=tmp_path / "cache", force=True)
        assert forced.executed == 1 and forced.resumed == 0
        assert len(counting_driver.read_text().splitlines()) == 2

    def test_corrupt_cache_entry_recomputes(self, counting_driver, tmp_path):
        cfg = _probe_config(knob=["a"])
        cache = tmp_path / "cache"
        run = run_plan(plan(cfg), cache_dir=cache)
        path = cache / f"{run.results[0].cell.config_hash}.json"
        path.write_text("{not json", encoding="utf-8")
        rerun = run_plan(plan(cfg), cache_dir=cache)
        assert rerun.executed == 1

    def test_seed_injected_into_declared_drivers(self, counting_driver, tmp_path):
        cfg = parse_config(
            {
                "experiment": {"id": "probe"},
                "run": {"scale": "tiny", "seed": 11},
                "matrix": {"driver": ["test-probe"]},
            }
        )
        run_plan(plan(cfg), cache_dir=tmp_path / "cache")
        assert counting_driver.read_text().splitlines() == ["a:11"]

    def test_payload_records_schema_and_provenance(self, counting_driver, tmp_path):
        cfg = _probe_config()
        run = run_plan(plan(cfg), cache_dir=tmp_path / "cache")
        payload = run.results[0].payload
        assert payload["schema"] == "repro.eval-cell/v2"
        assert payload["cell"]["hash"] == run.results[0].cell.config_hash
        assert "git_commit" in payload["provenance"]
        # the numpy that computed the figure, which the report's footer names
        assert payload["provenance"]["numpy"] == np.__version__
        # a registered driver declares no claims here and is digested never
        assert payload["verdicts"] == [] and payload["claims_digest"] is None
        # the trace sidecar is a valid chrome trace next to the payload
        trace = json.loads(
            (tmp_path / "cache").joinpath(
                f"{run.results[0].cell.config_hash}.trace.json"
            ).read_text()
        )
        assert "traceEvents" in trace


class TestParallelAndScaleOverride:
    def test_parallel_jobs_with_real_drivers(self, tmp_path):
        cfg = parse_config(
            {
                "experiment": {"id": "par"},
                "run": {"scale": "tiny", "jobs": 2},
                "matrix": {
                    "driver": ["ext-fault-breakdown"],
                    "scenario": ["chaos", "lossy-link"],
                },
            }
        )
        run = run_plan(plan(cfg), cache_dir=tmp_path / "cache")
        assert run.executed == 2
        assert {r.cell.params_dict()["scenario"] for r in run.results} == {
            "chaos",
            "lossy-link",
        }

    def test_scale_override_replaces_scale_axis(self, counting_driver, tmp_path):
        cfg = parse_config(
            {
                "experiment": {"id": "probe"},
                "matrix": {"driver": ["test-probe"], "scale": ["tiny", "quick"]},
            }
        )
        p = plan(cfg, scale_override="tiny")
        assert [c.scale for c in p.cells] == ["tiny"]

    def test_run_drivers_front_door(self, counting_driver, tmp_path):
        run = run_drivers(
            ["test-probe"], scale="tiny", cache_dir=tmp_path / "cache"
        )
        assert [r.cell.driver_id for r in run.results] == ["test-probe"]
        assert run.results[0].figure.figure_id == "probe"
        # second call resumes from the same cache: no new executions
        run_drivers(["test-probe"], scale="tiny", cache_dir=tmp_path / "cache")
        assert len(counting_driver.read_text().splitlines()) == 1


def _rewrite(path, edit) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


def _verdicts(payload, value) -> None:
    payload["verdicts"] = value


#: payloads that parse as JSON but are not a whole v2 cell: each must be a miss
MALFORMED = {
    "cell-is-a-list": lambda p: p.update(cell=[]),
    "figure-is-a-list": lambda p: p.update(figure=[1, 2]),
    "series-x-is-a-number": lambda p: p["figure"]["series"][0].update(x=3.0),
    "series-lengths-differ": lambda p: p["figure"]["series"][0]["y"].pop(),
    "verdicts-missing": lambda p: p.pop("verdicts"),
    "verdicts-not-a-list": lambda p: _verdicts(p, {"claim_id": "x"}),
    "verdict-not-a-dict": lambda p: _verdicts(p, ["pass"]),
    "verdict-missing-a-key": lambda p: _verdicts(
        p, [{"claim_id": "x", "status": "pass", "value": 1.0}]
    ),
    "verdict-band-not-numbers": lambda p: _verdicts(
        p,
        [
            {
                "claim_id": "x", "figure": "Fig. 1", "sentence": "s", "scale": "tiny",
                "band": {"lo": "0", "hi": 1.0, "strict": False},
                "status": "pass", "value": 0.5,
            }
        ],
    ),
    "claims-digest-missing": lambda p: p.pop("claims_digest"),
    "provenance-without-numpy": lambda p: p["provenance"].pop("numpy"),
    "v1-payload": lambda p: (
        p.update(schema="repro.eval-cell/v1"),
        p.pop("verdicts"),
        p.pop("claims_digest"),
    ),
}


class TestMalformedCache:
    @pytest.mark.parametrize("shape", sorted(MALFORMED))
    def test_wrong_shape_recomputes_and_reports(self, counting_driver, tmp_path, shape):
        from repro.eval import build_report

        cfg = _probe_config()
        cache = tmp_path / "cache"
        run = run_plan(plan(cfg), cache_dir=cache)
        path = cache / f"{run.results[0].cell.config_hash}.json"
        _rewrite(path, MALFORMED[shape])
        rerun = run_plan(plan(cfg), cache_dir=cache)
        assert rerun.executed == 1 and rerun.resumed == 0
        assert "probe" in build_report(rerun, run_bench=False)
        # the recomputed cell replaced the bad file and now resumes
        assert run_plan(plan(cfg), cache_dir=cache).resumed == 1


class TestInterruptedEval:
    def test_ctrl_c_while_persisting_leaves_a_resumable_cache(
        self, counting_driver, tmp_path, monkeypatch
    ):
        from repro.eval import runner

        cfg = _probe_config(knob=["a", "b"])
        first, second = (c.config_hash for c in plan(cfg).cells)
        cache = tmp_path / "cache"
        replace = os.replace
        calls = []

        def interrupted(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise KeyboardInterrupt
            replace(src, dst)

        monkeypatch.setattr(runner.os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_plan(plan(cfg), cache_dir=cache)
        monkeypatch.setattr(runner.os, "replace", replace)

        assert (cache / f"{first}.json").is_file()
        assert not (cache / f"{second}.json").exists()
        stray = cache / f"{second}.json.tmp"
        assert stray.is_file()
        stray.write_text('{"partial', encoding="utf-8")

        rerun = run_plan(plan(cfg), cache_dir=cache)
        assert [r.cached for r in rerun.results] == [True, False]
        assert counting_driver.read_text().splitlines() == ["a:0", "b:0", "b:0"]
        assert not stray.exists()
        saved = json.loads((cache / f"{second}.json").read_text(encoding="utf-8"))
        assert saved["cell"]["hash"] == second
        assert run_plan(plan(cfg), cache_dir=cache).resumed == 2
