"""Tests for the observability layer: tracer, metrics, exporters, CLI.

The load-bearing invariants:

* tracing must not perturb the numerics — seeded runs are bit-identical
  with the :class:`NullTracer` and with a full :class:`Tracer`;
* the modelled-time ledger equals the span-tree rollup by construction
  (``tracer.ledger == tracer.ledger_view()``), and the Chrome trace's
  per-event ``sim`` attribution conserves the ledger totals.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.cli import main
from repro.core.distributed import DistributedSCD
from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Span,
    Tracer,
    active_tracer,
    chrome_trace,
    flame_summary,
    metrics_json,
    resolve_tracer,
    traced,
    use_tracer,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_json,
)
from repro.solvers.scd import SequentialKernelFactory, SequentialSCD


class TestSpanTree:
    def test_nesting_structure(self):
        tracer = Tracer()
        with tracer.span("outer", category="driver", k=1):
            with tracer.span("inner-a"):
                pass
            with tracer.span("inner-b"):
                with tracer.span("leaf"):
                    pass
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert outer.name == "outer"
        assert outer.attrs == {"k": 1}
        assert [c.name for c in outer.children] == ["inner-a", "inner-b"]
        assert [s.name for s in outer.walk()] == [
            "outer", "inner-a", "inner-b", "leaf",
        ]

    def test_wall_times_nest(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.roots[0], tracer.roots[0].children[0]
        assert outer.t0 <= inner.t0 <= inner.t1 <= outer.t1
        assert outer.wall_seconds >= inner.wall_seconds >= 0.0

    def test_out_of_order_close_raises(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            outer.__exit__(None, None, None)

    def test_modelled_time_attribution(self):
        tracer = Tracer()
        ledger = tracer.open_ledger()
        with tracer.span("a"):
            ledger.add("compute_gpu", 1.0)
            with tracer.span("b"):
                ledger.add("comm_network", 0.25)
            ledger.add("compute_gpu", 0.5)
        a = tracer.roots[0]
        assert a.sim == {"compute_gpu": 1.5}
        assert a.children[0].sim == {"comm_network": 0.25}
        assert a.sim_rollup() == {"compute_gpu": 1.5, "comm_network": 0.25}
        assert tracer.ledger.breakdown()["compute_gpu"] == 1.5

    def test_orphan_bookings_go_to_untraced_root(self):
        tracer = Tracer()
        tracer.open_ledger().add("compute_host", 2.0)
        assert any(r.name == "(untraced)" for r in tracer.roots)
        assert tracer.ledger_view().breakdown() == tracer.ledger.breakdown()

    def test_ledger_view_equals_ledger(self, ridge_sparse):
        tracer = Tracer()
        SequentialSCD("dual", seed=0).solve(ridge_sparse, 3, tracer=tracer)
        assert tracer.ledger_view().breakdown() == pytest.approx(
            tracer.ledger.breakdown()
        )

    def test_result_ledger_is_traced_view(self, ridge_sparse):
        tracer = Tracer()
        res = SequentialSCD("dual", seed=0).solve(ridge_sparse, 3, tracer=tracer)
        assert res.ledger.breakdown() == pytest.approx(tracer.ledger.breakdown())
        assert res.trace is tracer
        assert res.metrics is tracer.metrics


class TestNullTracer:
    def test_null_is_cheap_and_stateless(self):
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.span("x") is NULL_SPAN
        with NULL_TRACER.span("x") as s:
            assert s is None
        NULL_TRACER.count("a")
        NULL_TRACER.observe("b", 1.0)
        NULL_TRACER.gauge("c", 2.0)
        assert isinstance(NULL_TRACER, NullTracer)

    def test_open_ledger_is_plain(self):
        ledger = NULL_TRACER.open_ledger()
        ledger.add("compute_gpu", 1.0)
        assert ledger.breakdown()["compute_gpu"] == 1.0

    def test_seq_bit_identical_traced_vs_untraced(self, ridge_sparse):
        res0 = SequentialSCD("dual", seed=7).solve(ridge_sparse, 4)
        res1 = SequentialSCD("dual", seed=7).solve(
            ridge_sparse, 4, tracer=Tracer()
        )
        np.testing.assert_array_equal(res0.weights, res1.weights)
        np.testing.assert_array_equal(res0.shared, res1.shared)
        assert [r.gap for r in res0.history.records] == [
            r.gap for r in res1.history.records
        ]

    def test_distributed_faults_bit_identical(self, ridge_sparse):
        def run(tracer):
            eng = DistributedSCD(
                SequentialKernelFactory(),
                "primal",
                n_workers=3,
                aggregation="adaptive",
                seed=5,
                faults="chaos",
            )
            return eng.solve(ridge_sparse, 4, tracer=tracer)

        res0, res1 = run(None), run(Tracer())
        np.testing.assert_array_equal(res0.shared, res1.shared)
        assert res0.gammas == res1.gammas
        assert [r.sim_time for r in res0.history.records] == [
            r.sim_time for r in res1.history.records
        ]
        # ledgers agree too, component by component
        assert res0.ledger.breakdown() == pytest.approx(res1.ledger.breakdown())


class TestAmbientTracer:
    def test_use_tracer_installs_and_restores(self):
        t1, t2 = Tracer(), Tracer()
        assert active_tracer() is NULL_TRACER
        with use_tracer(t1):
            assert active_tracer() is t1
            with use_tracer(t2):
                assert active_tracer() is t2
            assert active_tracer() is t1
        assert active_tracer() is NULL_TRACER

    def test_resolve_prefers_explicit(self):
        explicit, ambient = Tracer(), Tracer()
        with use_tracer(ambient):
            assert resolve_tracer(explicit) is explicit
            assert resolve_tracer(None) is ambient
        assert resolve_tracer(None) is NULL_TRACER

    def test_solver_picks_up_ambient(self, ridge_sparse):
        tracer = Tracer()
        with use_tracer(tracer):
            SequentialSCD("dual", seed=0).solve(ridge_sparse, 2)
        assert tracer.ledger.total > 0.0
        assert tracer.metrics.counter("train.epochs") == 2

    def test_traced_decorator(self):
        tracer = Tracer()

        @traced("work", category="func")
        def work(x):
            return x + 1

        with use_tracer(tracer):
            assert work(1) == 2
        assert tracer.roots[0].name == "work"
        assert tracer.roots[0].category == "func"

    def test_detail_validation(self):
        with pytest.raises(ValueError, match="detail"):
            Tracer(detail="nanosecond")


class TestTracerHandOff:
    """A solve reports to its own tracer only, never to an earlier solve's."""

    @staticmethod
    def _engines():
        from repro.core.tpa_scd import TpaScd, TpaScdKernelFactory
        from repro.solvers.syscd import SySCD

        return {
            "tpa": (TpaScd(wave_size=8), "gpu.waves"),
            "syscd": (SySCD(n_threads=2), "syscd.buckets"),
            "distributed-tpa": (
                DistributedSCD(TpaScdKernelFactory(wave_size=4), "dual", n_workers=2),
                "gpu.waves",
            ),
        }

    @pytest.mark.parametrize("kind", ["tpa", "syscd", "distributed-tpa"])
    def test_untraced_solve_leaves_earlier_tracer_alone(self, ridge_sparse, kind):
        engine, counter = self._engines()[kind]
        first = Tracer()
        engine.solve(ridge_sparse, 2, tracer=first)
        recorded = first.metrics.counter(counter)
        assert recorded > 0
        snapshot = first.metrics.as_dict()
        untraced = engine.solve(ridge_sparse, 3)
        assert untraced.metrics is None
        assert first.metrics.counter(counter) == recorded
        assert first.metrics.as_dict() == snapshot
        # and a later traced solve reports to its own tracer only
        second = Tracer()
        engine.solve(ridge_sparse, 2, tracer=second)
        assert second.metrics.counter(counter) == recorded
        assert first.metrics.as_dict() == snapshot


class TestMetricsRegistry:
    def test_counters(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 2.5)
        assert reg.counter("a") == 3.5
        assert reg.counter("missing") == 0.0
        with pytest.raises(ValueError, match="cannot decrease"):
            reg.inc("a", -1)

    def test_gauges_and_histograms(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 4.0)
        assert reg.gauge("g") == 4.0
        assert reg.gauge("missing") is None
        for v in (0.5, 1.5, 2.0):
            reg.observe("h", v)
        hist = reg.histogram("h")
        assert hist.count == 3
        assert hist.mean == pytest.approx(4.0 / 3)
        assert hist.min == 0.5 and hist.max == 2.0
        assert sum(hist.bucket_counts) == 3

    def test_histogram_overflow_bucket(self):
        h = Histogram(buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(1e6)
        assert h.bucket_counts == [1, 0, 1]

    def test_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 1)
        b.inc("c", 2)
        b.set_gauge("g", 9.0)
        b.observe("h", 3.0)
        a.observe("h", 1.0)
        a.merge(b)
        assert a.counter("c") == 3
        assert a.gauge("g") == 9.0
        assert a.histogram("h").count == 2
        assert a.histogram("h").total == 4.0

    def test_names_and_as_dict(self):
        reg = MetricsRegistry()
        reg.inc("z.count")
        reg.set_gauge("a.gauge", 1.0)
        reg.observe("m.hist", 2.0)
        assert reg.names() == ["a.gauge", "m.hist", "z.count"]
        doc = reg.as_dict()
        assert json.dumps(doc)  # serializable
        assert doc["counters"] == {"z.count": 1.0}
        assert doc["histograms"]["m.hist"]["count"] == 1


class TestEngineMetrics:
    def test_gpu_wave_metrics(self, ridge_sparse):
        from repro.core.tpa_scd import TpaScd

        tracer = Tracer()
        TpaScd("dual", wave_size=16, seed=0).solve(
            ridge_sparse, 2, tracer=tracer
        )
        m = tracer.metrics
        assert m.counter("gpu.waves") > 0
        assert m.counter("gpu.nnz_processed") == 2 * ridge_sparse.dataset.nnz
        assert m.counter("gpu.atomic_conflicts") >= 0
        assert m.counter("scd.updates") == 2 * ridge_sparse.n

    def test_wave_detail_emits_wave_spans(self, ridge_sparse):
        from repro.core.tpa_scd import TpaScd

        tracer = Tracer(detail="wave")
        TpaScd("dual", wave_size=16, seed=0).solve(
            ridge_sparse, 1, tracer=tracer
        )
        names = {s.name for s in tracer.walk()}
        assert "tpa.wave" in names and "tpa.epoch" in names

    def test_distributed_comm_and_fault_metrics(self, ridge_sparse):
        tracer = Tracer()
        eng = DistributedSCD(
            SequentialKernelFactory(),
            "primal",
            n_workers=3,
            seed=2,
            faults="chaos",
        )
        eng.solve(ridge_sparse, 4, tracer=tracer)
        m = tracer.metrics
        assert m.counter("dist.epochs") == 4
        assert m.counter("comm.reduce_calls") > 0
        assert m.counter("comm.bytes_reduced") > 0
        assert m.histogram("dist.survivors").count == 4
        # the chaos scenario injects every fault class over 4 epochs
        assert m.counter("faults.stragglers") + m.counter("faults.dropouts") > 0


class TestExport:
    def _traced_run(self, ridge_sparse) -> Tracer:
        tracer = Tracer()
        SequentialSCD("dual", seed=0).solve(ridge_sparse, 3, tracer=tracer)
        return tracer

    def test_chrome_trace_validates(self, ridge_sparse):
        doc = chrome_trace(self._traced_run(ridge_sparse))
        validate_chrome_trace(doc)
        assert doc["schema"] == "repro.trace/v1"
        phs = {e["ph"] for e in doc["traceEvents"]}
        assert phs == {"M", "X"}

    def test_trace_rollup_matches_ledger(self, ridge_sparse):
        tracer = self._traced_run(ridge_sparse)
        doc = chrome_trace(tracer)
        totals: dict[str, float] = {}
        for event in doc["traceEvents"]:
            for k, v in event.get("args", {}).get("sim", {}).items():
                totals[k] = totals.get(k, 0.0) + v
        breakdown = {k: v for k, v in tracer.ledger.breakdown().items() if v}
        assert set(totals) == set(breakdown)
        for k in breakdown:
            assert math.isclose(totals[k], breakdown[k], rel_tol=1e-9)

    def test_validator_rejects_broken_conservation(self, ridge_sparse):
        doc = chrome_trace(self._traced_run(ridge_sparse))
        doc["simTotals"] = {k: v * 2 for k, v in doc["simTotals"].items()}
        with pytest.raises(ValueError):
            validate_chrome_trace(doc)

    def test_validator_rejects_bad_structure(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"schema": "nope", "traceEvents": []})

    def test_write_round_trip(self, ridge_sparse, tmp_path):
        tracer = self._traced_run(ridge_sparse)
        tp = write_chrome_trace(tracer, tmp_path / "t.trace.json")
        mp = write_metrics_json(tracer, tmp_path / "t.metrics.json")
        trace_doc = json.loads(tp.read_text())
        validate_chrome_trace(trace_doc)
        metrics_doc = json.loads(mp.read_text())
        assert metrics_doc["schema"] == "repro.metrics/v1"
        assert metrics_doc["sim_breakdown"] == {
            k: v for k, v in tracer.ledger.breakdown().items() if v
        }
        assert metrics_doc == metrics_json(tracer)

    def test_flame_summary(self, ridge_sparse):
        text = flame_summary(self._traced_run(ridge_sparse))
        assert "train" in text
        assert "epoch" in text
        assert "modelled-time breakdown" in text


class TestTraceCli:
    def test_trace_subcommand(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        out_dir = tmp_path / "traces"
        assert main(
            [
                "trace", "fig2", "--scale", "tiny",
                "--out-dir", str(out_dir),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "modelled-time breakdown" in out
        trace_doc = json.loads((out_dir / "fig2-tiny.trace.json").read_text())
        validate_chrome_trace(trace_doc)
        metrics_doc = json.loads(
            (out_dir / "fig2-tiny.metrics.json").read_text()
        )
        assert metrics_doc["schema"] == "repro.metrics/v1"
        assert metrics_doc["metrics"]["counters"]["train.epochs"] > 0
