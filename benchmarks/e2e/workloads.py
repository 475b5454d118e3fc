"""The benchmark's workloads: inputs from a seed, one timed operation, checks.

Each workload reaches the program only through public functions
(``repro.train``, ``DistributedSCD(...).solve``, ``replay``/``ModelServer``,
the ``repro eval`` command).  Functions that the layer trace wraps are called
through their module (``synthetic.make_criteo_like``), so the traced rep sees
the wrapper.

Problem sizes are chosen so that the number of epochs to the target is the
same for every seed: a mild power law (exponent 1.25) and a ``lambda`` large
enough for a steep, geometric gap curve, with the target placed between the
gaps of two consecutive epochs.  See README.md for the measured margins.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro.data import synthetic
from repro.gpu.device import GpuDevice
from repro.gpu.plan import clear_plan_cache, plan_cache_stats
from repro.gpu.spec import GTX_TITAN_X
from repro.serve import ModelServer, ServeConfig, WeightSnapshot, traffic
from repro.shards import ShardingConfig, format as shard_format, store as shard_store

import checks

__all__ = ["WORKLOADS", "Outcome", "make_workload"]

REPO_ROOT = Path(__file__).resolve().parents[2]

#: full sizes are what BENCHMARK.json describes; smoke sizes only prove the
#: harness runs and are never comparable with anything
SIZES = {
    "full": {
        "primal": dict(n=8000, m=20000, lam=1e-4, target=2e-11, max_epochs=60),
        "dist": dict(n=40000, card=2000, lam=1e-2, target=5e-8, max_epochs=60),
        "ooc": dict(n=40000, card=2000, lam=1e-3, target=2.5e-8, max_epochs=40, shards=16),
        "serve": dict(n=8000, m=20000, rate_hz=20e3, duration_s=0.75),
        "eval": dict(bench=True),
    },
    "smoke": {
        "primal": dict(n=1500, m=3000, lam=1e-3, target=1e-8, max_epochs=80),
        "dist": dict(n=4000, card=300, lam=1e-2, target=1e-5, max_epochs=80),
        "ooc": dict(n=4000, card=300, lam=1e-2, target=1e-6, max_epochs=60, shards=4),
        "serve": dict(n=1500, m=3000, rate_hz=20e3, duration_s=0.05),
        "eval": dict(bench=False),
    },
}


@dataclass
class Outcome:
    """What one rep did, summarised outside the timed region."""

    work: float
    attempted: int = 1
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    epochs: int = 0
    fingerprint: str = ""


class Workload:
    """Set-up, one timed operation, and its checks."""

    name = ""
    #: key of its sizes in ``SIZES``
    family = ""
    #: set-up is repeated this many times and its median reported
    setup_reps = 3

    def __init__(self, size: dict, seed: int, workdir: Path) -> None:
        self.size = size
        self.seed = int(seed)
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def before_rep(self) -> None:
        """Untimed preparation of one rep."""

    def run(self, traced: bool):
        raise NotImplementedError

    def outcome(self, result) -> Outcome:
        raise NotImplementedError

    def final_check(self, result) -> list[str]:
        """Checks too slow to repeat per rep; run once on the last result."""
        return []

    def counters(self, result, recorder, rolled) -> dict[str, float]:
        """Per-layer counts read from public outputs of the traced rep."""
        return {}


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _webspam_shaped(n: int, m: int, seed: int):
    """The webspam stand-in with a milder power law (seed-stable epoch counts)."""
    return synthetic.make_sparse_regression(
        n, m, nnz_per_example=64, feature_exponent=1.25, noise=0.2,
        model_density=0.05, binarize=True, rng=np.random.default_rng(seed),
        name="webspam-shaped",
    )


class _Train(Workload):
    formulation = "primal"

    def _problem(self, dataset, lam):
        # both layouts are converted here so that no rep pays for it
        for layout in ("csc", "csr"):
            getattr(dataset, layout)
        self.problem = repro.RidgeProblem(dataset, lam)
        self.scipy_matrix = checks.scipy_csr(dataset.csr)

    def outcome(self, result) -> Outcome:
        last = result.history.records[-1]
        out = Outcome(
            work=float(last.updates),
            epochs=int(last.epoch),
            fingerprint=checks.fingerprint(result.weights),
        )
        if not last.gap <= self.size["target"]:
            out.failed = 1
            out.failures.append(
                f"gap {last.gap:.3e} after {last.epoch} epochs misses "
                f"{self.size['target']:.1e}"
            )
        return out

    def final_check(self, result) -> list[str]:
        return checks.gap_failures(
            self.scipy_matrix, self.problem.y, self.problem.lam, result,
            self.formulation, self.size["target"],
        )


class _PrimalTrain(_Train):
    family = "primal"
    solver = ""
    solver_args: dict = {}
    #: the traced rep also hands the program's own tracer in (for its counters)
    program_tracer = False

    def setup(self) -> None:
        s = self.size
        self._problem(_webspam_shaped(s["n"], s["m"], self.seed), s["lam"])

    def run(self, traced: bool):
        tracer = repro.Tracer() if traced and self.program_tracer else None
        return repro.train(
            self.problem, self.solver, formulation="primal",
            target_gap=self.size["target"], n_epochs=self.size["max_epochs"],
            seed=self.seed, tracer=tracer, **self.solver_args,
        )


class SeqPrimal(_PrimalTrain):
    name = "seq_primal"
    solver = "seq"


class TpaPrimal(_PrimalTrain):
    name = "tpa_primal"
    solver = "tpa-scd"

    def before_rep(self) -> None:
        # a one-shot `repro train` pays the plan compile; so does every rep
        clear_plan_cache()
        self._stats0 = plan_cache_stats()

    def counters(self, result, recorder, rolled):
        return _gpu_counters(self._stats0, recorder, rolled)


class SyscdPrimal(_PrimalTrain):
    name = "syscd_primal"
    solver = "syscd"
    solver_args = {"n_threads": 2}
    # syscd.merges / syscd.buckets exist only on the program's tracer
    program_tracer = True

    def counters(self, result, recorder, rolled):
        epoch = rolled.get("solvers.epoch", {})
        return {
            "solvers.syscd.cpu_per_wall": (
                epoch["cpu_s"] / epoch["busy_s"] if epoch.get("busy_s") else 0.0
            ),
            "solvers.syscd.merges": result.metrics.counter("syscd.merges"),
            "solvers.syscd.buckets": result.metrics.counter("syscd.buckets"),
        }


def _gpu_counters(stats0: dict, recorder, rolled) -> dict[str, float]:
    stats = plan_cache_stats()
    plans = recorder.receivers.get("gpu.plan.begin_epoch", [])
    return {
        "gpu.plan.cache_hits": stats["hits"] - stats0["hits"],
        "gpu.plan.cache_misses": stats["misses"] - stats0["misses"],
        "gpu.waves": rolled.get("gpu.wave.dots", {}).get("calls", 0),
        "gpu.pool.resident_bytes": sum(p.pool.resident_bytes for p in plans),
    }


class DistTpaDual(_Train):
    name = "dist_tpa_dual"
    family = "dist"
    formulation = "dual"
    n_workers = 4

    def setup(self) -> None:
        s = self.size
        dataset = synthetic.make_criteo_like(
            s["n"], n_groups=26, group_cardinality=s["card"], seed=self.seed
        )
        self._problem(dataset, s["lam"])

    def before_rep(self) -> None:
        self._stats0 = plan_cache_stats()

    def run(self, traced: bool):
        return repro.train(
            self.problem, "distributed", formulation="dual", local_solver="tpa",
            n_workers=self.n_workers, aggregation="adaptive",
            target_gap=self.size["target"], n_epochs=self.size["max_epochs"],
            seed=self.seed,
        )

    def counters(self, result, recorder, rolled):
        out = _gpu_counters(self._stats0, recorder, rolled)
        rounds = result.history.records[-1].epoch
        # dual formulation: each worker's reduced vector is A^T alpha, float64, length M
        out["cluster.bytes_reduced"] = float(self.problem.m * 8 * self.n_workers * rounds)
        return out


class OocStreamDual(DistTpaDual):
    name = "ooc_stream_dual"
    family = "ooc"
    n_workers = 1

    def setup(self) -> None:
        super().setup()
        root = Path(tempfile.mkdtemp(prefix="shards-", dir=self.workdir))
        shard_format.pack_dataset(
            self.problem.dataset, root, axis="rows", n_shards=self.size["shards"]
        )
        store = shard_store.ShardStore(root, verify_checksums=True)
        # Fig. 10 convention: a 40 GB footprint through one 12 GB device, so
        # every epoch re-reads every shard
        self.sharding = ShardingConfig(
            store=store, prefetch=True, simulated_total_nbytes=int(40e9)
        )

    def _engine(self, shards):
        return repro.DistributedSCD(
            lambda rank: repro.TpaScdKernelFactory(GpuDevice(GTX_TITAN_X)),
            "dual", n_workers=1, aggregation="adaptive", shards=shards,
            seed=self.seed,
        )

    def run(self, traced: bool):
        return self._engine(self.sharding).solve(
            self.problem, self.size["max_epochs"], target_gap=self.size["target"]
        )

    def final_check(self, result) -> list[str]:
        out = super().final_check(result)
        resident = self._engine(None).solve(
            self.problem, self.size["max_epochs"], target_gap=self.size["target"]
        )
        if not np.array_equal(result.weights, resident.weights):
            out.append("streamed weights differ from the resident run's")
        return out

    def counters(self, result, recorder, rolled):
        out = super().counters(result, recorder, rolled)
        stats = [s.cache.stats() for s in recorder.receivers.get("shards.stream_epoch", [])]
        hits = sum(s["hits"] for s in stats)
        misses = sum(s["misses"] for s in stats)
        reads = rolled.get("shards.read", {}).get("calls", 0)
        store = self.sharding.store
        out.update({
            "shards.cache.hits": hits,
            "shards.cache.misses": misses,
            "shards.cache.evictions": sum(s["evictions"] for s in stats),
            "shards.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            # shards are byte-balanced and each is read equally often
            "shards.read_bytes": reads * store.total_nbytes / store.n_shards,
        })
        return out


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------


class ServeReplay(Workload):
    name = "serve_replay"
    family = "serve"
    n_swaps = 4

    def setup(self) -> None:
        s = self.size
        dataset = _webspam_shaped(s["n"], s["m"], self.seed)
        self.scipy_matrix = checks.scipy_csr(dataset.csr)
        rng = np.random.default_rng([self.seed, 1])
        self.snapshots = [
            WeightSnapshot(version=v, weights=rng.standard_normal(s["m"]))
            for v in range(1, self.n_swaps + 2)
        ]
        arrivals = traffic.poisson_arrivals(s["rate_hz"], s["duration_s"], seed=self.seed)
        self.requests = traffic.RequestSource(dataset.csr, seed=self.seed).requests(arrivals)
        step = s["duration_s"] / (self.n_swaps + 1)
        self.events = self.requests + [
            traffic.SwapEvent(at_s=step * i, snapshot=snap)
            for i, snap in enumerate(self.snapshots[1:], start=1)
        ]

    def run(self, traced: bool):
        server = ModelServer(self.snapshots[0], config=ServeConfig())
        traffic.replay(server, self.events)
        return server

    def outcome(self, server) -> Outcome:
        answered = [r for r in server.responses if not r.shed]
        shed = len(server.responses) - len(answered)
        missing = len(self.requests) - len(server.responses)
        out = Outcome(
            work=float(len(answered)), attempted=len(self.requests),
            failed=shed + max(0, missing),
        )
        if out.failed:
            out.failures.append(f"{shed} shed, {missing} unanswered")
        return out

    def final_check(self, server) -> list[str]:
        weights = {s.version: s.weights for s in self.snapshots}
        return checks.serve_failures(
            self.scipy_matrix, weights, self.requests, server.responses
        )

    def counters(self, server, recorder, rolled):
        answered = [r for r in server.responses if not r.shed]
        batches = len({r.batch_index for r in answered})
        return {
            "serve.swaps": server.swaps_applied,
            "serve.batches": batches,
            "serve.rows_scored": len(answered),
            "serve.shed": len(server.responses) - len(answered),
            "serve.rows_per_batch": len(answered) / batches if batches else 0.0,
        }


# ---------------------------------------------------------------------------
# eval orchestration
# ---------------------------------------------------------------------------

_EVAL_CONFIG = """\
[experiment]
id = "fig1"
title = "Fig. 1 - primal convergence (five solvers)"

[run]
scale = "tiny"
seed = {seed}

[matrix]
driver = ["fig1"]

[report]
sections = ["figures", "ledger", "bench"]
bench_profile = "default"
bench_baseline = "latest"
bench_threshold = 0.4
log_y = true
"""


class _EvalFig1(Workload):
    """``python -m repro eval`` on the shipped Fig. 1 declaration, seed from ``--seed``."""

    family = "eval"
    resumed = False

    def setup(self) -> None:
        self.config = self.workdir / "fig1.toml"
        self.config.write_text(_EVAL_CONFIG.format(seed=self.seed))
        self.out_dir = self.workdir / "reports"
        self.cache_dir = self.workdir / "cache"
        self._fresh_cache()
        if self.resumed:
            self._command()

    def _fresh_cache(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def _args(self) -> list[str]:
        args = [
            str(self.config), "--scale", "tiny", "--jobs", "1",
            "--cache-dir", str(self.cache_dir), "--out-dir", str(self.out_dir),
        ]
        return args if self.size["bench"] else args + ["--no-bench"]

    def _command(self) -> dict:
        """One `repro eval` process; the baseline is found from the repo root."""
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "eval", *self._args(), "--json"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True, check=False,
        )
        summary = {"returncode": proc.returncode, "executed": -1, "resumed": -1}
        start = proc.stdout.find("{")
        if proc.returncode == 0 and start >= 0:
            summary.update(json.loads(proc.stdout[start:]))
        return summary

    def before_rep(self) -> None:
        if not self.resumed:
            self._fresh_cache()

    def run(self, traced: bool):
        if not traced:
            return self._command()
        # the traced rep is the same pipeline in this process, so that the
        # wrapped entry points are the ones that run
        from repro import eval as eval_pkg

        config = eval_pkg.load_config(self.config)
        run = eval_pkg.run_plan(
            eval_pkg.plan(config, scale_override="tiny"),
            cache_dir=self.cache_dir, jobs=1,
        )
        report = eval_pkg.render_report(run, self.out_dir, run_bench=self.size["bench"])
        return {
            "returncode": 0, "executed": run.executed, "resumed": run.resumed,
            "report": str(report),
            "cell_s": sum(r.elapsed_s for r in run.results if not r.cached),
        }

    def outcome(self, summary) -> Outcome:
        want = (0, 1) if self.resumed else (1, 0)
        out = Outcome(work=1.0)
        report = self.out_dir / "fig1.html"
        if summary["returncode"] != 0:
            out.failures.append(f"repro eval exited {summary['returncode']}")
        if (summary["executed"], summary["resumed"]) != want:
            out.failures.append(
                f"{summary['executed']} executed / {summary['resumed']} resumed, "
                f"expected {want[0]} / {want[1]}"
            )
        if not report.is_file() or "fig1" not in report.read_text(encoding="utf-8"):
            out.failures.append("HTML report missing or does not name fig1")
        out.failed = 1 if out.failures else 0
        return out

    def counters(self, summary, recorder, rolled):
        report = self.out_dir / "fig1.html"
        return {
            "eval.cell_s": summary.get("cell_s", 0.0),
            "eval.cells_executed": summary["executed"],
            "eval.cells_resumed": summary["resumed"],
            "eval.report_bytes": report.stat().st_size if report.is_file() else 0,
        }


class EvalFig1Cold(_EvalFig1):
    name = "eval_fig1_cold"


class EvalFig1Resumed(_EvalFig1):
    name = "eval_fig1_resumed"
    resumed = True
    # set-up is a whole cold run; once is enough
    setup_reps = 1


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        SeqPrimal, TpaPrimal, SyscdPrimal, DistTpaDual, OocStreamDual, ServeReplay,
        EvalFig1Cold, EvalFig1Resumed,
    )
}


def make_workload(name: str, *, smoke: bool, seed: int, workdir: Path) -> Workload:
    cls = WORKLOADS[name]
    return cls(SIZES["smoke" if smoke else "full"][cls.family], seed, workdir)
