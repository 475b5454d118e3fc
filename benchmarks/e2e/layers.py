"""Outside-in layer trace: which entry points are timed, and how spans roll up.

The program is not edited.  ``TABLE`` names the public entry points of each
package under ``src/repro``; :func:`installed` wraps them for the duration of
one traced rep and restores them afterwards, and every call becomes a span
``(id, parent, name, thread, start, end, cpu)`` kept in memory.  A layer's
per-layer metrics follow from its span name by convention:

* ``<span>_s``       busy seconds (sum of the span's durations, any thread)
* ``<span>_calls``   number of spans
* ``<span>_self_s``  busy seconds minus the time its child spans cover

Every other per-layer metric is a *counter* (``COUNTERS``) that the workload
reads from the program's public outputs.  A target that no longer resolves
makes the span's metrics ``None`` with a warning; it never fails a run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "COUNTERS",
    "ROOT_SPAN",
    "TABLE",
    "Entry",
    "SpanRecorder",
    "installed",
    "layer_metrics",
    "resolve",
    "rollup",
    "split_metric",
]

#: the span the harness opens around the traced operation
ROOT_SPAN = "bench.rep"


@dataclass(frozen=True)
class Entry:
    """One timed entry point: ``target`` is ``"module:attr.path"``."""

    span: str
    target: str
    #: the call returns a ``BoundKernel``; time its ``run_epoch`` under this span
    epoch_span: str | None = None
    #: keep the receiver (``self``) so the workload can read its public stats
    keep_self: bool = False


TABLE: tuple[Entry, ...] = (
    # data / sparse: set-up cost, and the mat-vecs behind gap evaluation and scoring
    Entry("data.generate", "repro.data.synthetic:make_sparse_regression"),
    Entry("data.generate", "repro.data.synthetic:make_criteo_like"),
    Entry("sparse.convert", "repro.sparse.matrix:CsrMatrix.to_csc"),
    Entry("sparse.convert", "repro.sparse.matrix:CscMatrix.to_csr"),
    Entry("sparse.matvec", "repro.sparse.matrix:CsrMatrix.matvec"),
    Entry("sparse.matvec", "repro.sparse.matrix:CsrMatrix.rmatvec"),
    Entry("sparse.matvec", "repro.sparse.matrix:CscMatrix.matvec"),
    Entry("sparse.matvec", "repro.sparse.matrix:CscMatrix.rmatvec"),
    # objectives: one function, bound by name in each module that imported it
    Entry("objectives.gap_eval", "repro.objectives.ridge:gap_and_objective"),
    Entry("objectives.gap_eval", "repro.solvers.base:gap_and_objective"),
    Entry("objectives.gap_eval", "repro.core.distributed:gap_and_objective"),
    # CPU solvers
    Entry(
        "solvers.bind",
        "repro.solvers.scd:SequentialKernelFactory.bind_primal",
        epoch_span="solvers.epoch",
    ),
    Entry(
        "solvers.bind",
        "repro.solvers.syscd:SyscdKernelFactory.bind_primal",
        epoch_span="solvers.epoch",
    ),
    # TPA-SCD on the planned wave runtime
    Entry("core.tpa.bind", "repro.core.tpa_scd:TpaScdKernelFactory.bind_primal"),
    Entry("core.tpa.bind", "repro.core.tpa_scd:TpaScdKernelFactory.bind_dual"),
    Entry("gpu.plan.compile", "repro.gpu.plan:WavePlan.__init__"),
    Entry("gpu.plan.begin_epoch", "repro.gpu.plan:WavePlan.begin_epoch", keep_self=True),
    Entry("gpu.wave.gather", "repro.gpu.plan:EpochRun.gather_shared"),
    Entry("gpu.wave.gather", "repro.gpu.plan:EpochRun.gather_residual"),
    Entry("gpu.wave.dots", "repro.gpu.plan:EpochRun.block_dots"),
    Entry("gpu.wave.scatter", "repro.gpu.plan:EpochRun.expand_deltas"),
    Entry("gpu.wave.scatter", "repro.gpu.plan:EpochRun.scatter_shared"),
    Entry("gpu.engine.epoch", "repro.gpu.engine:TpaScdEngine.run_primal_epoch"),
    Entry("gpu.engine.epoch", "repro.gpu.engine:TpaScdEngine.run_dual_epoch"),
    # cluster runtime round loop
    Entry("cluster.runtime", "repro.cluster.runtime:ClusterRuntime.run"),
    Entry("cluster.open", "repro.cluster.runtime:InProcessBackend.open"),
    Entry("cluster.round", "repro.cluster.runtime:InProcessBackend.run_round"),
    Entry("cluster.local_round", "repro.core.distributed:_ScdWorkerPool.local_round"),
    Entry("cluster.reduce", "repro.cluster.runtime:InProcessBackend.reduce"),
    Entry("cluster.fold", "repro.cluster.runtime:InProcessBackend.finish_round"),
    Entry("cluster.gap_eval", "repro.cluster.runtime:InProcessBackend.gap_objective"),
    Entry("core.aggregation.gamma", "repro.core.aggregation:AdaptiveAggregator.gamma"),
    Entry("core.aggregation.gamma", "repro.core.aggregation:AveragingAggregator.gamma"),
    Entry("core.aggregation.gamma", "repro.core.aggregation:AddingAggregator.gamma"),
    # out-of-core shards
    Entry("shards.pack", "repro.shards.format:pack_dataset"),
    Entry("shards.open", "repro.shards.store:ShardStore.__init__"),
    Entry("shards.assemble", "repro.shards.streaming:ShardStreamer.assemble"),
    Entry(
        "shards.stream_epoch",
        "repro.shards.streaming:ShardStreamer.stream_epoch",
        keep_self=True,
    ),
    Entry("shards.read", "repro.shards.store:ShardStore.read"),
    # serving
    Entry("serve.requests_gen", "repro.serve.traffic:RequestSource.requests"),
    Entry("serve.replay", "repro.serve.traffic:replay"),
    Entry("serve.submit", "repro.serve.server:ModelServer.submit"),
    Entry("serve.drain", "repro.serve.server:ModelServer.drain"),
    Entry("serve.swap", "repro.serve.server:ModelServer.apply_swap"),
    # eval orchestration (in-process twin of the `repro eval` command)
    Entry("eval.plan", "repro.eval:load_config"),
    Entry("eval.plan", "repro.eval:plan"),
    Entry("eval.run_plan", "repro.eval:run_plan"),
    Entry("eval.report", "repro.eval:render_report"),
    Entry("perf.bench_suite", "repro.perf.bench:run_suite"),
)

#: per-layer metrics that are not derived from a span: counts read from the
#: program's public outputs, and the harness's own observations
COUNTERS: tuple[str, ...] = (
    "solvers.syscd.merges",
    "solvers.syscd.buckets",
    "solvers.syscd.cpu_per_wall",
    "gpu.plan.cache_hits",
    "gpu.plan.cache_misses",
    "gpu.waves",
    "gpu.pool.resident_bytes",
    "cluster.bytes_reduced",
    "shards.read_bytes",
    "shards.cache.hits",
    "shards.cache.misses",
    "shards.cache.evictions",
    "shards.cache.hit_ratio",
    "serve.swaps",
    "serve.batches",
    "serve.rows_scored",
    "serve.shed",
    "serve.rows_per_batch",
    "cli.import_s",
    "eval.cell_s",
    "eval.cells_executed",
    "eval.cells_resumed",
    "eval.report_bytes",
    "bench.first_rep_s",
    "bench.reps",
    "bench.epochs_to_target",
    "bench.failed_frac",
    "obs.trace_overhead_frac",
    "obs.layer_coverage_frac",
    "obs.spans",
    "host.calib_matvec_s",
    "host.calib_memcpy_gbps",
)

#: metric suffix -> roll-up field; the longest suffix is tried first
_FIELDS = (("_self_s", "self_s"), ("_calls", "calls"), ("_s", "busy_s"))


def resolve(target: str):
    """``(owner, attribute name, current value)`` of a ``module:attr.path``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class SpanRecorder:
    """In-memory span store; one parent stack per thread."""

    def __init__(self) -> None:
        #: ``(id, parent id, name, thread id, start, end, cpu seconds or None)``
        self.spans: list[tuple] = []
        #: receivers kept by ``keep_self`` entries, by span name
        self.receivers: dict[str, list] = {}
        #: span names with a target that did not resolve
        self.unresolved: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, cpu: bool = False) -> tuple:
        """Open a span on this thread; hand the result to :meth:`end`."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent, name, time.process_time() if cpu else None, time.perf_counter()

    def end(self, token: tuple) -> None:
        end = time.perf_counter()
        sid, parent, name, cpu0, start = token
        used = None if cpu0 is None else time.process_time() - cpu0
        self._stack().pop()
        self.spans.append((sid, parent, name, threading.get_ident(), start, end, used))

    @contextmanager
    def span(self, name: str):
        token = self.begin(name)
        try:
            yield
        finally:
            self.end(token)

    def keep(self, name: str, obj) -> None:
        kept = self.receivers.setdefault(name, [])
        if not any(obj is k for k in kept):
            kept.append(obj)

    def as_dicts(self, workload: str, rep: str) -> list[dict]:
        """The ``spans.json`` rows."""
        return [
            {
                "id": sid, "parent": parent, "name": name, "workload": workload,
                "rep": rep, "thread": tid, "start": start, "end": end,
            }
            for sid, parent, name, tid, start, end, _ in self.spans
        ]


def _wrap(fn, name: str, recorder: SpanRecorder, *, cpu=False, keep_self=False,
          epoch_span: str | None = None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if keep_self:
            recorder.keep(name, args[0])
        token = recorder.begin(name, cpu)
        try:
            out = fn(*args, **kwargs)
        finally:
            recorder.end(token)
        if epoch_span is not None:
            # CPU seconds are read only around a solver epoch (SySCD CPU per wall)
            out.run_epoch = _wrap(out.run_epoch, epoch_span, recorder, cpu=True)
        return out

    return traced


@contextmanager
def installed(recorder: SpanRecorder, table: tuple[Entry, ...] = TABLE):
    """Wrap every resolvable entry of ``table``; restore on exit."""
    undo = []
    try:
        for entry in table:
            try:
                owner, name, original = resolve(entry.target)
            except (ImportError, AttributeError) as exc:
                recorder.unresolved.add(entry.span)
                if entry.epoch_span:
                    recorder.unresolved.add(entry.epoch_span)
                warnings.warn(
                    f"layer trace: {entry.target} does not resolve ({exc}); "
                    f"{entry.span}* is reported as null",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            own = name in vars(owner)
            wrapped = _wrap(
                original, entry.span, recorder,
                keep_self=entry.keep_self, epoch_span=entry.epoch_span,
            )
            setattr(owner, name, wrapped)
            undo.append((owner, name, original, own))
        yield recorder
    finally:
        for owner, name, original, own in reversed(undo):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


def rollup(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: busy seconds, self seconds, calls, CPU seconds."""
    covered: dict[int, float] = {}
    for _, parent, _, _, start, end, _ in spans:
        covered[parent] = covered.get(parent, 0.0) + (end - start)
    out: dict[str, dict[str, float]] = {}
    for sid, _, name, _, start, end, cpu in spans:
        row = out.setdefault(
            name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0, "cpu_s": 0.0}
        )
        dur = end - start
        row["busy_s"] += dur
        row["self_s"] += dur - covered.get(sid, 0.0)
        row["calls"] += 1
        if cpu is not None:
            row["cpu_s"] += cpu
    return out


def _span_names(table: tuple[Entry, ...] = TABLE) -> set[str]:
    names = {ROOT_SPAN}
    for entry in table:
        names.add(entry.span)
        if entry.epoch_span:
            names.add(entry.epoch_span)
    return names


def split_metric(metric: str, table: tuple[Entry, ...] = TABLE):
    """``(span name, field)`` of a span-derived metric, or ``None`` for a counter."""
    names = _span_names(table)
    for suffix, fld in _FIELDS:
        if metric.endswith(suffix) and metric[: -len(suffix)] in names:
            return metric[: -len(suffix)], fld
    return None


def layer_metrics(
    names,
    rolled: dict[str, dict[str, float]],
    counters: dict[str, float],
    unresolved: set[str] = frozenset(),
    table: tuple[Entry, ...] = TABLE,
) -> dict[str, float | None]:
    """The value of every per-layer metric in ``names`` for one traced rep."""
    out: dict[str, float | None] = {}
    for metric in names:
        derived = split_metric(metric, table)
        if derived is None:
            out[metric] = float(counters.get(metric, 0.0))
        elif derived[0] in unresolved:
            out[metric] = None
        else:
            out[metric] = float(rolled.get(derived[0], {}).get(derived[1], 0.0))
    return out
