"""The model server: micro-batched scoring with zero-downtime hot swap.

Scoring a linear model is a sparse gather ``X @ w`` — cheap per row, so at
production rates the fixed cost of each product dominates.  The server
therefore runs an admission queue in front of a single modelled scorer:

* **micro-batching** — a batch dispatches when ``max_batch`` requests are
  queued or the oldest has waited ``max_wait_s``, and is scored in one
  gather product (:func:`~repro.sparse.batch_matvec`), amortizing the
  fixed cost across rows (the same amortization argument as the paper's
  thread-block waves).  The prefix sum restarts at each request, so a
  response's scores are bitwise its own ``rows.matvec(w)``, whatever it
  was batched with;
* **admission control** — the queue is bounded at ``queue_capacity``; under
  overload the shed policy either rejects the incoming request
  (``"reject-new"``) or drops the oldest queued one (``"drop-oldest"``).
  Shedding is the *only* way a request is ever dropped — weight swaps never
  cost a request;
* **hot swap** — the scorer captures the current
  :class:`~repro.serve.snapshot.WeightSnapshot` reference exactly once per
  batch, so every batch is scored entirely against one version and each
  response records the version (and byte fingerprint) that scored it.

Time is the **modelled clock**: external events (request arrivals, swap
notifications) carry modelled timestamps and must arrive in nondecreasing
order; service time comes from a per-row/per-nnz cost model, optionally
inflated by a seeded :class:`~repro.cluster.faults.FaultInjector` plan
(slow-scorer chaos reuses the straggler machinery, planned per batch).  This
makes millions-of-users arrival rates exactly reproducible — no wall-clock,
no threads, no flakes — while the queueing dynamics (backlog growth, shed
onset, p99 inflation) are real consequences of the arrival process.

Observability: every batch opens a ``serve.batch`` span and books its
modelled service seconds to the ``serve_score`` ledger component (so the
Chrome-trace conservation validator covers serving), and the server feeds
``serve.*`` counters, gauges and histograms — latency, queue depth, shed
count, staleness-of-served-weights — into the tracer's metrics registry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..cluster.faults import FaultInjector
from ..obs import resolve_tracer
from ..sparse import CsrMatrix, batch_matvec
from .snapshot import SnapshotHub, WeightSnapshot

__all__ = [
    "ServeConfig",
    "PredictRequest",
    "PredictResponse",
    "ModelServer",
]

#: shed policies: reject the arriving request vs drop the oldest queued one
SHED_POLICIES = ("reject-new", "drop-oldest")


@dataclass(frozen=True)
class ServeConfig:
    """Admission, batching and service-cost knobs for one server."""

    #: batch dispatches as soon as this many requests are queued
    max_batch: int = 32
    #: ... or once the oldest queued request has waited this long
    max_wait_s: float = 2e-3
    #: bounded admission queue; arrivals past this depth are shed
    queue_capacity: int = 256
    shed_policy: str = "reject-new"
    #: modelled service cost: fixed batch overhead + per row + per nonzero
    batch_overhead_s: float = 5e-5
    per_row_s: float = 2e-6
    per_nnz_s: float = 2e-8

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {SHED_POLICIES}, "
                f"got {self.shed_policy!r}"
            )
        for name in ("batch_overhead_s", "per_row_s", "per_nnz_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def service_seconds(self, n_rows: int, nnz: int) -> float:
        """Modelled fault-free service time of one batch."""
        return (
            self.batch_overhead_s
            + self.per_row_s * n_rows
            + self.per_nnz_s * nnz
        )


@dataclass
class PredictRequest:
    """One prediction request: feature rows arriving at a modelled time."""

    request_id: int
    rows: CsrMatrix
    arrival_s: float
    #: dataset row indices these rows were sampled from (oracle provenance)
    row_ids: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]


@dataclass
class PredictResponse:
    """What the server returns: scores stamped with their weight version.

    Every non-shed response carries the ``weight_version`` (and the
    snapshot's byte ``fingerprint``) it was scored with, plus the staleness
    of that version — epochs the trainer was ahead at completion time.
    Shed responses carry no scores and ``shed=True``.
    """

    request_id: int
    arrival_s: float
    done_s: float
    scores: np.ndarray | None = None
    #: dataset row provenance copied from the request (oracle audits)
    row_ids: np.ndarray | None = None
    weight_version: int | None = None
    weight_fingerprint: int | None = None
    staleness_epochs: int | None = None
    shed: bool = False
    batch_index: int | None = None
    #: time spent queued before the batch dispatched
    queued_s: float = 0.0
    #: the batch's modelled service time (shared by its requests)
    service_s: float = 0.0

    @property
    def latency_s(self) -> float:
        return self.done_s - self.arrival_s


@dataclass
class _InflightBatch:
    """A dispatched batch waiting for its modelled completion instant."""

    index: int
    done_s: float
    snapshot: WeightSnapshot
    requests: list = field(default_factory=list)
    scores: list = field(default_factory=list)
    dispatch_s: float = 0.0
    service_s: float = 0.0


class ModelServer:
    """Deterministic discrete-event model server on the modelled clock.

    Drive it by feeding time-ordered external events — :meth:`submit` for
    arrivals, :meth:`apply_swap` for weight publishes, :meth:`note_epoch`
    for trainer progress — then :meth:`drain` to run the backlog dry.
    Responses accumulate on :attr:`responses` in completion order.

    ``faults`` accepts a seeded
    :class:`~repro.cluster.faults.FaultInjector`; its per-batch plan's
    straggler multiplier models a slow scorer (GC pause, noisy neighbor).
    The server *degrades* under faults — queues grow, requests shed, stale
    weights keep serving — but never deadlocks and never drops a request
    because of a swap.
    """

    def __init__(
        self,
        snapshot: WeightSnapshot | None = None,
        *,
        hub: SnapshotHub | None = None,
        config: ServeConfig | None = None,
        faults: FaultInjector | None = None,
        tracer=None,
    ) -> None:
        self.config = config or ServeConfig()
        self.hub = hub
        self.tracer = resolve_tracer(tracer)
        self.ledger = self.tracer.open_ledger()
        self.faults = faults
        self._snapshot = snapshot if snapshot is not None else (
            hub.latest() if hub is not None else None
        )
        self._clock = 0.0
        self._queue: deque[PredictRequest] = deque()
        self._inflight: _InflightBatch | None = None
        self._batch_index = 0
        self.responses: list[PredictResponse] = []
        #: versions that actually scored at least one batch, in first-use order
        self.versions_served: list[int] = []
        self.swaps_applied = 0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._clock

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def current_version(self) -> int | None:
        return self._snapshot.version if self._snapshot is not None else None

    def _to(self, t: float) -> float:
        if t < self._clock - 1e-12:
            raise ValueError(
                f"events must be fed in time order: {t} < clock {self._clock}"
            )
        return max(t, self._clock)

    # -- external events ---------------------------------------------------
    def submit(self, request: PredictRequest) -> None:
        """Admit (or shed) one arriving request at its modelled arrival time.

        A request whose rows are not as wide as the model is a
        ``ValueError``, raised before the clock, the queue or the ledger
        moves, so it cannot take a batch of good requests down with it.
        """
        if self._snapshot is None:
            raise RuntimeError("no model published: publish a snapshot first")
        width = request.rows.shape[1]
        if width != self._snapshot.n_features:
            raise ValueError(
                f"request {request.request_id} has {width} columns but the "
                f"model has {self._snapshot.n_features} weights"
            )
        t = self._to(request.arrival_s)
        self._advance_to(t)
        self.tracer.count("serve.requests")
        if len(self._queue) >= self.config.queue_capacity:
            if self.config.shed_policy == "reject-new":
                self._shed(request, t)
                return
            # drop-oldest: the head has waited longest and is most likely
            # past its usefulness; shed it and admit the fresh arrival
            self._shed(self._queue.popleft(), t)
        self._queue.append(request)
        self._note_depth()
        # a batch that just filled dispatches at this very instant
        self._advance_to(self._clock)

    def apply_swap(self, snapshot: WeightSnapshot, at: float | None = None) -> None:
        """Install a new snapshot (the atomic reference swap, server side).

        A batch already dispatched keeps its captured snapshot; the next
        batch picks up the new one.  Never blocks, never sheds.  A snapshot
        that does not increase the version or changes the number of weights
        is a ``ValueError``.
        """
        t = self._to(at if at is not None else self._clock)
        self._advance_to(t)
        current = self._snapshot
        if current is not None and snapshot.version <= current.version:
            raise ValueError(
                f"swap must increase the version: v{snapshot.version} after "
                f"v{current.version}"
            )
        if current is not None and snapshot.n_features != current.n_features:
            raise ValueError(
                f"swap changes the model dimension: v{snapshot.version} has "
                f"{snapshot.n_features} weights, v{current.version} has "
                f"{current.n_features}"
            )
        self._snapshot = snapshot
        self.swaps_applied += 1
        self.tracer.count("serve.swaps")
        self.tracer.gauge("serve.weight_version", snapshot.version)

    def note_epoch(self, epoch: int, at: float | None = None) -> None:
        """Record trainer progress (drives the staleness metric)."""
        t = self._to(at if at is not None else self._clock)
        self._advance_to(t)
        if self.hub is not None:
            self.hub.note_epoch(epoch)

    def advance_to(self, t: float) -> None:
        """Run the server forward to modelled time ``t``."""
        self._advance_to(self._to(t))

    def drain(self) -> list[PredictResponse]:
        """Process every queued and inflight request; returns all responses."""
        while True:
            due = self._next_event()
            if due is None:
                return self.responses
            self._advance_to(due)

    # -- internal event loop -----------------------------------------------
    def _next_event(self) -> float | None:
        if self._inflight is not None:
            return self._inflight.done_s
        if self._queue:
            if len(self._queue) >= self.config.max_batch:
                return self._clock
            return self._queue[0].arrival_s + self.config.max_wait_s
        return None

    def _advance_to(self, t: float) -> None:
        while True:
            due = self._next_event()
            if due is None or due > t:
                break
            self._clock = max(self._clock, due)
            if self._inflight is not None:
                self._complete(self._inflight)
                self._inflight = None
            else:
                self._dispatch()
        self._clock = max(self._clock, t)

    def _dispatch(self) -> None:
        cfg = self.config
        batch: list[PredictRequest] = []
        while self._queue and len(batch) < cfg.max_batch:
            batch.append(self._queue.popleft())
        self._note_depth()
        index = self._batch_index
        self._batch_index += 1
        # THE atomicity point: one snapshot reference per batch.  Every row
        # in this batch is scored against these (immutable) bytes, no matter
        # what swaps land while the batch is in flight.
        snapshot = self._snapshot
        n_rows = sum(r.n_rows for r in batch)
        nnz = sum(r.rows.nnz for r in batch)
        service_s = cfg.service_seconds(n_rows, nnz)
        if self.faults is not None:
            wf = self.faults.plan_epoch(index, 1)[0]
            if wf.straggler_multiplier > 1.0:
                service_s *= wf.straggler_multiplier
                self.tracer.count("serve.slow_batches")
        with self.tracer.span(
            "serve.batch", category="serve", batch=index,
            requests=len(batch), rows=n_rows, version=snapshot.version,
        ):
            self.ledger.add("serve_score", service_s)
            scores = batch_matvec([r.rows for r in batch], snapshot.weights)
        if snapshot.version not in self.versions_served:
            self.versions_served.append(snapshot.version)
        self.tracer.count("serve.batches")
        self.tracer.count("serve.rows_scored", n_rows)
        self._inflight = _InflightBatch(
            index=index,
            done_s=self._clock + service_s,
            snapshot=snapshot,
            requests=batch,
            scores=scores,
            dispatch_s=self._clock,
            service_s=service_s,
        )

    def _complete(self, batch: _InflightBatch) -> None:
        staleness = (
            self.hub.staleness_of(batch.snapshot) if self.hub is not None else 0
        )
        self.tracer.observe("serve.staleness_epochs", staleness)
        self.tracer.gauge("serve.staleness_epochs", staleness)
        for req, scores in zip(batch.requests, batch.scores):
            resp = PredictResponse(
                request_id=req.request_id,
                arrival_s=req.arrival_s,
                done_s=batch.done_s,
                scores=scores,
                row_ids=req.row_ids,
                weight_version=batch.snapshot.version,
                weight_fingerprint=batch.snapshot.fingerprint,
                staleness_epochs=staleness,
                batch_index=batch.index,
                queued_s=batch.dispatch_s - req.arrival_s,
                service_s=batch.service_s,
            )
            self.responses.append(resp)
            self.tracer.count("serve.responses")
            self.tracer.observe("serve.latency_s", resp.latency_s)
            self.tracer.observe("serve.wait_s", resp.queued_s)

    def _shed(self, request: PredictRequest, t: float) -> None:
        self.tracer.count("serve.shed")
        self.responses.append(
            PredictResponse(
                request_id=request.request_id,
                arrival_s=request.arrival_s,
                done_s=t,
                row_ids=request.row_ids,
                shed=True,
            )
        )

    def _note_depth(self) -> None:
        depth = len(self._queue)
        self.tracer.gauge("serve.queue_depth", depth)
        self.tracer.observe("serve.queue_depth", depth)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        v = self.current_version
        return (
            f"ModelServer(v{v}, t={self._clock:.6g}s, "
            f"queue={len(self._queue)}, {len(self.responses)} responses)"
        )
