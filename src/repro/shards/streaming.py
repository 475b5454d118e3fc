"""Cache-aware streaming: shards -> worker matrices + modelled transfer cost.

:class:`ShardingConfig` is the user-facing knob bundle an engine accepts via
its ``shards=`` parameter; :class:`ShardStreamer` is the per-worker runtime
the engine builds from it.  The streamer does three jobs:

1. **bind-time assembly** — materialize the worker's contiguous shard group
   into one matrix slice, bit-identical to ``matrix.take_major(coords)`` on
   the in-memory path (``shard.load`` spans, no ledger cost: binding is
   outside the modelled training clock, exactly like the in-memory bind);
2. **per-epoch streaming** — touch every shard of the group through the
   :class:`~repro.shards.cache.ShardCache`; each disk read is billed as a
   host→device transfer over the configured PCIe/link model into the
   ledger's ``shard_stream`` phase, and retried read failures into
   ``shard_retry``;
3. **overlap** — with ``prefetch=True``, :meth:`ShardStreamer.begin_epoch`
   (called by the round loop just before the worker's local round) starts
   the epoch's whole pass on the streamer's own thread, so the reads run
   while the solver computes, and :meth:`ShardStreamer.stream_epoch` joins
   it after compute.  The model bills only the streaming time *exceeding*
   compute (double buffering).  Without prefetch the pass runs
   synchronously after compute and the model serializes it.  Either way
   the pass fetches the same shards in the same order, so cache counters,
   ledger phases and fault draws are identical; an error in the
   background pass is re-raised by ``stream_epoch`` on the training
   thread, exactly as the synchronous pass would raise it.

Streaming never touches the solver's random streams, which is what makes
out-of-core training bit-identical to in-memory: the cache only changes
*when time is billed*, not *what is computed*.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..cluster.faults import DEFAULT_RETRY, RetryPolicy
from ..obs import NULL_SPAN, NULL_TRACER
from ..perf.link import PCIE3_X16_PINNED, Link
from .cache import ShardCache
from .store import ShardStore

__all__ = ["ShardingConfig", "ShardStreamer"]


@dataclass
class ShardingConfig:
    """Out-of-core configuration an engine accepts via ``shards=``.

    Parameters
    ----------
    store:
        The packed shard set (its axis must match the formulation:
        ``rows`` for dual / by-example, ``cols`` for primal / by-feature).
    cache_budget_bytes:
        Byte ceiling on billed resident shards per worker.  ``None`` defers
        to the worker's device memory when one is attached (GPU solvers) and
        is otherwise unbounded.
    link:
        The host→device link each shard read is billed over.
    prefetch:
        Run each epoch's shard pass on the streamer's thread during the
        worker's compute (overlaps streaming with compute).
    simulated_total_nbytes:
        Paper-scale footprint of the *whole* shard set; shards are billed at
        ``simulated_total_nbytes / store.total_nbytes`` times their actual
        size (the Fig. 10 device-pricing convention).
    retry:
        Policy pricing transient shard-read failures (and deciding when they
        escalate to :class:`~repro.shards.store.ShardReadError`).
    """

    store: ShardStore
    cache_budget_bytes: int | None = None
    link: Link = PCIE3_X16_PINNED
    prefetch: bool = False
    simulated_total_nbytes: int | None = None
    retry: RetryPolicy = field(default_factory=lambda: DEFAULT_RETRY)

    @property
    def byte_scale(self) -> float:
        if self.simulated_total_nbytes is None:
            return 1.0
        actual = max(1, self.store.total_nbytes)
        return self.simulated_total_nbytes / actual


class _CountersOnly:
    """The tracer view the streamer's thread works through: no spans.

    The span stack is single-threaded; the counters and gauges a pass
    records are keys nothing else touches while it runs.
    """

    def __init__(self, tracer) -> None:
        self.count = tracer.count
        self.gauge = tracer.gauge

    @staticmethod
    def span(name: str, category: str = "", **attrs):
        return NULL_SPAN


class ShardStreamer:
    """Per-worker streaming runtime over one contiguous shard group."""

    def __init__(
        self,
        config: ShardingConfig,
        shard_ids,
        *,
        tracer=None,
        worker: int = 0,
    ) -> None:
        self.config = config
        self.shard_ids = [int(s) for s in shard_ids]
        if not self.shard_ids:
            raise ValueError("a streamer needs at least one shard")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.worker = int(worker)
        self.cache = ShardCache(
            config.store,
            budget_bytes=config.cache_budget_bytes,
            byte_scale=config.byte_scale,
            # with prefetch every pass runs on the streamer's thread
            tracer=_CountersOnly(self.tracer) if config.prefetch else self.tracer,
        )
        self._pass: threading.Thread | None = None
        #: the pending pass's disk reads, or the exception it raised
        self._outcome: list = []

    # -- setup -------------------------------------------------------------
    def coords(self) -> np.ndarray:
        return self.config.store.coords_of(self.shard_ids)

    def group_nbytes(self) -> int:
        """Billed bytes of the whole group (the worker's working set)."""
        return sum(self.cache.billed_bytes(s) for s in self.shard_ids)

    def assemble(self):
        """Materialize the group for solver binding (spans, no ledger cost)."""
        store = self.config.store

        def traced_read(shard_id: int):
            with self.tracer.span(
                "shard.load",
                category="shards",
                shard=shard_id,
                worker=self.worker,
                nbytes=self.cache.billed_bytes(shard_id),
                phase="bind",
            ):
                return store.read(shard_id)

        matrix, failures = store.assemble(self.shard_ids, reader=traced_read)
        if failures:
            self.tracer.count("shards.read_retries", failures)
        return matrix

    def attach_device(self, device_memory) -> None:
        """Back the cache with a worker's simulated GPU memory."""
        self.cache.attach_device(device_memory)

    # -- per-epoch streaming -------------------------------------------------
    def _fetch_group(self) -> list[tuple[int, int]]:
        """Fetch the group once; ``(shard id, read failures)`` per disk read.

        Keeps no reference to the shards, so an evicted shard's buffer is
        freed as the pass moves on.
        """
        loads = []
        for shard_id in self.shard_ids:
            lookup = self.cache.fetch(shard_id)
            if lookup.loaded:
                loads.append((shard_id, lookup.read_failures))
        return loads

    def begin_epoch(self) -> None:
        """Start this epoch's shard pass on the streamer's thread.

        Only with prefetch, and only if no pass is pending; otherwise a
        no-op.  The pass is joined by :meth:`stream_epoch` (or
        :meth:`close`).
        """
        if not self.config.prefetch or self._pass is not None:
            return
        outcome = self._outcome = []

        def run() -> None:
            try:
                outcome.append(self._fetch_group())
            except BaseException as exc:  # re-raised by stream_epoch
                outcome.append(exc)

        self._pass = threading.Thread(
            target=run, name=f"shard-stream-{self.worker}", daemon=True
        )
        self._pass.start()

    def _join(self) -> list:
        """Wait for the pending pass; clear it; return its outcome."""
        thread, self._pass = self._pass, None
        thread.join()
        return self._outcome.pop()

    def stream_epoch(self, ledger, *, compute_s: float = 0.0) -> float:
        """Stream the group once; book modelled cost; return added wall time.

        With prefetch this joins the pass :meth:`begin_epoch` started
        (starting one first if none is pending) and re-raises its error;
        without, it runs the pass here.  Every disk read of the pass is
        billed as one transfer of the shard's scaled bytes over
        ``config.link`` into the ``shard_stream`` ledger phase; retried
        read failures are billed into ``shard_retry``.  The returned seconds
        are what the pass adds to the worker's epoch beyond ``compute_s``:
        with prefetch the transfers overlap compute and only the excess
        counts; without it they serialize.
        """
        cfg = self.config
        if cfg.prefetch:
            self.begin_epoch()
            loads = self._join()
            if isinstance(loads, BaseException):
                raise loads
        else:
            loads = self._fetch_group()
        stream_s = 0.0
        retry_s = 0.0
        for shard_id, failures in loads:
            transfer = cfg.link.transfer_seconds(self.cache.billed_bytes(shard_id))
            stream_s += transfer
            if failures:
                retry_s += cfg.retry.penalty_seconds(failures, transfer)
                self.tracer.count("shards.read_retries", failures)
        if stream_s > 0.0:
            ledger.add("shard_stream", stream_s)
        if retry_s > 0.0:
            ledger.add("shard_retry", retry_s)
        exposed = max(0.0, stream_s - compute_s) if cfg.prefetch else stream_s
        return exposed + retry_s

    def close(self) -> None:
        """Join a pending pass (its outcome is dropped: close runs on error
        paths, where the error that is already propagating wins)."""
        if self._pass is not None:
            self._join()

    def __enter__(self) -> "ShardStreamer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
