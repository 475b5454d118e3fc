"""A process-local metrics registry: counters, gauges, histograms.

Metric names are dotted lower-case paths grouped by subsystem.  The canonical
names emitted by the instrumented engines:

========================== ============================================
name                       meaning
========================== ============================================
``train.epochs``           epochs (aggregation rounds) executed
``scd.updates``            coordinate updates applied
``scd.lost_updates``       shared-vector updates lost to wild writes
``syscd.buckets``          coordinate buckets processed
``syscd.merges``           replica merge steps applied
``syscd.merge_divergence`` (histogram) max replica drift at each epoch's
                           merges (inf-norm of a thread's delta)
``syscd.bucket_imbalance`` (gauge) max/mean per-thread nonzeros per epoch
``syscd.threads``          (gauge) worker threads running the epoch
``gpu.waves``              thread-block waves scheduled
``gpu.blocks``             thread blocks (coordinates) run in those waves
``gpu.nnz_processed``      nonzeros streamed through block kernels
``gpu.atomic_conflicts``   same-wave atomic adds hitting one element
``gpu.lanes_active``       block lanes holding work: the sum over blocks
                           of ``min(block nonzeros, threads per block)``
``dist.epochs``            distributed aggregation rounds
``dist.gamma``             (histogram) aggregation scaling per round
``dist.survivors``         (histogram) update vectors arriving per round
``dist.straggler_wait_s``  barrier seconds waiting on stragglers
``comm.reduce_calls``      Reduce collectives priced
``comm.bcast_calls``       Broadcast collectives priced
``comm.bytes_reduced``     payload bytes through Reduce
``comm.bytes_broadcast``   payload bytes through Broadcast
``comm.retry_failures``    transient transfer failures retried
``comm.retry_seconds``     modelled seconds lost to retries
``faults.*``               fault-report totals (dropouts, stragglers,
                           dropped/stale updates, retry exhaustion)
``shards.cache.hit``       shard served warm from the LRU cache
``shards.cache.miss``      shard read from disk (training or streamer thread)
``shards.cache.evict``     shard evicted to stay under the byte budget
``shards.cache.bytes``     (gauge) bytes currently resident in the cache
``shards.cache.bytes_read`` bytes loaded from disk into the cache
``shards.read_retries``    shard reads retried after injected I/O faults
``serve.requests``         prediction requests arriving at a server
``serve.responses``        scored responses returned
``serve.batches``          micro-batches dispatched to the scorer
``serve.rows_scored``      feature rows scored across all batches
``serve.shed``             requests dropped by admission control
``serve.swaps``            weight hot-swaps applied by a server
``serve.swap_dropped``     swap notifications lost before the server
``serve.slow_batches``     batches inflated by an injected slow scorer
``serve.queue_depth``      (gauge + histogram) admission-queue depth
``serve.weight_version``   (gauge) version currently being served
``serve.latency_s``        (histogram) arrival-to-completion latency
``serve.wait_s``           (histogram) time queued before dispatch
``serve.staleness_epochs`` (gauge + histogram) epochs the trainer was
                           ahead of the weights that scored a batch
========================== ============================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["Histogram", "MetricsRegistry", "DEFAULT_BUCKETS"]

#: default histogram bucket upper bounds — log-spaced to cover both modelled
#: seconds (1e-6 .. 1e3) and small integer counts (survivors, gammas)
DEFAULT_BUCKETS = tuple(10.0**e for e in range(-6, 4))


@dataclass
class Histogram:
    """Summary statistics + fixed log-spaced buckets for one series."""

    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    bucket_counts: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.bucket_counts:
            # one counter per bound plus the overflow bucket
            self.bucket_counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (p50/p99 for dashboards).

        Returns the upper bound of the bucket containing the ``q``-quantile
        observation, clamped to the observed ``min``/``max`` — deterministic
        given the same observations, which lets tests pin p50/p99 exactly.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            seen += n
            if seen >= rank and n:
                bound = (
                    self.buckets[i] if i < len(self.buckets) else self.max
                )
                return min(max(bound, self.min), self.max)
        return self.max

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "buckets": {
                f"le_{bound:g}": n
                for bound, n in zip(self.buckets, self.bucket_counts)
            }
            | {"inf": self.bucket_counts[-1]},
        }


class MetricsRegistry:
    """Flat, name-addressed counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- writers -----------------------------------------------------------
    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` (>= 0) to the counter ``name``."""
        if value < 0:
            raise ValueError(f"counter {name!r} cannot decrease (got {value})")
        self._counters[name] = self._counters.get(name, 0.0) + float(value)

    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        hist.observe(value)

    # -- readers -----------------------------------------------------------
    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def gauge(self, name: str) -> float | None:
        return self._gauges.get(name)

    def histogram(self, name: str) -> Histogram | None:
        return self._histograms.get(name)

    def names(self) -> list[str]:
        return sorted(
            set(self._counters) | set(self._gauges) | set(self._histograms)
        )

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's totals into this one (gauges: last wins)."""
        for k, v in other._counters.items():
            self.inc(k, v)
        self._gauges.update(other._gauges)
        for k, h in other._histograms.items():
            mine = self._histograms.get(k)
            if mine is None:
                mine = self._histograms[k] = Histogram(buckets=h.buckets)
            mine.count += h.count
            mine.total += h.total
            mine.min = min(mine.min, h.min)
            mine.max = max(mine.max, h.max)
            for i, n in enumerate(h.bucket_counts):
                mine.bucket_counts[i] += n

    def as_dict(self) -> dict:
        """JSON-serializable snapshot (sorted for stable output)."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                k: h.as_dict() for k, h in sorted(self._histograms.items())
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry({len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, {len(self._histograms)} histograms)"
        )
