"""Byte-budgeted LRU cache over a :class:`~repro.shards.store.ShardStore`.

The cache is what turns the shard store into an *out-of-core* data path: a
worker touches its shards every epoch, but only as many as fit the budget
stay resident — the rest are re-read (and re-billed as host→device
transfers) on the next pass, exactly the regime the paper's 40 GB criteo
sample forces on a 12 GB Titan X.

Two budget modes:

* **byte budget** — a plain ``budget_bytes`` ceiling on billed resident
  bytes (host-RAM streaming, or a fixed slice of device memory);
* **device-backed** — ``attach_device(DeviceMemory)`` registers every
  resident shard as a named allocation on the simulated GPU, so residency
  competes with the solver's vectors and the budget check is the device's
  ``bytes_free``.  Eviction frees the allocation; an individual shard larger
  than the whole device still raises ``GpuOutOfMemoryError``, preserving
  the paper's memory gate.

Billing uses ``byte_scale`` to price the scaled-down reproduction data at
paper-scale footprints (e.g. a few-MB synthetic criteo billed as 40 GB).

Threading: one thread fetches at a time.  The
:class:`~repro.shards.streaming.ShardStreamer` that owns a cache runs each
epoch's pass either on the training thread or, with prefetch, on its own
thread while the training thread computes — and joins that thread before
anything else touches the cache.  So the cache holds no lock, and its
accounting is deterministic: every :meth:`fetch` is exactly one
``shards.cache.hit`` (served warm) or one ``shards.cache.miss`` (one disk
read), wherever it runs.  The tracer it is given decides whether fetches
open ``shard.load`` / ``shard.evict`` spans; the streamer hands its thread
a counters-only view, because the span stack is single-threaded.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..obs import NULL_TRACER
from .store import Shard, ShardStore

__all__ = ["ShardCache", "CacheLookup"]


@dataclass
class CacheLookup:
    """Outcome of one :meth:`ShardCache.fetch`."""

    shard: Shard
    #: served from residency (False = this call went to disk)
    hit: bool

    @property
    def loaded(self) -> bool:
        """This fetch performed a disk read the caller should bill."""
        return not self.hit

    @property
    def read_failures(self) -> int:
        """Transient read failures survived by this fetch's disk read."""
        return 0 if self.hit else self.shard.read_failures


@dataclass
class _Entry:
    shard: Shard
    billed: int


class ShardCache:
    """LRU residency of materialized shards under a byte budget."""

    def __init__(
        self,
        store: ShardStore,
        *,
        budget_bytes: int | None = None,
        byte_scale: float = 1.0,
        tracer=None,
    ) -> None:
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive")
        if byte_scale <= 0:
            raise ValueError("byte_scale must be positive")
        self.store = store
        self.budget_bytes = budget_bytes
        self.byte_scale = float(byte_scale)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._device = None  # DeviceMemory once attached
        self._entries: "OrderedDict[int, _Entry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- budget ------------------------------------------------------------
    def billed_bytes(self, shard_id: int) -> int:
        """Bytes a shard is billed at (actual payload x ``byte_scale``)."""
        return int(round(self.store.handles[shard_id].nbytes * self.byte_scale))

    @property
    def used_bytes(self) -> int:
        return sum(e.billed for e in self._entries.values())

    def attach_device(self, device_memory) -> None:
        """Back residency with a simulated GPU's ``DeviceMemory``.

        Must be attached while empty (attach right after the solver binds,
        before the first epoch streams), so every resident shard has a
        matching device allocation.
        """
        if self._entries:
            raise RuntimeError("attach_device requires an empty cache")
        self._device = device_memory

    def _fits(self, billed: int) -> bool:
        if self._device is not None:
            return billed <= self._device.bytes_free
        if self.budget_bytes is not None:
            return self.used_bytes + billed <= self.budget_bytes
        return True

    # -- core --------------------------------------------------------------
    def fetch(self, shard_id: int) -> CacheLookup:
        """Return the shard, loading and caching it if necessary."""
        shard_id = int(shard_id)
        entry = self._entries.get(shard_id)
        if entry is not None:
            self._entries.move_to_end(shard_id)
            self.hits += 1
            self.tracer.count("shards.cache.hit")
            return CacheLookup(entry.shard, hit=True)
        return CacheLookup(self._load(shard_id), hit=False)

    def _load(self, shard_id: int) -> Shard:
        billed = self.billed_bytes(shard_id)
        with self.tracer.span(
            "shard.load", category="shards", shard=shard_id, nbytes=billed
        ):
            shard = self.store.read(shard_id)
        self.misses += 1
        self.tracer.count("shards.cache.miss")
        self.tracer.count("shards.cache.bytes_read", billed)
        self._evict_until_fits(billed)
        if self._fits(billed):
            if self._device is not None:
                self._device.alloc(self._buffer_name(shard_id), billed)
            self._entries[shard_id] = _Entry(shard=shard, billed=billed)
        # else: shard larger than the whole budget — serve it transient
        self.tracer.gauge("shards.cache.bytes", self.used_bytes)
        return shard

    def _buffer_name(self, shard_id: int) -> str:
        return f"shard:{self.store.manifest.name}:{shard_id}"

    def _evict_until_fits(self, billed: int) -> None:
        """Drop LRU entries until ``billed`` fits the budget."""
        while self._entries and not self._fits(billed):
            victim_id, victim = self._entries.popitem(last=False)
            if self._device is not None:
                self._device.free(self._buffer_name(victim_id))
            self.evictions += 1
            self.tracer.count("shards.cache.evict")
            with self.tracer.span(
                "shard.evict",
                category="shards",
                shard=victim_id,
                nbytes=victim.billed,
            ):
                pass

    # -- maintenance -------------------------------------------------------
    def contains(self, shard_id: int) -> bool:
        return int(shard_id) in self._entries

    def clear(self) -> None:
        if self._device is not None:
            for shard_id in self._entries:
                self._device.free(self._buffer_name(shard_id))
        self._entries.clear()
        self.tracer.gauge("shards.cache.bytes", 0)

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "resident": len(self._entries),
            "used_bytes": self.used_bytes,
        }
