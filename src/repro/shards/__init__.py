"""repro.shards — out-of-core sharded dataset store.

Packs a :class:`~repro.data.Dataset` into contiguous raw on-disk shards
(:mod:`.format`), serves them on demand with size and CRC checks and
injectable read faults (:mod:`.store`), keeps a byte-budgeted LRU residency
optionally backed by simulated GPU memory (:mod:`.cache`), and streams each
worker's shard group once per epoch — on the streamer's own thread during
the worker's compute when prefetch is on — billing every disk read as a
modelled host→device transfer so streaming cost lands in the
:class:`~repro.perf.ledger.TimeLedger` (:mod:`.streaming`).

The design contract: out-of-core training is **bit-identical** to in-memory
training.  Shards are contiguous major-axis slices, worker groups are
contiguous shard runs, and streaming only adds modelled time — it never
touches solver random streams or data values.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".cache": ("CacheLookup", "ShardCache"),
    ".format": (
        "MANIFEST_NAME",
        "SHARD_SCHEMA",
        "ShardManifest",
        "ShardMeta",
        "load_manifest",
        "pack_dataset",
    ),
    ".store": ("Shard", "ShardHandle", "ShardReadError", "ShardStore"),
    ".streaming": ("ShardingConfig", "ShardStreamer"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "SHARD_SCHEMA",
    "MANIFEST_NAME",
    "ShardMeta",
    "ShardManifest",
    "pack_dataset",
    "load_manifest",
    "ShardHandle",
    "Shard",
    "ShardStore",
    "ShardReadError",
    "ShardCache",
    "CacheLookup",
    "ShardingConfig",
    "ShardStreamer",
]
