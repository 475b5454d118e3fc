"""Shard store: lazy reads, integrity checks, assembly, fault injection.

A :class:`ShardStore` opens a packed shard set (see :mod:`.format`) and
serves individual shards on demand.  Nothing is materialized up front: a
:class:`ShardHandle` is a cheap descriptor (slice, byte size, file path),
and the arrays only leave disk when :meth:`ShardStore.read` is called.  A
read opens the file unbuffered, requires its size to equal the manifest's
exactly, fills one fresh buffer with ``readinto``, runs one ``zlib.crc32``
over it (both release the GIL, so a read on the streamer's thread overlaps
compute) and returns the three arrays as aligned views of that buffer.

Reads are the unit of fault injection: when the store carries a
:class:`~repro.cluster.faults.FaultInjector` with a nonzero
``shard_read_failure_rate``, each read deterministically draws a number of
transient I/O failures from ``(seed, shard_id, read_index)``.  Failures
within the :class:`~repro.cluster.faults.RetryPolicy` budget are retried
(the caller bills their modelled cost); past the budget the read raises
:class:`ShardReadError`.  Keying the draw on the *per-shard* read count —
not a global counter — keeps fault schedules identical however reads
interleave across workers.
"""

from __future__ import annotations

import os
import threading
import zlib
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..cluster.faults import (
    DEFAULT_RETRY,
    FaultInjector,
    FaultSpec,
    RetryPolicy,
    make_fault_injector,
)
from ..data.dataset import Dataset
from ..sparse import CscMatrix, CsrMatrix
from .format import (
    ARRAYS,
    LABELS_NAME,
    MATRIX_CLS,
    ShardManifest,
    ShardMeta,
    load_manifest,
)

__all__ = ["ShardHandle", "Shard", "ShardStore", "ShardReadError"]


class ShardReadError(RuntimeError):
    """A shard read failed: retries exhausted, wrong file size, or bad CRC."""


@dataclass(frozen=True)
class ShardHandle:
    """Descriptor of one shard: everything but the data itself."""

    meta: ShardMeta
    path: Path
    axis: str
    shape: tuple[int, int]  # shape of the shard's matrix slice

    @property
    def shard_id(self) -> int:
        return self.meta.shard_id

    @property
    def nbytes(self) -> int:
        """Payload bytes — the unit the cache budget and PCIe model price."""
        return self.meta.nbytes

    def coords(self) -> np.ndarray:
        """The global major-axis indices this shard covers."""
        return np.arange(self.meta.start, self.meta.stop, dtype=np.int64)


@dataclass
class Shard:
    """One materialized shard: its handle, matrix slice, and read cost."""

    handle: ShardHandle
    matrix: CscMatrix | CsrMatrix
    #: transient failures the read survived (0 on a clean read); the caller
    #: bills their retry cost through the RetryPolicy
    read_failures: int = 0

    @property
    def shard_id(self) -> int:
        return self.handle.shard_id


class ShardStore:
    """Read access to one packed shard set.

    Parameters
    ----------
    root:
        Directory containing ``shardset.manifest.json`` and the shard files.
    faults:
        Optional fault injection (injector, spec, or scenario name); only
        the ``shard_read_failure_rate`` applies to reads.
    retry:
        Policy deciding when repeated read failures become fatal.
    verify_checksums:
        When True (the default) every read re-computes the CRC-32 of the
        file and raises :class:`ShardReadError` on mismatch.  False skips
        only the CRC: a file whose size differs from the manifest's is
        rejected either way.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        faults: FaultInjector | FaultSpec | str | None = None,
        retry: RetryPolicy = DEFAULT_RETRY,
        verify_checksums: bool = True,
    ) -> None:
        self.root = Path(root)
        self.manifest: ShardManifest = load_manifest(self.root)
        self.retry = retry
        self.faults = make_fault_injector(faults)
        self.verify_checksums = bool(verify_checksums)
        self.handles: list[ShardHandle] = [
            ShardHandle(
                meta=meta,
                path=self.root / meta.path,
                axis=self.manifest.axis,
                shape=self._slice_shape(meta),
            )
            for meta in self.manifest.shards
        ]
        # dtype of each array, in file order
        self._dtypes = [np.dtype(self.manifest.dtypes[n]) for n in ARRAYS]
        self._y: np.ndarray | None = None
        # per-shard read counters drive the deterministic fault schedule;
        # the lock keeps them exact if several threads read one store
        self._read_counts: dict[int, int] = defaultdict(int)
        self._lock = threading.Lock()

    # -- geometry ----------------------------------------------------------
    @property
    def axis(self) -> str:
        return self.manifest.axis

    @property
    def shape(self) -> tuple[int, int]:
        return self.manifest.shape

    @property
    def n_shards(self) -> int:
        return self.manifest.n_shards

    @property
    def n_major(self) -> int:
        return self.manifest.n_major

    @property
    def total_nbytes(self) -> int:
        return self.manifest.total_nbytes

    def _slice_shape(self, meta: ShardMeta) -> tuple[int, int]:
        n_rows, n_cols = self.manifest.shape
        if self.manifest.axis == "rows":
            return (meta.stop - meta.start, n_cols)
        return (n_rows, meta.stop - meta.start)

    @property
    def y(self) -> np.ndarray:
        """The full label vector (loaded once, cached)."""
        if self._y is None:
            self._y = np.load(self.root / LABELS_NAME)
        return self._y

    # -- reads -------------------------------------------------------------
    def read(self, shard_id: int) -> Shard:
        """Materialize one shard from disk (the cache-miss path)."""
        handle = self.handles[shard_id]
        failures = 0
        if self.faults is not None and not self.faults.is_null:
            with self._lock:
                read_index = self._read_counts[shard_id]
                self._read_counts[shard_id] += 1
            failures = self.faults.plan_shard_read(shard_id, read_index)
            if self.retry.exhausted(failures):
                raise ShardReadError(
                    f"shard {shard_id} of {self.manifest.name!r}: read failed "
                    f"{failures} times (retry budget {self.retry.max_retries})"
                )
        buf = self._read_file(handle)
        if self.verify_checksums:
            crc = zlib.crc32(buf)
            if crc != handle.meta.crc32:
                raise ShardReadError(
                    f"shard {shard_id} of {self.manifest.name!r}: checksum "
                    f"mismatch (manifest {handle.meta.crc32:#010x}, "
                    f"file {crc:#010x})"
                )
        meta = handle.meta
        arrays, offset = [], 0
        for dtype, count in zip(self._dtypes, (meta.n_major + 1, meta.nnz, meta.nnz)):
            end = offset + count * dtype.itemsize
            arrays.append(buf[offset:end].view(dtype))
            offset = end
        cls = MATRIX_CLS[self.manifest.axis]
        matrix = cls(handle.shape, *arrays, check=False)
        return Shard(handle=handle, matrix=matrix, read_failures=failures)

    def _read_file(self, handle: ShardHandle) -> np.ndarray:
        """The shard file's bytes in a fresh buffer; its size must match."""
        expected = handle.nbytes
        with open(handle.path, "rb", buffering=0) as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != expected:
                raise ShardReadError(
                    f"shard {handle.shard_id} of {self.manifest.name!r}: "
                    f"{handle.path.name} holds {size} bytes, the manifest "
                    f"expects {expected}"
                )
            buf = np.empty(expected, dtype=np.uint8)
            view, filled = memoryview(buf), 0
            while filled < expected:  # one call unless the OS splits it
                n = fh.readinto(view[filled:])
                if not n:
                    raise ShardReadError(
                        f"shard {handle.shard_id} of {self.manifest.name!r}: "
                        f"{handle.path.name} ended after {filled} of "
                        f"{expected} bytes"
                    )
                filled += n
        return buf

    # -- grouping / assembly ------------------------------------------------
    def coords_of(self, shard_ids) -> np.ndarray:
        """Global major-axis indices covered by ``shard_ids``, in order."""
        return np.concatenate(
            [self.handles[int(s)].coords() for s in shard_ids]
        )

    def partition(self, n_parts: int) -> list[list[int]]:
        """Cut the shard list into ``n_parts`` contiguous, byte-balanced runs.

        Each part is a run of consecutive shard ids, so a worker's local
        matrix is a contiguous major-axis slice — the property that keeps
        shard-fed training bit-identical to ``take_major`` on the in-memory
        matrix.
        """
        if not 1 <= n_parts <= self.n_shards:
            raise ValueError(
                f"cannot split {self.n_shards} shards into {n_parts} parts"
            )
        sizes = np.asarray([h.nbytes for h in self.handles], dtype=np.float64)
        cum = np.cumsum(sizes)
        targets = cum[-1] * np.arange(1, n_parts) / n_parts
        cuts = np.searchsorted(cum, targets, side="left") + 1
        cuts = np.clip(cuts, 1, self.n_shards - 1)
        for i in range(1, cuts.shape[0]):
            if cuts[i] <= cuts[i - 1]:
                cuts[i] = cuts[i - 1] + 1
        for i in range(cuts.shape[0] - 2, -1, -1):
            limit = self.n_shards - (cuts.shape[0] - i)
            if cuts[i] > limit:
                cuts[i] = limit
        bounds = [0, *(int(c) for c in cuts), self.n_shards]
        return [
            list(range(bounds[k], bounds[k + 1])) for k in range(n_parts)
        ]

    def assemble(
        self, shard_ids, *, reader=None
    ) -> tuple[CscMatrix | CsrMatrix, int]:
        """Concatenate a *contiguous* run of shards into one matrix slice.

        Returns the matrix plus the total transient read failures survived.
        ``reader`` overrides the per-shard fetch (e.g. to route through a
        cache); it must return a :class:`Shard`.
        """
        ids = [int(s) for s in shard_ids]
        if not ids:
            raise ValueError("cannot assemble an empty shard group")
        for a, b in zip(ids[:-1], ids[1:]):
            if b != a + 1:
                raise ValueError(
                    f"shard group must be contiguous, got {ids}"
                )
        reader = reader or self.read
        shards = [reader(s) for s in ids]
        failures = sum(s.read_failures for s in shards)
        if len(shards) == 1:
            return shards[0].matrix, failures
        mats = [s.matrix for s in shards]
        offsets = np.cumsum([0] + [m.indptr[-1] for m in mats[:-1]])
        indptr = np.concatenate(
            [mats[0].indptr[:1]]
            + [m.indptr[1:] + off for m, off in zip(mats, offsets)]
        )
        indices = np.concatenate([m.indices for m in mats])
        data = np.concatenate([m.data for m in mats])
        n_major = sum(m.n_major for m in mats)
        n_rows, n_cols = self.manifest.shape
        shape = (
            (n_major, n_cols) if self.axis == "rows" else (n_rows, n_major)
        )
        cls = MATRIX_CLS[self.axis]
        return cls(shape, indptr, indices, data, check=False), failures

    def load_dataset(self) -> Dataset:
        """Reassemble the full dataset (matrix + labels + provenance)."""
        matrix, _ = self.assemble(range(self.n_shards))
        return Dataset(
            matrix=matrix,
            y=self.y,
            name=self.manifest.name,
            meta=dict(self.manifest.meta),
        )
