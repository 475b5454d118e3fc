"""On-disk shard format: packing, manifest schema, integrity checks.

A *shard set* is a directory holding contiguous major-axis slices of one
compressed matrix — rows of the CSR layout (dual coordinates / examples) or
columns of the CSC layout (primal coordinates / features) — one raw
``.bin`` file per shard plus a JSON manifest describing the whole set:

.. code-block:: text

    shardset/
        shardset.manifest.json      # schema repro.shards/v2
        labels.npy                  # the full label vector, stored once
        shard-0000.bin              # indptr ‖ indices ‖ data of slice 0
        shard-0001.bin
        ...

Contiguity is the load-bearing property: re-concatenating a run of shards
reproduces ``matrix.take_major(arange(start, stop))`` *bit-exactly*, which is
what lets out-of-core training promise bit-identical trajectories to the
in-memory path.  Shards are cut to near-equal byte sizes (not equal
coordinate counts) so the streaming cost per shard is balanced.

A shard file is its three arrays back to back with no header: ``indptr``
(``stop - start + 1`` entries), then ``indices`` and ``data`` (``nnz``
entries each), in the dtypes the manifest records with their byte order
(``dtype.str``, e.g. ``<i8`` / ``<f8``).  Every offset is a multiple of its
array's item size, so a reader takes all three as aligned views of one
buffer filled by a single read.  Each shard records a CRC-32 over its file
(equal to the CRC chained over the three arrays), so a corrupted file is
detected at read time rather than silently training on garbage; a file
whose size differs from the manifest's is always rejected.
"""

from __future__ import annotations

import json
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..data.dataset import Dataset
from ..sparse import CscMatrix, CsrMatrix

__all__ = [
    "SHARD_SCHEMA",
    "MANIFEST_NAME",
    "LABELS_NAME",
    "ShardMeta",
    "ShardManifest",
    "pack_dataset",
    "load_manifest",
]

#: manifest schema identifier (bump on incompatible layout changes)
SHARD_SCHEMA = "repro.shards/v2"

#: fixed manifest filename inside a shard-set directory
MANIFEST_NAME = "shardset.manifest.json"

#: fixed filename of the label vector (stored once, not per shard)
LABELS_NAME = "labels.npy"

#: index dtype a shard set stores (matches ``repro.sparse``)
_INDEX_DTYPE = np.int64

#: the arrays of one shard file, in file order
ARRAYS = ("indptr", "indices", "data")


def _crc_arrays(*arrays: np.ndarray) -> int:
    """CRC-32 chained over the raw bytes of ``arrays`` (order-sensitive).

    Equal to the CRC of their concatenation, i.e. of a shard file.
    """
    crc = 0
    for arr in arrays:
        crc = zlib.crc32(np.ascontiguousarray(arr), crc)
    return crc & 0xFFFFFFFF


@dataclass(frozen=True)
class ShardMeta:
    """Manifest entry for one shard: its slice, size, file and checksum."""

    shard_id: int
    start: int  # first major-axis index (inclusive)
    stop: int  # one past the last major-axis index
    nnz: int
    nbytes: int  # indptr + indices + data payload bytes
    path: str  # filename relative to the shard-set root
    crc32: int

    @property
    def n_major(self) -> int:
        return self.stop - self.start

    def to_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "start": self.start,
            "stop": self.stop,
            "nnz": self.nnz,
            "nbytes": self.nbytes,
            "path": self.path,
            "crc32": self.crc32,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ShardMeta":
        return cls(
            shard_id=int(d["shard_id"]),
            start=int(d["start"]),
            stop=int(d["stop"]),
            nnz=int(d["nnz"]),
            nbytes=int(d["nbytes"]),
            path=str(d["path"]),
            crc32=int(d["crc32"]),
        )


@dataclass(frozen=True)
class ShardManifest:
    """The JSON manifest describing one packed shard set."""

    name: str
    axis: str  # "rows" (CSR slices) or "cols" (CSC slices)
    shape: tuple[int, int]
    #: ``dtype.str`` (byte order included) of each array in :data:`ARRAYS`
    dtypes: dict
    total_nbytes: int  # sum of per-shard payload bytes
    shards: tuple[ShardMeta, ...]
    meta: dict

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_major(self) -> int:
        """Major-axis length: rows for ``rows`` shard sets, columns for ``cols``."""
        return self.shape[0] if self.axis == "rows" else self.shape[1]

    @property
    def dtype(self) -> str:
        """Value dtype name of the data arrays (e.g. ``float64``)."""
        return np.dtype(self.dtypes["data"]).name

    def to_dict(self) -> dict:
        return {
            "schema": SHARD_SCHEMA,
            "name": self.name,
            "axis": self.axis,
            "shape": list(self.shape),
            "dtypes": dict(self.dtypes),
            "labels_path": LABELS_NAME,
            "total_nbytes": self.total_nbytes,
            "n_shards": self.n_shards,
            "shards": [s.to_dict() for s in self.shards],
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ShardManifest":
        schema = d.get("schema")
        if schema != SHARD_SCHEMA:
            raise ValueError(
                f"unsupported shard manifest schema {schema!r} "
                f"(expected {SHARD_SCHEMA!r}); re-pack the dataset with "
                "`repro shards pack`"
            )
        return cls(
            name=str(d["name"]),
            axis=str(d["axis"]),
            shape=(int(d["shape"][0]), int(d["shape"][1])),
            dtypes={name: str(d["dtypes"][name]) for name in ARRAYS},
            total_nbytes=int(d["total_nbytes"]),
            shards=tuple(ShardMeta.from_dict(s) for s in d["shards"]),
            meta=dict(d.get("meta", {})),
        )


def _shard_boundaries(matrix, n_shards: int) -> list[tuple[int, int]]:
    """Cut the major axis into ``n_shards`` contiguous, byte-balanced runs.

    Per-coordinate payload cost is one ``indptr`` slot plus the entry bytes
    of its nonzeros; cuts land at the byte quantiles of the cumulative cost,
    then are repaired to keep every shard non-empty.
    """
    n_major = matrix.n_major
    if not 1 <= n_shards <= n_major:
        raise ValueError(
            f"cannot cut {n_major} coordinates into {n_shards} shards"
        )
    itemsize = matrix.data.dtype.itemsize
    per_coord = matrix.major_nnz().astype(np.float64) * (
        _INDEX_DTYPE().itemsize + itemsize
    ) + _INDEX_DTYPE().itemsize
    cum = np.cumsum(per_coord)
    targets = cum[-1] * np.arange(1, n_shards) / n_shards
    cuts = np.searchsorted(cum, targets, side="left") + 1
    # repair: strictly increasing interior cuts within [1, n_major - 1]
    cuts = np.clip(cuts, 1, n_major - 1)
    for i in range(1, cuts.shape[0]):
        if cuts[i] <= cuts[i - 1]:
            cuts[i] = cuts[i - 1] + 1
    for i in range(cuts.shape[0] - 2, -1, -1):
        limit = n_major - (cuts.shape[0] - i)
        if cuts[i] > limit:
            cuts[i] = limit
    bounds = [0, *(int(c) for c in cuts), n_major]
    return [(bounds[k], bounds[k + 1]) for k in range(n_shards)]


def pack_dataset(
    dataset: Dataset,
    out_dir: str | Path,
    *,
    axis: str = "rows",
    n_shards: int | None = None,
    target_shard_bytes: int | None = None,
) -> ShardManifest:
    """Pack ``dataset`` into an on-disk shard set under ``out_dir``.

    Parameters
    ----------
    axis:
        ``"rows"`` slices the CSR layout (by example — the dual / by-example
        partitioning of the paper); ``"cols"`` slices the CSC layout (by
        feature — the primal partitioning).
    n_shards:
        Number of shards; mutually exclusive with ``target_shard_bytes``.
    target_shard_bytes:
        Aim for shards of roughly this payload size (the count is derived).
        Defaults to 8 shards when neither argument is given.
    """
    if axis not in ("rows", "cols"):
        raise ValueError(f"axis must be 'rows' or 'cols', got {axis!r}")
    if n_shards is not None and target_shard_bytes is not None:
        raise ValueError("pass n_shards or target_shard_bytes, not both")
    matrix = dataset.csr if axis == "rows" else dataset.csc
    if target_shard_bytes is not None:
        if target_shard_bytes <= 0:
            raise ValueError("target_shard_bytes must be positive")
        n_shards = max(1, -(-matrix.nbytes // int(target_shard_bytes)))
    n_shards = min(n_shards or 8, matrix.n_major)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / LABELS_NAME, dataset.y)

    metas: list[ShardMeta] = []
    for shard_id, (start, stop) in enumerate(_shard_boundaries(matrix, n_shards)):
        lo, hi = int(matrix.indptr[start]), int(matrix.indptr[stop])
        indptr = (matrix.indptr[start : stop + 1] - matrix.indptr[start]).astype(
            _INDEX_DTYPE
        )
        indices = matrix.indices[lo:hi]
        data = matrix.data[lo:hi]
        fname = f"shard-{shard_id:04d}.bin"
        with open(out / fname, "wb") as fh:
            for arr in (indptr, indices, data):
                fh.write(np.ascontiguousarray(arr))
        metas.append(
            ShardMeta(
                shard_id=shard_id,
                start=start,
                stop=stop,
                nnz=hi - lo,
                nbytes=indptr.nbytes + indices.nbytes + data.nbytes,
                path=fname,
                crc32=_crc_arrays(indptr, indices, data),
            )
        )

    manifest = ShardManifest(
        name=dataset.name,
        axis=axis,
        shape=matrix.shape,
        dtypes={
            "indptr": np.dtype(_INDEX_DTYPE).str,
            "indices": matrix.indices.dtype.str,
            "data": matrix.data.dtype.str,
        },
        total_nbytes=sum(m.nbytes for m in metas),
        shards=tuple(metas),
        meta=dict(dataset.meta),
    )
    (out / MANIFEST_NAME).write_text(
        json.dumps(manifest.to_dict(), indent=1, default=str) + "\n", "utf-8"
    )
    return manifest


def load_manifest(root: str | Path) -> ShardManifest:
    """Read and validate the manifest of a packed shard set."""
    path = Path(root) / MANIFEST_NAME
    if not path.exists():
        raise FileNotFoundError(f"{root}: not a shard set (no {MANIFEST_NAME})")
    manifest = ShardManifest.from_dict(json.loads(path.read_text("utf-8")))
    if manifest.axis not in ("rows", "cols"):
        raise ValueError(f"{path}: invalid axis {manifest.axis!r}")
    starts = [s.start for s in manifest.shards]
    stops = [s.stop for s in manifest.shards]
    if (
        not manifest.shards
        or starts[0] != 0
        or stops[-1] != manifest.n_major
        or any(a != b for a, b in zip(stops[:-1], starts[1:]))
    ):
        raise ValueError(f"{path}: shards do not tile the major axis")
    for name, code in manifest.dtypes.items():
        if not np.dtype(code).isnative:
            raise ValueError(
                f"{path}: shard array {name!r} is stored as {code!r}, which "
                f"is not this {sys.byteorder}-endian host's byte order; "
                "re-pack the dataset on this host with `repro shards pack`"
            )
    index, data = np.dtype(_INDEX_DTYPE), np.dtype(manifest.dtypes["data"])
    if (
        np.dtype(manifest.dtypes["indptr"]) != index
        or np.dtype(manifest.dtypes["indices"]) != index
        or data not in (np.float32, np.float64)
    ):
        # int64 indices keep every array offset a multiple of its item size
        raise ValueError(
            f"{path}: unsupported shard dtypes {manifest.dtypes} "
            f"(indptr and indices {index.str}, data float32 or float64)"
        )
    per_entry = index.itemsize + data.itemsize
    for s in manifest.shards:
        # a reader slices the file by these lengths: they must add up
        expected = (s.n_major + 1) * index.itemsize + s.nnz * per_entry
        if s.nbytes != expected:
            raise ValueError(
                f"{path}: shard {s.shard_id} records {s.nbytes} bytes, but "
                f"{s.n_major + 1} indptr entries and {s.nnz} nonzeros "
                f"take {expected}"
            )
    return manifest


# re-export for matrix reconstruction in store.py
MATRIX_CLS = {"rows": CsrMatrix, "cols": CscMatrix}
