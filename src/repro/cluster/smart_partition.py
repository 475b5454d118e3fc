"""Correlation-aware coordinate partitioning (Section IV's closing remark).

The paper: "The scaling behavior strongly depends on the nature of the
underlying dataset. ... If there exists some additional structure (for
instance, a large number of one-hot encoded categorical variables) then one
can partition the coordinates in an intelligent way to achieve a faster
convergence and thus better scaling [22]."

This module implements that intelligent partitioning: coordinates that
co-occur (features sharing examples, or examples sharing features) are
correlated, and the distributed per-epoch slow-down comes precisely from
correlated coordinates living on *different* workers updating against stale
state.  We find the communities of the coordinate co-occurrence relation
(its connected components, by a numpy union-find) and bin communities onto
workers balancing coordinate counts — so correlated coordinates stay
together.
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "communities_of",
    "pack_communities",
    "correlation_aware_partition",
    "make_correlation_partitioner",
    "load_proportional_partition",
    "make_capacity_partitioner",
    "validate_capacities",
]


def validate_capacities(capacities, n_items: int) -> np.ndarray:
    """Normalize and sanity-check per-rank capacity shares.

    Heterogeneous clusters size each rank's shard by its measured capacity
    (coordinates per second).  Two degenerate inputs would silently produce
    empty shards downstream, so they are rejected here with pointed errors:
    a rank reporting zero (or negative) capacity, and more ranks than rows.
    """
    caps = np.asarray(capacities, dtype=np.float64)
    if caps.ndim != 1 or caps.shape[0] < 1:
        raise ValueError("capacities must be a non-empty 1-D sequence")
    dead = np.flatnonzero(~(caps > 0.0))
    if dead.size:
        raise ValueError(
            f"rank(s) {dead.tolist()} have zero or non-positive capacity: a "
            "rank that can do no work must leave the cluster (membership "
            "leave/eviction), not receive an empty shard"
        )
    if caps.shape[0] > n_items:
        raise ValueError(
            f"cannot cut {n_items} rows into {caps.shape[0]} load-"
            "proportional shards: more ranks than rows always strands at "
            "least one rank with an empty shard — shrink the cluster or "
            "grow the dataset"
        )
    return caps


def load_proportional_partition(
    n_items: int, capacities, rng: np.random.Generator
) -> list[np.ndarray]:
    """Random partition sized by per-rank capacity (heterogeneous pools).

    The synchronous epoch ends when the *slowest* rank finishes, so a mixed
    GPU + CPU pool with equal shards idles the fast devices.  Sizing each
    rank's shard proportional to its measured capacity equalizes per-epoch
    wall time.  Degenerate capacities raise pointed errors (see
    :func:`validate_capacities`) instead of emitting empty shards.
    """
    from .partition import proportional_partition

    caps = validate_capacities(capacities, n_items)
    return proportional_partition(n_items, caps, rng)


def make_capacity_partitioner(capacities):
    """A ``(n_items, n_parts, rng)`` partitioner with fixed capacity shares.

    Feeds :func:`load_proportional_partition` through the standard
    partitioner seam of the distributed engines; ``n_parts`` must match the
    number of capacity entries.
    """
    caps = list(capacities)

    def partitioner(
        n_items: int, n_parts: int, rng: np.random.Generator
    ) -> list[np.ndarray]:
        if n_parts != len(caps):
            raise ValueError(
                f"capacity partitioner built for {len(caps)} ranks, "
                f"asked to split for {n_parts}"
            )
        return load_proportional_partition(n_items, caps, rng)

    return partitioner


def communities_of(
    indptr: np.ndarray, indices: np.ndarray, n_coords: int
) -> list[np.ndarray]:
    """Coordinate communities: connected components of co-occurrence.

    Walks the *major*-axis segments and joins the minor indices each one
    contains.  To partition features (primal), pass the **CSR** arrays (each
    row's features co-occur); to partition examples (dual), pass the **CSC**
    arrays (each column's examples co-occur).  A coordinate in no segment is
    a community of its own.

    Each segment is linked as a chain of adjacent members, which connects
    exactly what a clique over the segment would, and the components come
    from a union-find run as whole-array passes (hook roots, then jump
    pointers), so no Python loop walks the nonzeros.  A label only ever
    moves to a smaller coordinate of its component, so each ends at the
    component's smallest member.  Communities are sorted and ordered by
    smallest member.  Block-structured data (one-hot groups, topic clusters)
    typically yields many of them.
    """
    segment = np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))
    linked = segment[1:] == segment[:-1]
    u, v = indices[:-1][linked], indices[1:][linked]
    label = np.arange(n_coords)  # every label is a root at the top of the loop
    while True:
        ru, rv = label[u], label[v]
        apart = ru != rv
        if not apart.any():
            break
        # hook the larger root of every split link under the smaller one ...
        np.minimum.at(label, np.maximum(ru, rv)[apart], np.minimum(ru, rv)[apart])
        # ... then jump pointers until each label is a root again
        while not np.array_equal(label[label], label):
            label = label[label]
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def pack_communities(
    communities: Sequence[np.ndarray], n_parts: int, capacities=None
) -> list[np.ndarray]:
    """Greedy largest-first bin packing of communities onto workers.

    Balances coordinate counts; a community is never split, so correlated
    coordinates always share a worker.  With ``capacities`` (one positive
    share per part), the pack balances *normalized* load ``count/capacity``
    so faster ranks receive proportionally more coordinates — the
    correlation-aware analogue of :func:`load_proportional_partition`.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    total = sum(c.shape[0] for c in communities)
    if total < n_parts:
        raise ValueError(
            f"cannot fill {n_parts} parts from {total} coordinates: more "
            "ranks than coordinates always strands at least one rank with "
            "an empty shard — shrink the cluster or grow the dataset"
        )
    weights = np.ones(n_parts)
    if capacities is not None:
        caps = validate_capacities(capacities, total)
        if caps.shape[0] != n_parts:
            raise ValueError(
                f"got {caps.shape[0]} capacities for {n_parts} parts"
            )
        weights = caps / caps.sum()
    heap = [(0.0, k) for k in range(n_parts)]
    heapq.heapify(heap)
    bins: list[list[np.ndarray]] = [[] for _ in range(n_parts)]
    for comm in sorted(communities, key=len, reverse=True):
        load, k = heapq.heappop(heap)
        bins[k].append(comm)
        heapq.heappush(heap, (load + comm.shape[0] / weights[k], k))
    parts = [
        np.sort(np.concatenate(b)) if b else np.empty(0, dtype=np.int64)
        for b in bins
    ]
    # guarantee non-empty parts (the engine requires them): steal singles
    # from the largest part for any empty one
    for k, p in enumerate(parts):
        if p.shape[0] == 0:
            donor = int(np.argmax([q.shape[0] for q in parts]))
            parts[k] = parts[donor][-1:]
            parts[donor] = parts[donor][:-1]
    return parts


def correlation_aware_partition(
    indptr: np.ndarray, indices: np.ndarray, n_coords: int, n_parts: int
) -> list[np.ndarray]:
    """End-to-end: communities -> balanced packing."""
    return pack_communities(communities_of(indptr, indices, n_coords), n_parts)


def make_correlation_partitioner(
    matrix,
) -> Callable[[int, int, np.random.Generator], list[np.ndarray]]:
    """Adapter producing the partitioner signature ``DistributedSCD`` wants.

    ``matrix`` must be compressed along the *opposite* axis of the
    coordinates being partitioned: pass the dataset's **CSR** to partition
    features (primal), or its **CSC** to partition examples (dual).
    """

    def partitioner(
        n_items: int, n_parts: int, rng: np.random.Generator
    ) -> list[np.ndarray]:
        if n_items != matrix.n_minor:
            raise ValueError(
                f"partitioner built for {matrix.n_minor} coordinates, "
                f"asked to split {n_items}"
            )
        return correlation_aware_partition(
            matrix.indptr, matrix.indices, n_items, n_parts
        )

    return partitioner
