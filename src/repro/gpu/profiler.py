"""Execution profiling for the simulated TPA-SCD kernels.

Collects the per-wave statistics a CUDA profiler would report about the
real kernel and that explain its performance character:

* **atomic conflicts** — shared-vector elements written by more than one
  thread block within the same wave (the serialization source for the
  float atomic adds);
* **lane occupancy** — the fraction of a block's threads holding at least
  one nonzero (short coordinates under-fill blocks);
* **block load** — nonzeros per thread block (coordinate), whose spread
  drives SM load imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["KernelProfile"]


@dataclass
class KernelProfile:
    """Accumulates wave-level statistics across epochs."""

    n_threads: int = 0
    waves: int = 0
    blocks: int = 0
    nnz_processed: int = 0
    atomic_writes: int = 0
    atomic_conflicts: int = 0
    lane_slots: int = 0
    lanes_active: int = 0
    block_nnz_min: int | None = None
    block_nnz_max: int = 0
    _block_nnz_sum: int = field(default=0, repr=False)

    def record_wave(
        self,
        flat_idx: np.ndarray,
        seg_ptr: np.ndarray,
        n_threads: int,
        *,
        conflicts: int | None = None,
    ) -> None:
        """Book one wave's gather/write pattern.

        ``conflicts`` accepts a precomputed duplicate-write count (the
        planned runtime gets it for free from its epoch conflict analysis);
        when omitted it is derived from ``flat_idx`` with ``np.unique``.
        """
        nnz = int(flat_idx.shape[0])
        if conflicts is None:
            conflicts = nnz - int(np.unique(flat_idx).shape[0]) if nnz else 0
        lengths = np.diff(seg_ptr)
        self.record_waves(
            n_threads,
            waves=1,
            blocks=int(lengths.shape[0]),
            nnz=nnz,
            conflicts=conflicts,
            min_nnz=int(lengths.min()) if lengths.size else None,
            max_nnz=int(lengths.max(initial=0)),
            lanes_active=int(np.minimum(lengths, n_threads).sum()),
        )

    def record_waves(
        self,
        n_threads: int,
        *,
        waves: int,
        blocks: int,
        nnz: int,
        conflicts: int,
        min_nnz: int | None,
        max_nnz: int,
        lanes_active: int,
    ) -> None:
        """Book the totals of one or more waves, as the native kernel counts them.

        ``min_nnz`` / ``max_nnz`` are the extreme block lengths of those
        waves (``min_nnz`` is ignored when there are no blocks) and
        ``lanes_active`` sums ``min(block length, n_threads)`` over blocks.
        """
        self.n_threads = n_threads
        self.waves += waves
        self.blocks += blocks
        self.nnz_processed += nnz
        self.atomic_writes += nnz
        self.atomic_conflicts += conflicts
        self._block_nnz_sum += nnz
        if blocks:
            self.block_nnz_min = (
                min_nnz if self.block_nnz_min is None else min(self.block_nnz_min, min_nnz)
            )
            self.block_nnz_max = max(self.block_nnz_max, max_nnz)
        self.lane_slots += blocks * n_threads
        self.lanes_active += lanes_active

    # -- derived metrics ------------------------------------------------------
    @property
    def mean_block_nnz(self) -> float:
        return self._block_nnz_sum / self.blocks if self.blocks else 0.0

    @property
    def conflict_rate(self) -> float:
        """Fraction of atomic writes that contend with another block."""
        return self.atomic_conflicts / self.atomic_writes if self.atomic_writes else 0.0

    @property
    def occupancy(self) -> float:
        """Mean fraction of block lanes holding work."""
        return self.lanes_active / self.lane_slots if self.lane_slots else 0.0

    def summary(self) -> dict[str, float]:
        return {
            "waves": float(self.waves),
            "blocks": float(self.blocks),
            "nnz_processed": float(self.nnz_processed),
            "mean_block_nnz": self.mean_block_nnz,
            "conflict_rate": self.conflict_rate,
            "occupancy": self.occupancy,
        }
