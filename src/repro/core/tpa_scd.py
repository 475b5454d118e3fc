"""TPA-SCD: twice-parallel asynchronous SCD on the simulated GPU (Alg. 2).

This is the paper's primary contribution.  The kernel factory binds a data
partition onto a :class:`~repro.gpu.device.GpuDevice`: it books the device
memory (raising :class:`~repro.gpu.memory.GpuOutOfMemoryError` when the
partition does not fit, which is what forces the multi-GPU scale-out of
Section V), casts everything to float32 as the paper does, and wires the
wave-based :class:`~repro.gpu.engine.TpaScdEngine` to the generic solver
driver.
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import GpuDevice
from ..gpu.engine import TpaScdEngine
from ..gpu.plan import plan_cache_stats
from ..gpu.profiler import KernelProfile
from ..gpu.spec import GTX_TITAN_X, GpuSpec
from ..gpu.timing import GpuTimingModel
from ..perf.timing import EpochWorkload
from ..solvers.base import BoundKernel, ScdSolver
from ..sparse import CscMatrix, CsrMatrix

__all__ = ["TpaScdKernelFactory", "TpaScd", "scaled_wave_size"]


def scaled_wave_size(spec: GpuSpec, n_coords_scaled: int, n_coords_paper: int) -> int:
    """Wave size preserving the paper's staleness *fraction* at reduced scale.

    On real hardware ``spec.resident_blocks`` thread blocks (a few hundred)
    run concurrently against hundreds of thousands of coordinates, so the
    fraction of an epoch executed against a stale shared vector is tiny.
    The reproduction datasets are ~100x smaller; running the full resident
    wave against them would make *every* update stale — a staleness regime
    the real system never enters.  This helper scales the wave so that
    ``wave / n_coords`` matches the paper's ratio.
    """
    if n_coords_scaled <= 0 or n_coords_paper <= 0:
        raise ValueError("coordinate counts must be positive")
    frac = spec.resident_blocks / n_coords_paper
    return max(1, round(frac * n_coords_scaled))


def _effective_wave(wave_size: int | None, spec: GpuSpec) -> int:
    """An explicit ``wave_size`` as given (the engine rejects ``< 1``), or the
    device's resident-block count when unset."""
    return spec.resident_blocks if wave_size is None else int(wave_size)


class TpaScdKernelFactory:
    """Binds TPA-SCD epochs to a simulated GPU.

    Parameters
    ----------
    device:
        A :class:`GpuDevice` or a bare :class:`GpuSpec` (a fresh device is
        created around it).
    n_threads:
        Threads per block (power of two); the paper's kernels use warp
        multiples — 256 is a typical choice.
    wave_size:
        Override for the number of concurrently resident thread blocks
        (defaults to the device's ``resident_blocks``); exposed for the
        staleness ablation.
    simulated_dataset_nbytes:
        Paper-scale footprint to book against device memory instead of the
        in-process array sizes (see Fig. 10's 40 GB criteo sample).
    out_of_core:
        When True the bulk ``"dataset"`` allocation is skipped at bind time:
        the data does not live resident on the device but streams through a
        :class:`~repro.shards.ShardCache`, which books per-shard residency
        against this device's memory itself.  Set automatically by the
        distributed engine when a ``shards=`` config is supplied.
    """

    def __init__(
        self,
        device: GpuDevice | GpuSpec = GTX_TITAN_X,
        *,
        n_threads: int = 256,
        wave_size: int | None = None,
        dtype=np.float32,
        simulated_dataset_nbytes: int | None = None,
        out_of_core: bool = False,
        timing_workload: EpochWorkload | None = None,
        profiler: "KernelProfile | None" = None,
        tracer=None,
    ) -> None:
        if isinstance(device, GpuSpec):
            device = GpuDevice(device)
        self.device = device
        self.profiler = profiler
        self.tracer = tracer
        self.n_threads = int(n_threads)
        self.wave_size = int(wave_size) if wave_size is not None else None
        self.dtype = np.dtype(dtype)
        self.simulated_dataset_nbytes = simulated_dataset_nbytes
        self.out_of_core = bool(out_of_core)
        self.timing_workload = timing_workload
        self.name = f"TPA-SCD({device.spec.name})"

    def _build_engine(self, matrix) -> TpaScdEngine:
        """Construct the wave engine, booking plan-cache traffic when traced."""
        before = plan_cache_stats()
        engine = TpaScdEngine(
            matrix.indptr,
            matrix.indices,
            matrix.data,
            wave_size=_effective_wave(self.wave_size, self.device.spec),
            n_threads=self.n_threads,
            dtype=self.dtype,
            profiler=self.profiler,
            tracer=self.tracer,
        )
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            after = plan_cache_stats()
            hits = after["hits"] - before["hits"]
            misses = after["misses"] - before["misses"]
            if hits:
                tracer.count("gpu.plan_cache.hits", hits)
            if misses:
                tracer.count("gpu.plan_cache.misses", misses)
        return engine

    def _priced(self, workload: EpochWorkload) -> EpochWorkload:
        return self.timing_workload or workload

    def _book_memory(self, matrix, n_vec_elems: int) -> None:
        """Account for the partition + model/shared vectors on the device."""
        self.device.reset()
        if not self.out_of_core:
            nbytes = (
                self.simulated_dataset_nbytes
                if self.simulated_dataset_nbytes is not None
                else matrix.indptr.nbytes
                + matrix.indices.nbytes
                + matrix.nnz * self.dtype.itemsize
            )
            self.device.memory.alloc("dataset", int(nbytes))
        self.device.alloc_vector("vectors", n_vec_elems, self.dtype.itemsize)

    def bind_primal(
        self, csc: CscMatrix, y: np.ndarray, n_global: int, lam: float
    ) -> BoundKernel:
        self._book_memory(csc, csc.n_major + csc.shape[0])
        engine = self._build_engine(csc)
        y32 = y.astype(self.dtype, copy=False)
        nlam = self.dtype.type(n_global * lam)
        inv_denom = (1.0 / (csc.col_norms_sq().astype(np.float64) + n_global * lam)).astype(
            self.dtype
        )

        def run_epoch(beta, w, perm, rng):
            return engine.run_primal_epoch(y32, inv_denom, nlam, beta, w, perm)

        return BoundKernel(
            run_epoch=run_epoch,
            workload=self._priced(
                EpochWorkload(
                    n_coords=csc.n_major, nnz=csc.nnz, shared_len=csc.shape[0]
                )
            ),
            timing=GpuTimingModel(self.device.spec),
            n_coords=csc.n_major,
            shared_len=csc.shape[0],
            dtype=self.dtype,
        )

    def bind_dual(
        self, csr: CsrMatrix, y_local: np.ndarray, n_global: int, lam: float
    ) -> BoundKernel:
        self._book_memory(csr, csr.n_major + csr.shape[1])
        engine = self._build_engine(csr)
        y32 = y_local.astype(self.dtype, copy=False)
        lam_t = self.dtype.type(lam)
        nlam = self.dtype.type(n_global * lam)
        inv_denom = (
            1.0 / (n_global * lam + csr.row_norms_sq().astype(np.float64))
        ).astype(self.dtype)

        def run_epoch(alpha, wbar, perm, rng):
            return engine.run_dual_epoch(
                y32, inv_denom, lam_t, nlam, alpha, wbar, perm
            )

        return BoundKernel(
            run_epoch=run_epoch,
            workload=self._priced(
                EpochWorkload(
                    n_coords=csr.n_major, nnz=csr.nnz, shared_len=csr.shape[1]
                )
            ),
            timing=GpuTimingModel(self.device.spec),
            n_coords=csr.n_major,
            shared_len=csr.shape[1],
            dtype=self.dtype,
        )


class TpaScd(ScdSolver):
    """User-facing TPA-SCD solver running on a simulated GPU."""

    def __init__(
        self,
        formulation: str = "primal",
        *,
        device: GpuDevice | GpuSpec = GTX_TITAN_X,
        n_threads: int = 256,
        wave_size: int | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(
            TpaScdKernelFactory(device, n_threads=n_threads, wave_size=wave_size),
            formulation,
            seed,
        )
