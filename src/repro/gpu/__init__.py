"""Simulated GPU substrate: specs, memory, execution engine, timing."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".device": ("GpuDevice",),
    ".engine": ("RidgeDualRule", "RidgePrimalRule", "TpaScdEngine", "block_tree_dots"),
    ".glm_engine": (
        "CoordinateRule",
        "ElasticNetPrimalRule",
        "GlmTpaEngine",
        "SvmDualRule",
    ),
    ".memory": ("DeviceMemory", "GpuOutOfMemoryError"),
    ".profiler": ("KernelProfile",),
    ".spec": ("GTX_TITAN_X", "QUADRO_M4000", "TESLA_P100", "GpuSpec"),
    ".timing": ("BYTES_PER_NNZ", "GpuTimingModel"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "GpuDevice",
    "TpaScdEngine",
    "block_tree_dots",
    "CoordinateRule",
    "GlmTpaEngine",
    "RidgePrimalRule",
    "RidgeDualRule",
    "ElasticNetPrimalRule",
    "SvmDualRule",
    "DeviceMemory",
    "GpuOutOfMemoryError",
    "KernelProfile",
    "GpuSpec",
    "QUADRO_M4000",
    "GTX_TITAN_X",
    "TESLA_P100",
    "GpuTimingModel",
    "BYTES_PER_NNZ",
]
