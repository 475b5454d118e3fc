"""Simulated GPU substrate: specs, memory, execution engine, timing."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".device": ("GpuDevice",),
    ".engine": (
        "CoordinateRule",
        "ElasticNetPrimalRule",
        "RidgeDualRule",
        "RidgePrimalRule",
        "SvmDualRule",
        "TpaScdEngine",
        "block_tree_dots",
    ),
    ".memory": ("DeviceMemory", "GpuOutOfMemoryError"),
    ".spec": ("GTX_TITAN_X", "QUADRO_M4000", "TESLA_P100", "GpuSpec"),
    ".timing": ("BYTES_PER_NNZ", "GpuTimingModel"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "GpuDevice",
    "TpaScdEngine",
    "block_tree_dots",
    "CoordinateRule",
    "RidgePrimalRule",
    "RidgeDualRule",
    "ElasticNetPrimalRule",
    "SvmDualRule",
    "DeviceMemory",
    "GpuOutOfMemoryError",
    "GpuSpec",
    "QUADRO_M4000",
    "GTX_TITAN_X",
    "TESLA_P100",
    "GpuTimingModel",
    "BYTES_PER_NNZ",
]
