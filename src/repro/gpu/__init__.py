"""Simulated GPU substrate: specs, memory, execution engine, timing."""

from .device import GpuDevice
from .engine import RidgeDualRule, RidgePrimalRule, TpaScdEngine, block_tree_dots
from .glm_engine import (
    CoordinateRule,
    ElasticNetPrimalRule,
    GlmTpaEngine,
    SvmDualRule,
)
from .memory import DeviceMemory, GpuOutOfMemoryError
from .profiler import KernelProfile
from .spec import GTX_TITAN_X, QUADRO_M4000, TESLA_P100, GpuSpec
from .timing import BYTES_PER_NNZ, GpuTimingModel

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
