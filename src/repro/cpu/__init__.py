"""CPU device models: Xeon spec and thread-scaling cost models."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".spec": ("XEON_8C", "CpuSpec", "SequentialCpuTiming", "ThreadedCpuTiming"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = ["CpuSpec", "XEON_8C", "SequentialCpuTiming", "ThreadedCpuTiming"]
