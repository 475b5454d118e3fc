"""Convergence histories and the speed-ups derived from them."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".history": ("ConvergenceHistory", "ConvergenceRecord", "speedup"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "ConvergenceHistory",
    "ConvergenceRecord",
    "speedup",
]
