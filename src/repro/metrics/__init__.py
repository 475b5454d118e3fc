"""Convergence histories, derived metrics, and cross-validation."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".history": ("ConvergenceHistory", "ConvergenceRecord", "speedup"),
    ".cv": ("CvResult", "cross_validate_path", "kfold_indices"),
    ".rates": ("linear_rate", "slowdown_factor"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "ConvergenceHistory",
    "ConvergenceRecord",
    "speedup",
    "CvResult",
    "cross_validate_path",
    "kfold_indices",
    "linear_rate",
    "slowdown_factor",
]
