"""Datasets: container, synthetic generators, LibSVM I/O, splitting."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".dataset": ("Dataset", "train_test_split"),
    ".io": ("load_libsvm", "save_libsvm"),
    ".synthetic": (
        "make_block_correlated",
        "make_criteo_like",
        "make_dense_gaussian",
        "make_sparse_regression",
        "make_webspam_like",
        "powerlaw_indices",
    ),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Dataset",
    "train_test_split",
    "load_libsvm",
    "save_libsvm",
    "make_block_correlated",
    "make_criteo_like",
    "make_dense_gaussian",
    "make_sparse_regression",
    "make_webspam_like",
    "powerlaw_indices",
]
