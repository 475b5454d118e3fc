"""Datasets: container, synthetic generators, LibSVM I/O, splitting."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".dataset": ("Dataset", "train_test_split"),
    ".io": ("load_libsvm", "save_libsvm"),
    ".preprocess": (
        "binarize_labels",
        "clip_values",
        "normalize_rows",
        "scale_columns",
    ),
    ".store": (
        "load_dataset_npz",
        "load_history_json",
        "save_dataset_npz",
        "save_history_json",
    ),
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
    "normalize_rows",
    "scale_columns",
    "clip_values",
    "binarize_labels",
    "save_dataset_npz",
    "load_dataset_npz",
    "save_history_json",
    "load_history_json",
    "make_block_correlated",
    "make_criteo_like",
    "make_dense_gaussian",
    "make_sparse_regression",
    "make_webspam_like",
    "powerlaw_indices",
]
