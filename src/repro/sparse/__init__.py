"""Sparse matrix substrate: CSC/CSR formats implemented from scratch."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".matrix": (
        "CscMatrix",
        "CsrMatrix",
        "batch_matvec",
        "from_coo",
        "from_dense_csc",
        "from_dense_csr",
    ),
    ".ops": (
        "check_compressed",
        "expand_by_segments",
        "grouped_segment_sums",
        "segment_lengths",
        "segment_sums",
        "transpose_compressed",
    ),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "CscMatrix",
    "CsrMatrix",
    "batch_matvec",
    "from_coo",
    "from_dense_csc",
    "from_dense_csr",
    "check_compressed",
    "expand_by_segments",
    "grouped_segment_sums",
    "segment_lengths",
    "segment_sums",
    "transpose_compressed",
]
