"""Dataset container used throughout the library.

A :class:`Dataset` pairs a training matrix with its label vector and caches
both compressed layouts: CSC is what the primal solver wants (coordinates are
feature columns), CSR is what the dual solver wants (coordinates are example
rows).  Conversion is done once and memoized, mirroring how the paper keeps a
format-appropriate copy resident in GPU memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..sparse import CscMatrix, CsrMatrix

__all__ = ["Dataset", "train_test_split"]


@dataclass
class Dataset:
    """A labelled sparse dataset.

    Parameters
    ----------
    matrix:
        Training matrix in either compressed layout; the other layout is
        derived lazily on first use.
    y:
        Label / target vector of length ``n_examples``.
    name:
        Human-readable identifier used in experiment reports.
    meta:
        Free-form provenance (generator parameters, file of origin, ...).
    """

    matrix: CscMatrix | CsrMatrix
    y: np.ndarray
    name: str = "unnamed"
    meta: dict[str, Any] = field(default_factory=dict)
    _csc: CscMatrix | None = field(default=None, repr=False)
    _csr: CsrMatrix | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.y = np.asarray(self.y)
        if self.y.ndim != 1:
            raise ValueError("y must be a 1-D vector")
        if self.y.shape[0] != self.matrix.shape[0]:
            raise ValueError(
                f"y has {self.y.shape[0]} labels for {self.matrix.shape[0]} examples"
            )
        if isinstance(self.matrix, CscMatrix):
            self._csc = self.matrix
        elif isinstance(self.matrix, CsrMatrix):
            self._csr = self.matrix
        else:
            raise TypeError("matrix must be CscMatrix or CsrMatrix")
        _reject_non_finite(self.y, self.matrix)

    # -- geometry -----------------------------------------------------------
    @property
    def n_examples(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_features(self) -> int:
        return self.matrix.shape[1]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    @property
    def nbytes(self) -> int:
        """Size of one compressed copy — what a GPU worker must hold."""
        return self.matrix.nbytes + self.y.nbytes

    # -- layout access ---------------------------------------------------------
    @property
    def csc(self) -> CscMatrix:
        """Column-compressed layout (primal coordinates)."""
        if self._csc is None:
            assert self._csr is not None
            self._csc = self._csr.to_csc()
        return self._csc

    @property
    def csr(self) -> CsrMatrix:
        """Row-compressed layout (dual coordinates)."""
        if self._csr is None:
            assert self._csc is not None
            self._csr = self._csc.to_csr()
        return self._csr

    def astype(self, dtype) -> "Dataset":
        """Return a copy with matrix values and labels cast to ``dtype``."""
        return Dataset(
            matrix=self.matrix.astype(dtype),
            y=self.y.astype(dtype),
            name=self.name,
            meta=dict(self.meta),
        )

    def describe(self) -> str:
        """One-line summary used by the experiment drivers."""
        mb = self.nbytes / 2**20
        return (
            f"{self.name}: {self.n_examples} examples x {self.n_features} features, "
            f"nnz={self.nnz} (density {self.matrix.density:.2e}), {mb:.1f} MiB"
        )


def _reject_non_finite(y: np.ndarray, matrix: CscMatrix | CsrMatrix) -> None:
    """Raise ``ValueError`` naming the count and first position of any NaN or
    infinite label or stored matrix value: a solver would train on them
    silently and report a ``nan`` gap."""
    bad = ~np.isfinite(y)
    if bad.any():
        raise ValueError(
            f"y has {int(bad.sum())} non-finite label(s); the first is at "
            f"example {int(np.argmax(bad))}"
        )
    # a float sum is finite only if every term is: one pass, no temporary
    if np.isfinite(matrix.data.sum()):
        return
    bad = ~np.isfinite(matrix.data)
    if bad.any():
        first = int(np.argmax(bad))
        major = int(np.searchsorted(matrix.indptr, first, side="right")) - 1
        minor = int(matrix.indices[first])
        row, col = (major, minor) if isinstance(matrix, CsrMatrix) else (minor, major)
        raise ValueError(
            f"matrix has {int(bad.sum())} non-finite value(s); the first is at "
            f"row {row}, column {col}"
        )


def train_test_split(
    dataset: Dataset, test_fraction: float, rng: np.random.Generator
) -> tuple[Dataset, Dataset]:
    """Uniformly split examples into train/test partitions.

    This mirrors the paper's 75/25 uniform sampling of webspam.  Splitting is
    by row, so it is performed on the CSR layout.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    n = dataset.n_examples
    perm = rng.permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    test_rows = np.sort(perm[:n_test])
    train_rows = np.sort(perm[n_test:])
    csr = dataset.csr
    train = Dataset(
        matrix=csr.take_rows(train_rows),
        y=dataset.y[train_rows],
        name=f"{dataset.name}-train",
        meta=dict(dataset.meta),
    )
    test = Dataset(
        matrix=csr.take_rows(test_rows),
        y=dataset.y[test_rows],
        name=f"{dataset.name}-test",
        meta=dict(dataset.meta),
    )
    return train, test
