"""The compiled kernel library: every ``.c`` file of this package in one ``.so``.

The C sources next to this module are the compiled twins of numpy kernels
elsewhere in the package — ``syscd.c`` of :mod:`repro.solvers.syscd_kernels`,
``tpa.c`` of Algorithm 2's wave loop (:mod:`repro.gpu.engine`, with the
next blocks' data prefetched, since one core runs the blocks one after
another where a GPU overlaps them), ``sparse.c`` of the float64 products of
:class:`~repro.sparse.CscMatrix` and :class:`~repro.sparse.CsrMatrix`
(``matvec`` / ``rmatvec`` from ``repro.sparse.matrix.NATIVE_MIN_NNZ``
nonzeros up) and of the ridge gap's row passes over CSR
(:mod:`repro.objectives.ridge`: ``A beta`` row by row, and the primal gap's
two products in one read of the data), and of the stable sort every
compressed matrix is built with (``sparse_counting_order``, a counting sort
that gives ``np.argsort(kind="stable")``'s and ``np.lexsort``'s permutation,
for :func:`repro.sparse.from_coo` and
:func:`repro.sparse.ops.transpose_compressed`).  They are built
together on first use with the host's C compiler (:data:`CC`,
:data:`CFLAGS`) into a per-user cache directory and loaded through
:mod:`ctypes`, which releases the GIL for the duration of every call.

Nothing here runs at import: the first :func:`load_native` builds or loads the
library, and every later call in the process returns the same handle (or
raises the same :class:`NativeUnavailableError`).  Callers pick the numpy
twin when the library is unavailable; the two are bit-identical, so that
changes speed, never results.

Foreign code handed a wrong dtype or an out-of-range index corrupts memory
instead of raising, so bindings pass every array through :func:`address`
(dtype, C order, length, writeability).  The engines also pass every
compressed matrix through :func:`check_structure` before choosing between a
kernel and its numpy twin, so a malformed matrix fails the same way on
both; the sparse products and the sort instead check the structure (the
sort: every key's bound) inside the C loop, on every call, and return a
status the binding raises as ``ValueError``.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shlex
import subprocess
import tempfile
import threading
from importlib import resources
from pathlib import Path

import numpy as np

__all__ = [
    "CC",
    "CFLAGS",
    "NativeUnavailableError",
    "address",
    "check_structure",
    "load_native",
]

#: the C compiler that builds the library
CC = "cc"
#: strict IEEE build: the C kernels must replay their numpy twins bit for bit
#: (no FMA contraction, no reassociation, no flush-to-zero)
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_P, _F64, _I64 = ctypes.c_void_p, ctypes.c_double, ctypes.c_int64
#: every exported function's result type (None: void) and argument types
_SIGNATURES = {
    "syscd_exact_pass": (None, [_P] * 5 + [_F64] + [_P] * 3 + [_I64]),
    "syscd_bucket_chunk": (None, [_P] * 5 + [_F64] + [_P] * 6 + [_I64]),
    "tpa_epoch": (None, [_P] * 4 + [_I64] + [_P] * 5 + [_I64] * 3 + [_P] * 3),
    "sparse_scatter": (_I64, [_P] * 3 + [_I64] * 3 + [_P] * 2),
    "sparse_gather": (_I64, [_P] * 3 + [_I64] * 3 + [_P] * 2),
    "sparse_row_sums": (_I64, [_P] * 3 + [_I64] * 3 + [_P] * 2),
    "sparse_gap_pass": (_I64, [_P] * 3 + [_I64] * 3 + [_P] * 2 + [_F64] + [_P] * 3),
    "sparse_counting_order": (_I64, [_P, _I64, _P, _I64, _I64, _P, _P, _P]),
}

_LOCK = threading.Lock()
# one loaded library, or the reason it could not be built, per compiler
_NATIVE: dict[str, ctypes.CDLL | str] = {}


class NativeUnavailableError(ValueError):
    """The C kernels could not be built or loaded; the message says why."""


def load_native() -> ctypes.CDLL:
    """The compiled kernel library, built and loaded once per process.

    The shared object is cached under ``$XDG_CACHE_HOME/repro`` (default
    ``~/.cache/repro``), keyed by the sha256 of every C source, :data:`CFLAGS`
    and ``CC --version``, so a second process loads it without compiling.
    The build writes a temporary file and renames it into place, so
    concurrent processes never load a partial file.  Raises
    :class:`NativeUnavailableError` naming the failed command when the
    library cannot be built or loaded.
    """
    with _LOCK:
        lib = _NATIVE.get(CC)
        if lib is None:
            try:
                lib = _build_and_load()
            except (OSError, ValueError) as exc:
                lib = str(exc)
            _NATIVE[CC] = lib
    if isinstance(lib, str):
        raise NativeUnavailableError(
            "the native C kernels are unavailable (SySCD, TPA-SCD and the "
            f"sparse products fall back to numpy): {lib}"
        )
    return lib


def _run(cmd: list[str]) -> str:
    """Run a compiler command; failure is a ``ValueError`` naming it."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    except OSError as exc:
        raise ValueError(f"`{shlex.join(cmd)}` could not run ({exc})") from None
    if proc.returncode != 0:
        raise ValueError(
            f"`{shlex.join(cmd)}` exited with status {proc.returncode}:\n"
            f"{proc.stderr.strip()}"
        )
    return proc.stdout


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "repro"


def _build_and_load() -> ctypes.CDLL:
    package = resources.files(__package__)
    sources = sorted(
        (entry for entry in package.iterdir() if entry.name.endswith(".c")),
        key=lambda entry: entry.name,
    )
    key = hashlib.sha256()
    for part in (
        *(entry.name.encode() + b"\0" + entry.read_bytes() for entry in sources),
        " ".join(CFLAGS).encode(),
        _run([CC, "--version"]).encode(),
    ):
        key.update(part)
        key.update(b"\0")
    cache = _cache_dir()
    target = cache / f"repro_native-{key.hexdigest()[:16]}.so"
    if not target.exists():
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".repro_native-", suffix=".so", dir=cache)
        os.close(fd)
        try:
            with contextlib.ExitStack() as stack:
                paths = [str(stack.enter_context(resources.as_file(e))) for e in sources]
                _run([CC, *CFLAGS, *paths, "-o", tmp])
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(str(target))
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = restype
    return lib


def address(arr, dtype, name: str, length: int | None = None, *,
            writeable: bool = False) -> int:
    """Address of ``arr`` once it is what the C kernels assume it is.

    ``arr`` must be a 1-D C-contiguous ``dtype`` array, of ``length``
    elements when given and writeable when asked; anything else is a
    ``ValueError`` naming the argument.
    """
    dtype = np.dtype(dtype)
    if (
        not isinstance(arr, np.ndarray)
        or arr.dtype != dtype
        or arr.ndim != 1
        or not arr.flags.c_contiguous
    ):
        got = (
            f"{arr.dtype} array of shape {arr.shape}"
            + ("" if arr.flags.c_contiguous else ", not C-contiguous")
            if isinstance(arr, np.ndarray) else type(arr).__name__
        )
        raise ValueError(
            f"{name} must be a 1-D C-contiguous {dtype} array, got a {got}"
        )
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"{name} has length {arr.shape[0]}, expected {length}")
    if writeable and not arr.flags.writeable:
        raise ValueError(f"{name} is read-only")
    return arr.ctypes.data


def check_structure(indptr, indices) -> int:
    """Reject compressed arrays a wave or bucket loop cannot walk.

    Coordinate ``j`` owns ``indices[indptr[j]:indptr[j + 1]]``, so both
    arrays must be 1-D C-contiguous int64, ``indptr`` non-decreasing from
    ``indptr[0] >= 0`` to ``indptr[-1] <= len(indices)``, and every index
    non-negative; anything else is a ``ValueError``.  Returns the length of
    the shortest vector every index fits in.
    """
    address(indptr, np.int64, "indptr")
    address(indices, np.int64, "indices")
    nnz = indices.shape[0]
    if indptr.shape[0] == 0 or indptr[0] < 0 or indptr[-1] > nnz:
        raise ValueError("indptr points outside indices")
    if np.any(indptr[1:] < indptr[:-1]):
        raise ValueError("indptr must be non-decreasing")
    if nnz == 0:
        return 0
    if indices.min() < 0:
        raise ValueError("indices must be non-negative")
    return int(indices.max()) + 1
