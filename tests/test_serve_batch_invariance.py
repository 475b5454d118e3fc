"""A served score does not depend on its batch, bit for bit.

The server scores each micro-batch in one gather product
(:func:`repro.sparse.batch_matvec`), restarting the float64 prefix at each
request, so every request must get exactly the bits of its own
``rows.matvec(w)`` whatever it is batched with and in whatever order.  The
properties below batch and shuffle adversarial requests — multi-row and
empty requests, empty rows, ``±0.0``, NaN payloads, ``±inf``, float32 data
and weights, and one request large enough that its reference product runs
``sparse.c`` — and compare bytes, so NaN payloads and ``-0.0`` count.  A
batch that shares one prefix across its requests fails them.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.serve import ModelServer, PredictRequest, ServeConfig, WeightSnapshot
from repro.sparse import CsrMatrix, batch_matvec, matrix

SPECIALS64 = np.concatenate((
    [0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, 1e-300, -1e-300],
    np.array([0x7FF8000000000123, 0xFFF8000000000456], np.uint64).view(np.float64),
))
SPECIALS32 = np.concatenate((
    np.array([0.0, -0.0, np.inf, -np.inf, 3e38, -3e38], np.float32),
    np.array([0x7FC00123, 0xFFC00456], np.uint32).view(np.float32),
))


def _values(rng, n, dtype, special_frac):
    """Normal values over a wide magnitude spread, some replaced by specials."""
    out = (rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n)).astype(dtype)
    specials = SPECIALS32 if dtype == np.float32 else SPECIALS64
    hit = rng.random(n) < special_frac
    out[hit] = rng.choice(specials, int(hit.sum()))
    return out


def _request_rows(rng, m, *, n_rows, max_row_nnz, dtype, special_frac):
    counts = rng.integers(0, max_row_nnz + 1, n_rows)
    counts[rng.random(n_rows) < 0.2] = 0  # empty rows
    indptr = np.concatenate(([0], np.cumsum(counts)))
    indices = rng.integers(0, m, int(indptr[-1]))
    data = _values(rng, indices.shape[0], dtype, special_frac)
    return CsrMatrix((n_rows, m), indptr, indices, data)


def _requests(rng, m, n_requests, *, float32_frac, special_frac, big=True):
    """Mixed requests; with ``big``, one whose product runs ``sparse.c``."""
    out = [
        _request_rows(
            rng, m, n_rows=int(rng.integers(0, 5)), max_row_nnz=8,
            dtype=np.float32 if rng.random() < float32_frac else np.float64,
            special_frac=special_frac,
        )
        for _ in range(n_requests)
    ]
    if big:
        rows, per_row = 8, matrix.NATIVE_MIN_NNZ // 8 + 1
        out.append(CsrMatrix(
            (rows, m),
            np.arange(rows + 1) * per_row,
            rng.integers(0, m, rows * per_row),
            _values(rng, rows * per_row, np.float64, special_frac),
        ))
    return out


def assert_same_bits(got, want, what):
    __tracebackhide__ = True
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), f"{what}: {got!r} != {want!r}"


@given(
    seed=st.integers(0, 2**32 - 1),
    max_batch=st.integers(1, 64),
    n_requests=st.integers(1, 90),
    float32_frac=st.sampled_from([0.0, 0.3, 1.0]),
    w_dtype=st.sampled_from([np.float64, np.float32]),
    special_frac=st.sampled_from([0.0, 0.05, 0.3]),
)
@settings(max_examples=60, deadline=None)
def test_any_batching_and_order_keeps_every_requests_bits(
    seed, max_batch, n_requests, float32_frac, w_dtype, special_frac
):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 50))
    reqs = _requests(
        rng, m, n_requests, float32_frac=float32_frac, special_frac=special_frac
    )
    w = _values(rng, m, w_dtype, special_frac)
    want = [a.matvec(w) for a in reqs]
    order = rng.permutation(len(reqs))
    for lo in range(0, len(order), max_batch):
        batch = order[lo:lo + max_batch]
        for k, got in zip(batch, batch_matvec([reqs[k] for k in batch], w)):
            assert_same_bits(got, want[k], f"request {k}")


@given(
    seed=st.integers(0, 2**32 - 1),
    max_batch=st.integers(1, 64),
    n_requests=st.integers(1, 90),
    special_frac=st.sampled_from([0.0, 0.05, 0.3]),
)
@settings(max_examples=30, deadline=None)
def test_served_scores_are_each_requests_own_matvec(
    seed, max_batch, n_requests, special_frac
):
    """Through the server: shuffled arrivals, any ``max_batch``."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 50))
    rows = _requests(rng, m, n_requests, float32_frac=0.3, special_frac=special_frac)
    snap = WeightSnapshot(version=1, weights=_values(rng, m, np.float64, special_frac))
    times = np.sort(rng.uniform(0.0, 0.01, len(rows)))
    server = ModelServer(
        snap, config=ServeConfig(max_batch=max_batch, max_wait_s=1e-3,
                                 queue_capacity=128),
    )
    for k, t in zip(rng.permutation(len(rows)), times):
        server.submit(PredictRequest(request_id=int(k), rows=rows[k], arrival_s=t))
    responses = server.drain()
    assert len(responses) == len(rows) and not any(r.shed for r in responses)
    for resp in responses:
        want = rows[resp.request_id].matvec(snap.weights)
        assert_same_bits(resp.scores, want, f"request {resp.request_id}")


def test_nan_pairs_keep_their_payload_in_any_batch():
    # numpy keeps one of two meeting NaNs' payloads by where the pair falls
    # in its vector loop; put a pair at every position of requests of every
    # length up to 40, so batching moves pairs in and out of loop tails
    data_nan, w_nan = SPECIALS64[-2:]
    w = np.ones(3)
    w[2] = w_nan
    reqs = []
    for nnz in range(1, 41):
        for at in range(nnz):
            data = np.ones(nnz)
            data[at] = data_nan
            indices = np.zeros(nnz, np.int64)
            indices[at] = 2
            reqs.append(CsrMatrix((1, 3), [0, nnz], indices, data))
    want = [a.matvec(w) for a in reqs]
    for max_batch in (2, 3, 7, 64):
        for lo in range(0, len(reqs), max_batch):
            got = batch_matvec(reqs[lo:lo + max_batch], w)
            for k, scores in enumerate(got, start=lo):
                assert_same_bits(scores, want[k], f"request {k}")


@pytest.mark.skipif(shutil.which(native.CC) is None, reason="no C compiler on PATH")
def test_the_large_requests_reference_is_sparse_c(monkeypatch):
    native.load_native()
    paths = []
    real = matrix._native_product

    def spy(*args):
        out = real(*args)
        paths.append(out is not None)
        return out

    monkeypatch.setattr(matrix, "_native_product", spy)
    rng = np.random.default_rng(5)
    reqs = _requests(rng, 30, 20, float32_frac=0.3, special_frac=0.05)
    w = _values(rng, 30, np.float64, 0.05)
    want = reqs[-1].matvec(w)
    assert paths == [True], "the large request's matvec did not run sparse.c"
    assert_same_bits(batch_matvec(reqs, w)[-1], want, "large request")


def test_a_wrong_width_matrix_is_named():
    rng = np.random.default_rng(0)
    reqs = _requests(rng, 6, 3, float32_frac=0.0, special_frac=0.0, big=False)
    reqs[1] = _request_rows(rng, 7, n_rows=2, max_row_nnz=3, dtype=np.float64,
                            special_frac=0.0)
    with pytest.raises(ValueError, match="matrix 1 expects 7"):
        batch_matvec(reqs, np.ones(6))


def test_no_matrices_no_results():
    assert batch_matvec([], np.ones(3)) == []
