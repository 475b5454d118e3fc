"""Unit tests for the low-level compressed-storage kernels."""

import numpy as np
import pytest

from repro.sparse.ops import (
    check_compressed,
    expand_by_segments,
    grouped_segment_sums,
    segment_lengths,
    segment_sums,
    transpose_compressed,
)


class TestSegmentSums:
    def test_basic(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        indptr = np.array([0, 2, 2, 5])
        out = segment_sums(vals, indptr)
        assert np.allclose(out, [3.0, 0.0, 12.0])

    def test_empty_segments_everywhere(self):
        vals = np.zeros(0)
        indptr = np.array([0, 0, 0, 0])
        assert np.allclose(segment_sums(vals, indptr), [0.0, 0.0, 0.0])

    def test_single_segment(self):
        vals = np.arange(10, dtype=np.float64)
        out = segment_sums(vals, np.array([0, 10]))
        assert out.shape == (1,)
        assert out[0] == 45.0

    def test_dtype_preserved(self):
        vals = np.array([1.0, 2.0], dtype=np.float32)
        out = segment_sums(vals, np.array([0, 2]))
        assert out.dtype == np.float32

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="entries"):
            segment_sums(np.ones(3), np.array([0, 2]))

    def test_matches_python_reference(self):
        rng = np.random.default_rng(0)
        lengths = rng.integers(0, 6, size=50)
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        vals = rng.standard_normal(int(indptr[-1]))
        expected = [vals[indptr[i] : indptr[i + 1]].sum() for i in range(50)]
        assert np.allclose(segment_sums(vals, indptr), expected)


class TestGroupedSegmentSums:
    @staticmethod
    def _groups(rng, n_groups):
        """Random groups (some with no segments, some with empty segments)."""
        out = []
        for _ in range(n_groups):
            lengths = rng.integers(0, 6, size=rng.integers(0, 5))
            indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
            out.append((rng.standard_normal(int(indptr[-1])) * 1e8, indptr))
        return out

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bits_equal_per_group_segment_sums(self, dtype):
        rng = np.random.default_rng(3)
        for n_groups in (0, 1, 2, 7, 40):
            groups = [(v.astype(dtype), p) for v, p in self._groups(rng, n_groups)]
            values = np.concatenate([v for v, _ in groups] + [np.zeros(0, dtype)])
            indptr = np.concatenate([p for _, p in groups] + [np.zeros(0, np.int64)])
            bounds = np.concatenate([[0], np.cumsum([p.shape[0] for _, p in groups])])
            got = grouped_segment_sums(values, indptr, bounds.astype(np.int64))
            want = np.concatenate(
                [segment_sums(v, p) for v, p in groups] + [np.zeros(0, dtype)]
            )
            assert got.dtype == dtype
            assert got.tobytes() == want.tobytes()

    def test_signed_zero_start_is_kept(self):
        # np.cumsum starts at v[0], not 0.0 + v[0]: a lone -0.0 sums to -0.0
        got = grouped_segment_sums(
            np.array([-0.0, -0.0]), np.array([0, 1, 0, 1]), np.array([0, 2, 4])
        )
        assert np.signbit(got).all()

    def test_malformed_groups_raise(self):
        with pytest.raises(ValueError, match="length >= 1"):
            grouped_segment_sums(np.ones(1), np.array([0, 1]), np.array([0, 0, 2]))
        with pytest.raises(ValueError, match="bounds end"):
            grouped_segment_sums(np.ones(1), np.array([0, 1]), np.array([0, 1]))
        with pytest.raises(ValueError, match="entries"):
            grouped_segment_sums(np.ones(3), np.array([0, 1]), np.array([0, 2]))


class TestExpandBySegments:
    def test_basic(self):
        per_seg = np.array([10.0, 20.0, 30.0])
        indptr = np.array([0, 2, 2, 5])
        out = expand_by_segments(per_seg, indptr)
        assert np.allclose(out, [10, 10, 30, 30, 30])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="segments"):
            expand_by_segments(np.ones(2), np.array([0, 1, 2, 3]))

    def test_roundtrip_with_segment_sums(self):
        rng = np.random.default_rng(1)
        lengths = rng.integers(0, 5, size=20)
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        per_seg = rng.standard_normal(20)
        expanded = expand_by_segments(per_seg, indptr)
        # summing the expansion recovers value * length
        assert np.allclose(segment_sums(expanded, indptr), per_seg * lengths)


class TestSegmentLengths:
    def test_basic(self):
        assert np.array_equal(
            segment_lengths(np.array([0, 3, 3, 7])), [3, 0, 4]
        )


class TestTransposeCompressed:
    def test_roundtrip_identity(self):
        # CSR of a known matrix -> transpose twice -> original
        rng = np.random.default_rng(2)
        dense = (rng.random((7, 5)) < 0.4) * rng.standard_normal((7, 5))
        from repro.sparse import from_dense_csr

        csr = from_dense_csr(dense)
        t_indptr, t_indices, t_data = transpose_compressed(
            csr.indptr, csr.indices, csr.data, 5
        )
        b_indptr, b_indices, b_data = transpose_compressed(
            t_indptr, t_indices, t_data, 7
        )
        assert np.array_equal(b_indptr, csr.indptr)
        assert np.array_equal(b_indices, csr.indices)
        assert np.allclose(b_data, csr.data)

    def test_transpose_matches_dense(self):
        rng = np.random.default_rng(3)
        dense = (rng.random((6, 9)) < 0.5) * rng.standard_normal((6, 9))
        from repro.sparse import CscMatrix, from_dense_csr

        csr = from_dense_csr(dense)
        indptr, indices, data = transpose_compressed(
            csr.indptr, csr.indices, csr.data, 9
        )
        csc = CscMatrix((6, 9), indptr, indices, data)
        assert np.allclose(csc.to_dense(), dense)

    def test_empty_matrix(self):
        indptr, indices, data = transpose_compressed(
            np.array([0, 0, 0]), np.zeros(0, np.int64), np.zeros(0), 4
        )
        assert np.array_equal(indptr, [0, 0, 0, 0, 0])
        assert indices.size == 0


class TestCheckCompressed:
    def _valid(self):
        return (
            np.array([0, 2, 3]),
            np.array([0, 4, 1]),
            np.array([1.0, 2.0, 3.0]),
        )

    def test_valid_passes(self):
        indptr, indices, data = self._valid()
        check_compressed(indptr, indices, data, 2, 5)

    def test_bad_indptr_start(self):
        indptr, indices, data = self._valid()
        indptr = indptr + 1
        with pytest.raises(ValueError, match="start at 0"):
            check_compressed(indptr, indices, data, 2, 5)

    def test_decreasing_indptr(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            check_compressed(
                np.array([0, 3, 2]), np.zeros(2, np.int64), np.zeros(2), 2, 5
            )

    def test_length_mismatch(self):
        indptr, indices, data = self._valid()
        with pytest.raises(ValueError, match="equal length"):
            check_compressed(indptr, indices, data[:-1], 2, 5)

    def test_index_out_of_bounds(self):
        indptr, indices, data = self._valid()
        with pytest.raises(ValueError, match="out of bounds"):
            check_compressed(indptr, indices, data, 2, 3)

    def test_nnz_mismatch(self):
        indptr, indices, data = self._valid()
        with pytest.raises(ValueError, match="nnz"):
            check_compressed(np.array([0, 2, 4]), indices, data, 2, 5)

    def test_wrong_indptr_length(self):
        indptr, indices, data = self._valid()
        with pytest.raises(ValueError, match="n_major"):
            check_compressed(indptr, indices, data, 3, 5)
