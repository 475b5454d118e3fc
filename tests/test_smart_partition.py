"""Tests for the correlation-aware partitioner."""

import hashlib
from collections import deque

import numpy as np
import pytest

from repro.cluster.smart_partition import (
    communities_of,
    correlation_aware_partition,
    load_proportional_partition,
    make_capacity_partitioner,
    make_correlation_partitioner,
    pack_communities,
    validate_capacities,
)
from repro.core import DistributedSCD
from repro.data import make_block_correlated
from repro.experiments.config import SCALES
from repro.objectives import RidgeProblem
from repro.solvers.scd import SequentialKernelFactory
from repro.sparse import from_dense_csr


@pytest.fixture(scope="module")
def block_data():
    return make_block_correlated(
        600, 800, n_blocks=4, nnz_per_example=10, seed=17
    )


def bfs_communities(indptr, indices, n_coords):
    """Independent oracle: breadth-first search over "share a segment"."""
    segments_of = [[] for _ in range(n_coords)]
    for j in range(len(indptr) - 1):
        for i in indices[indptr[j] : indptr[j + 1]]:
            segments_of[int(i)].append(j)
    seen = [False] * n_coords
    out = []
    for start in range(n_coords):
        if seen[start]:
            continue
        seen[start] = True
        comp, queue = [], deque([start])
        while queue:
            u = queue.popleft()
            comp.append(u)
            for j in segments_of[u]:
                for v in indices[indptr[j] : indptr[j + 1]]:
                    if not seen[int(v)]:
                        seen[int(v)] = True
                        queue.append(int(v))
        out.append(sorted(comp))
    return out


def random_csr(rng, n_rows, n_cols, density):
    dense = np.where(rng.random((n_rows, n_cols)) < density, 1.0, 0.0)
    return from_dense_csr(dense)


class TestCommunities:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("density", [0.0, 0.02, 0.08, 0.3])
    def test_matches_breadth_first_search(self, seed, density):
        rng = np.random.default_rng(seed)
        csr = random_csr(rng, int(rng.integers(1, 40)), int(rng.integers(1, 60)), density)
        got = communities_of(csr.indptr, csr.indices, csr.shape[1])
        want = bfs_communities(csr.indptr, csr.indices, csr.shape[1])
        assert [c.tolist() for c in got] == want
        assert all(c.dtype == np.int64 for c in got)

    def test_rows_join_their_features(self):
        dense = np.zeros((2, 5))
        dense[0, [0, 1, 2]] = 1.0
        dense[1, [3, 4]] = 1.0
        csr = from_dense_csr(dense)
        got = communities_of(csr.indptr, csr.indices, 5)
        assert [c.tolist() for c in got] == [[0, 1, 2], [3, 4]]

    def test_row_longer_than_a_clique_is_one_community(self):
        # longer than the 12-member cliques the old graph builder switched at
        dense = np.zeros((1, 20))
        dense[0, :] = 1.0
        csr = from_dense_csr(dense)
        got = communities_of(csr.indptr, csr.indices, 20)
        assert [c.tolist() for c in got] == [list(range(20))]

    def test_isolated_coordinates_are_singletons(self):
        dense = np.zeros((3, 4))
        dense[0, 2] = 1.0  # single-entry row; rows 1 and 2 are empty segments
        csr = from_dense_csr(dense)
        got = communities_of(csr.indptr, csr.indices, 4)
        assert [c.tolist() for c in got] == [[0], [1], [2], [3]]

    def test_chains_merge_through_shared_coordinates(self):
        # rows {5, 9}, {1, 9}, {1, 0} link 0-1-9-5; {3, 7} stays apart
        rows = [[5, 9], [1, 9], [0, 1], [3, 7]]
        dense = np.zeros((4, 10))
        for r, cols in enumerate(rows):
            dense[r, cols] = 1.0
        csr = from_dense_csr(dense)
        got = communities_of(csr.indptr, csr.indices, 10)
        assert [c.tolist() for c in got] == [[0, 1, 5, 9], [2], [3, 7], [4], [6], [8]]

    def test_block_data_splits_into_blocks(self, block_data):
        csr = block_data.csr
        comms = communities_of(csr.indptr, csr.indices, block_data.n_features)
        # with zero cross-block leakage: >= n_blocks communities (plus
        # possibly isolated never-drawn features)
        big = [c for c in comms if c.shape[0] > 10]
        assert len(big) == 4


def test_ext_smart_partition_partitions_are_frozen():
    """The ext-smart-partition dataset's partitions, bitwise as first recorded."""
    scale = SCALES["tiny"]
    ds = make_block_correlated(
        n_examples=max(600, scale.webspam_n), n_features=1_600, n_blocks=8, seed=17
    )
    digests = {}
    for n_parts in (1, 3, 8):
        parts = make_correlation_partitioner(ds.csr)(
            ds.n_features, n_parts, np.random.default_rng(0)
        )
        h = hashlib.sha256()
        for p in parts:
            h.update(np.int64(p.shape[0]).tobytes())
            h.update(np.ascontiguousarray(p, dtype=np.int64).tobytes())
        digests[n_parts] = h.hexdigest()[:16]
    assert digests == {
        1: "e5e4c7cab0ba4df6",
        3: "8b1806ed9841e1a9",
        8: "0c6a78841c98df5f",
    }


class TestPackCommunities:
    def test_disjoint_cover(self):
        comms = [np.array([0, 1, 2]), np.array([3]), np.array([4, 5])]
        parts = pack_communities(comms, 2)
        combined = np.sort(np.concatenate(parts))
        assert np.array_equal(combined, np.arange(6))

    def test_never_splits_a_community_when_avoidable(self):
        comms = [np.arange(0, 5), np.arange(5, 10), np.arange(10, 15)]
        parts = pack_communities(comms, 3)
        sets = [set(p.tolist()) for p in parts]
        for comm in comms:
            assert any(set(comm.tolist()) <= s for s in sets)

    def test_balances_sizes(self):
        comms = [np.arange(i * 10, (i + 1) * 10) for i in range(8)]
        parts = pack_communities(comms, 4)
        sizes = [p.shape[0] for p in parts]
        assert max(sizes) == min(sizes) == 20

    def test_no_empty_parts(self):
        comms = [np.arange(10)]  # one community, 3 parts
        parts = pack_communities(comms, 3)
        assert all(p.shape[0] >= 1 for p in parts)
        assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(10))

    def test_validation(self):
        with pytest.raises(ValueError, match="n_parts"):
            pack_communities([np.arange(3)], 0)
        with pytest.raises(ValueError, match="cannot fill"):
            pack_communities([np.arange(2)], 5)


class TestEndToEnd:
    def test_partition_covers_all_features(self, block_data):
        csr = block_data.csr
        parts = correlation_aware_partition(
            csr.indptr, csr.indices, block_data.n_features, 4
        )
        combined = np.sort(np.concatenate(parts))
        assert np.array_equal(combined, np.arange(block_data.n_features))

    def test_blocks_stay_together(self, block_data):
        block_size = block_data.n_features // 4
        csr = block_data.csr
        parts = correlation_aware_partition(
            csr.indptr, csr.indices, block_data.n_features, 4
        )
        # every *populated* feature of a block lands on the same worker
        populated = np.zeros(block_data.n_features, dtype=bool)
        populated[csr.indices] = True
        owner = np.full(block_data.n_features, -1)
        for k, p in enumerate(parts):
            owner[p] = k
        for b in range(4):
            blk = np.arange(b * block_size, (b + 1) * block_size)
            owners = np.unique(owner[blk[populated[blk]]])
            assert owners.shape[0] == 1

    def test_partitioner_adapter_signature(self, block_data):
        part = make_correlation_partitioner(block_data.csr)
        parts = part(block_data.n_features, 4, np.random.default_rng(0))
        assert len(parts) == 4

    def test_partitioner_adapter_validates_count(self, block_data):
        part = make_correlation_partitioner(block_data.csr)
        with pytest.raises(ValueError, match="partitioner built for"):
            part(17, 4, np.random.default_rng(0))

    def test_improves_distributed_convergence(self, block_data):
        """The [22] claim: smart partitioning + adaptive aggregation beats
        random partitioning per epoch on block-structured data."""
        problem = RidgeProblem(block_data, 5e-3)
        results = {}
        for label, part in (
            ("random", None),
            ("smart", make_correlation_partitioner(block_data.csr)),
        ):
            eng = DistributedSCD(
                SequentialKernelFactory(),
                "primal",
                n_workers=4,
                aggregation="adaptive",
                seed=3,
                partitioner=part,
            )
            results[label] = eng.solve(problem, 8).history.final_gap()
        assert results["smart"] < results["random"]


class TestLoadProportionalPartition:
    """Degenerate capacity inputs raise pointed errors, never empty shards."""

    def test_zero_capacity_rank_rejected(self):
        with pytest.raises(ValueError, match="zero or non-positive capacity"):
            load_proportional_partition(
                100, [2.0, 0.0, 1.0], np.random.default_rng(0)
            )
        with pytest.raises(ValueError, match=r"rank\(s\) \[1, 2\]"):
            validate_capacities([1.0, -3.0, 0.0], 100)

    def test_more_ranks_than_rows_rejected(self):
        with pytest.raises(ValueError, match="more ranks than rows"):
            load_proportional_partition(
                3, [1.0, 1.0, 1.0, 1.0], np.random.default_rng(0)
            )

    def test_empty_capacities_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            validate_capacities([], 10)

    def test_shares_track_capacity(self):
        parts = load_proportional_partition(
            120, [3.0, 1.0], np.random.default_rng(0)
        )
        assert len(parts[0]) == 90 and len(parts[1]) == 30
        owned = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(owned, np.arange(120))

    def test_every_rank_gets_work_under_extreme_skew(self):
        parts = load_proportional_partition(
            50, [1000.0, 1.0, 1.0], np.random.default_rng(0)
        )
        assert all(len(p) >= 1 for p in parts)

    def test_capacity_partitioner_adapter(self):
        part = make_capacity_partitioner([2.0, 1.0])
        parts = part(90, 2, np.random.default_rng(0))
        assert len(parts[0]) == 60
        with pytest.raises(ValueError, match="built for 2 ranks"):
            part(90, 3, np.random.default_rng(0))

    def test_pack_communities_capacity_weighted(self):
        comms = [np.array([i]) for i in range(30)]
        parts = pack_communities(comms, 2, capacities=[2.0, 1.0])
        assert len(parts[0]) == 20 and len(parts[1]) == 10

    def test_pack_communities_capacity_count_mismatch(self):
        comms = [np.array([i]) for i in range(10)]
        with pytest.raises(ValueError, match="2 capacities for 3 parts"):
            pack_communities(comms, 3, capacities=[1.0, 1.0])
