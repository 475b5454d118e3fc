"""Microbenchmarks of the out-of-core shard pipeline (repro.shards).

Measures the real host-side costs of the shard data path — pack, cold
reads, warm cache hits, group assembly.  The *modelled* streaming seconds
live in the ledger's ``shard_stream`` phase; these benches time what the
pipeline actually burns on this machine.  The Fig. 10 out-of-core driver's
claims are declared with the driver (``repro.experiments.large_scale``).
"""

import numpy as np
import pytest

from repro.data import make_webspam_like
from repro.shards import (
    Prefetcher,
    ShardCache,
    ShardStore,
    pack_dataset,
)


@pytest.fixture(scope="module")
def bench_dataset():
    return make_webspam_like(4_000, 8_000, nnz_per_example=40, seed=5)


@pytest.fixture(scope="module")
def bench_store(bench_dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("shard-bench")
    pack_dataset(bench_dataset, root, axis="rows", n_shards=16)
    return ShardStore(root)


def test_shard_pack(benchmark, bench_dataset, tmp_path_factory):
    def pack():
        out = tmp_path_factory.mktemp("pack")
        return pack_dataset(bench_dataset, out, axis="rows", n_shards=16)

    manifest = benchmark.pedantic(pack, rounds=3, iterations=1)
    assert manifest.n_shards == 16


def test_shard_cold_read(benchmark, bench_store):
    def cold_pass():
        cache = ShardCache(bench_store)  # fresh cache: every fetch misses
        for s in range(bench_store.n_shards):
            cache.fetch(s)
        return cache

    cache = benchmark.pedantic(cold_pass, rounds=3, iterations=1)
    assert cache.misses == bench_store.n_shards


def test_shard_warm_hit(benchmark, bench_store):
    cache = ShardCache(bench_store)
    for s in range(bench_store.n_shards):
        cache.fetch(s)

    def warm_pass():
        for s in range(bench_store.n_shards):
            cache.fetch(s)

    benchmark(warm_pass)
    assert cache.misses == bench_store.n_shards  # no re-reads


def test_shard_prefetched_pass(benchmark, bench_store):
    def prefetched_pass():
        cache = ShardCache(bench_store)
        with Prefetcher(cache) as pf:
            pf.schedule(range(bench_store.n_shards))
            pf.wait()
            for s in range(bench_store.n_shards):
                cache.fetch(s)
        return cache

    cache = benchmark.pedantic(prefetched_pass, rounds=3, iterations=1)
    assert cache.misses == bench_store.n_shards


def test_shard_assemble_group(benchmark, bench_store, bench_dataset):
    ids = list(range(bench_store.n_shards // 2))
    matrix, _ = benchmark(bench_store.assemble, ids)
    stop = bench_store.handles[ids[-1]].meta.stop
    expect = bench_dataset.csr.take_rows(np.arange(stop))
    assert np.array_equal(matrix.data, expect.data)

