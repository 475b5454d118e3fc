"""Tests for the out-of-core shard subsystem (repro.shards).

The load-bearing guarantee under test: training from shards is bit-identical
to in-memory training — for sequential SCD, TPA-SCD, and the distributed
engines in both formulations — even when the cache budget forces evictions
and when injected shard-read faults are retried.  Streaming only changes
*when time is billed*, never *what is computed*.
"""

import json
import sys
import threading
import zlib

import numpy as np
import pytest

from repro.cluster import shard_aligned_partition
from repro.cluster.faults import FaultSpec, RetryPolicy
from repro.core.distributed import DistributedSCD
from repro.core.distributed_svm import DistributedSvm
from repro.core.tpa_scd import TpaScdKernelFactory
from repro.data import make_webspam_like
from repro.gpu.memory import DeviceMemory
from repro.gpu.spec import GTX_TITAN_X
from repro.objectives.ridge import RidgeProblem
from repro.objectives.svm import SvmProblem
from repro.obs import Tracer
from repro.perf.ledger import PAPER_COMPONENTS, TimeLedger
from repro.shards import (
    ShardCache,
    ShardingConfig,
    ShardReadError,
    ShardStore,
    ShardStreamer,
    pack_dataset,
)
from repro.shards.format import (
    MANIFEST_NAME,
    SHARD_SCHEMA,
    _crc_arrays,
    load_manifest,
)
from repro.solvers import SequentialSCD
from repro.sparse.ops import check_compressed
from repro.solvers.scd import SequentialKernelFactory


@pytest.fixture
def dataset():
    return make_webspam_like(120, 300, nnz_per_example=10, seed=21)


@pytest.fixture
def rows_store(dataset, tmp_path):
    pack_dataset(dataset, tmp_path / "rows", axis="rows", n_shards=6)
    return ShardStore(tmp_path / "rows")


@pytest.fixture
def cols_store(dataset, tmp_path):
    pack_dataset(dataset, tmp_path / "cols", axis="cols", n_shards=6)
    return ShardStore(tmp_path / "cols")


def _spans_named(tracer, name):
    found = []

    def walk(span):
        if span.name == name:
            found.append(span)
        for child in span.children:
            walk(child)

    for root in tracer.roots:
        walk(root)
    return found


class TestPackFormat:
    def test_manifest_round_trip(self, dataset, tmp_path):
        manifest = pack_dataset(dataset, tmp_path, axis="rows", n_shards=4)
        loaded = load_manifest(tmp_path)
        assert loaded == manifest
        assert loaded.axis == "rows"
        assert loaded.shape == dataset.csr.shape
        assert loaded.n_shards == 4
        payload = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert payload["schema"] == SHARD_SCHEMA

    def test_shards_tile_major_axis(self, dataset, tmp_path):
        manifest = pack_dataset(dataset, tmp_path, axis="rows", n_shards=5)
        bounds = [(s.start, s.stop) for s in manifest.shards]
        assert bounds[0][0] == 0
        assert bounds[-1][1] == dataset.n_examples
        for (_, stop), (start, _) in zip(bounds[:-1], bounds[1:]):
            assert stop == start

    def test_byte_balanced_cuts(self, dataset, tmp_path):
        manifest = pack_dataset(dataset, tmp_path, axis="rows", n_shards=6)
        sizes = np.asarray([s.nbytes for s in manifest.shards])
        # near-equal byte sizes: no shard more than 2x the mean
        assert sizes.max() < 2 * sizes.mean()
        assert manifest.total_nbytes == int(sizes.sum())

    def test_target_shard_bytes(self, dataset, tmp_path):
        total = dataset.csr.nbytes
        manifest = pack_dataset(
            dataset, tmp_path, axis="rows", target_shard_bytes=total // 3
        )
        assert manifest.n_shards >= 3

    def test_cols_axis_uses_csc(self, dataset, tmp_path):
        manifest = pack_dataset(dataset, tmp_path, axis="cols", n_shards=4)
        assert manifest.n_major == dataset.n_features
        store = ShardStore(tmp_path)
        assert store.read(0).matrix.shape[0] == dataset.n_examples

    def test_labels_stored_once(self, dataset, tmp_path):
        pack_dataset(dataset, tmp_path, axis="rows", n_shards=3)
        store = ShardStore(tmp_path)
        assert np.array_equal(store.y, dataset.y)

    def test_bad_axis_rejected(self, dataset, tmp_path):
        with pytest.raises(ValueError, match="axis"):
            pack_dataset(dataset, tmp_path, axis="diag")

    def test_conflicting_size_args_rejected(self, dataset, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            pack_dataset(
                dataset, tmp_path, n_shards=2, target_shard_bytes=100
            )

    def test_shard_count_capped_at_n_major(self, dataset, tmp_path):
        manifest = pack_dataset(dataset, tmp_path, axis="rows", n_shards=10_000)
        assert manifest.n_shards == dataset.n_examples

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not a shard set"):
            load_manifest(tmp_path)

    def test_wrong_schema_rejected(self, dataset, tmp_path):
        pack_dataset(dataset, tmp_path, n_shards=2)
        path = tmp_path / MANIFEST_NAME
        payload = json.loads(path.read_text())
        payload["schema"] = "repro.shards/v99"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema"):
            load_manifest(tmp_path)

    def test_non_tiling_shards_rejected(self, dataset, tmp_path):
        pack_dataset(dataset, tmp_path, n_shards=2)
        path = tmp_path / MANIFEST_NAME
        payload = json.loads(path.read_text())
        payload["shards"][0]["stop"] -= 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="tile"):
            load_manifest(tmp_path)


class TestShardStore:
    def test_full_round_trip_bitwise(self, dataset, rows_store):
        loaded = rows_store.load_dataset()
        csr = dataset.csr
        assert np.array_equal(loaded.csr.indptr, csr.indptr)
        assert np.array_equal(loaded.csr.indices, csr.indices)
        assert np.array_equal(loaded.csr.data, csr.data)
        assert np.array_equal(loaded.y, dataset.y)
        assert loaded.name == dataset.name

    def test_assemble_equals_take_major(self, dataset, rows_store):
        ids = [1, 2, 3]
        start = rows_store.handles[1].meta.start
        stop = rows_store.handles[3].meta.stop
        matrix, failures = rows_store.assemble(ids)
        expect = dataset.csr.take_rows(np.arange(start, stop))
        assert failures == 0
        assert np.array_equal(matrix.indptr, expect.indptr)
        assert np.array_equal(matrix.indices, expect.indices)
        assert np.array_equal(matrix.data, expect.data)

    def test_assemble_rejects_gaps_and_empty(self, rows_store):
        with pytest.raises(ValueError, match="contiguous"):
            rows_store.assemble([0, 2])
        with pytest.raises(ValueError, match="empty"):
            rows_store.assemble([])

    def test_partition_contiguous_and_complete(self, rows_store):
        for k in (1, 2, 3, 6):
            groups = rows_store.partition(k)
            assert len(groups) == k
            flat = [s for g in groups for s in g]
            assert flat == list(range(rows_store.n_shards))
            assert all(g for g in groups)

    def test_partition_bounds_checked(self, rows_store):
        with pytest.raises(ValueError, match="split"):
            rows_store.partition(0)
        with pytest.raises(ValueError, match="split"):
            rows_store.partition(rows_store.n_shards + 1)

    def test_coords_of(self, rows_store):
        coords = rows_store.coords_of([0, 1])
        stop = rows_store.handles[1].meta.stop
        assert np.array_equal(coords, np.arange(stop))

    def test_checksum_verification_catches_corruption(self, dataset, tmp_path):
        manifest = pack_dataset(dataset, tmp_path, n_shards=3)
        shard_file = tmp_path / manifest.shards[1].path
        raw = bytearray(shard_file.read_bytes())
        raw[-1] ^= 0x01  # silent corruption: right size, wrong bytes
        shard_file.write_bytes(bytes(raw))
        store = ShardStore(tmp_path)
        store.read(0)  # untouched shard still verifies
        with pytest.raises(ShardReadError, match="checksum"):
            store.read(1)


class TestShardFileFormat:
    """The v2 layout: one raw ``indptr ‖ indices ‖ data`` file per shard."""

    @pytest.mark.parametrize("verify", [True, False])
    @pytest.mark.parametrize("delta", [-1, 1], ids=["truncated", "too-long"])
    def test_wrong_file_size_rejected(self, dataset, tmp_path, verify, delta):
        manifest = pack_dataset(dataset, tmp_path, n_shards=3)
        meta = manifest.shards[2]
        shard_file = tmp_path / meta.path
        raw = shard_file.read_bytes()
        shard_file.write_bytes(raw[:-1] if delta < 0 else raw + b"\0")
        store = ShardStore(tmp_path, verify_checksums=verify)
        actual = meta.nbytes + delta
        with pytest.raises(
            ShardReadError, match=rf"holds {actual} bytes.*expects {meta.nbytes}"
        ):
            store.read(2)

    def test_v1_manifest_rejected(self, dataset, tmp_path):
        pack_dataset(dataset, tmp_path, n_shards=2)
        path = tmp_path / MANIFEST_NAME
        payload = json.loads(path.read_text())
        payload["schema"] = "repro.shards/v1"
        path.write_text(json.dumps(payload))
        with pytest.raises(
            ValueError, match=r"'repro\.shards/v1'.*re-pack.*repro shards pack"
        ):
            ShardStore(tmp_path)

    def test_foreign_byte_order_rejected(self, dataset, tmp_path):
        pack_dataset(dataset, tmp_path, n_shards=2)
        path = tmp_path / MANIFEST_NAME
        payload = json.loads(path.read_text())
        native = payload["dtypes"]["data"]
        swapped = np.dtype(native).newbyteorder("S").str
        assert swapped != native
        payload["dtypes"]["data"] = swapped
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=rf"'data'.*{swapped}.*byte order"):
            ShardStore(tmp_path)

    def test_inconsistent_shard_lengths_rejected(self, dataset, tmp_path):
        pack_dataset(dataset, tmp_path, n_shards=2)
        path = tmp_path / MANIFEST_NAME
        payload = json.loads(path.read_text())
        payload["shards"][1]["nnz"] -= 1  # nbytes and the file disagree now
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="shard 1 records"):
            ShardStore(tmp_path)

    def test_manifest_records_dtypes_with_byte_order(self, dataset, tmp_path):
        pack_dataset(dataset, tmp_path, n_shards=2)
        payload = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert payload["schema"] == "repro.shards/v2"
        assert payload["dtypes"] == {
            "indptr": np.dtype(np.int64).str,
            "indices": dataset.csr.indices.dtype.str,
            "data": dataset.csr.data.dtype.str,
        }
        assert all(s["path"].endswith(".bin") for s in payload["shards"])

    def test_crc_equals_chained_array_crc(self, dataset, tmp_path):
        manifest = pack_dataset(dataset, tmp_path, n_shards=4)
        csr = dataset.csr
        for meta in manifest.shards:
            lo, hi = csr.indptr[meta.start], csr.indptr[meta.stop]
            arrays = (
                csr.indptr[meta.start : meta.stop + 1] - lo,
                csr.indices[lo:hi],
                csr.data[lo:hi],
            )
            chained = 0
            for arr in arrays:  # the v1 manifest's checksum
                chained = zlib.crc32(arr.tobytes(), chained)
            assert meta.crc32 == chained == _crc_arrays(*arrays)
            file_bytes = (tmp_path / meta.path).read_bytes()
            assert zlib.crc32(file_bytes) == meta.crc32
            assert len(file_bytes) == meta.nbytes

    @pytest.mark.parametrize("axis", ["rows", "cols"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_reads_equal_take_major(self, dataset, tmp_path, axis, dtype):
        ds = dataset.astype(dtype)
        pack_dataset(ds, tmp_path, axis=axis, n_shards=5)
        matrix = ds.csr if axis == "rows" else ds.csc
        store = ShardStore(tmp_path)
        for handle in store.handles:
            got = store.read(handle.shard_id).matrix
            expect = matrix.take_major(handle.coords())
            assert type(got) is type(expect)
            assert got.shape == expect.shape
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(expect, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name
                assert a.flags.aligned and a.flags.c_contiguous, name
            # built with check=False; the structure is still valid
            check_compressed(
                got.indptr, got.indices, got.data, got.n_major, got.n_minor
            )

    def test_checksums_verified_by_default(self, rows_store):
        assert rows_store.verify_checksums


class TestShardReadFaults:
    def test_fault_schedule_is_deterministic(self, dataset, tmp_path):
        pack_dataset(dataset, tmp_path, n_shards=4)
        spec = FaultSpec(shard_read_failure_rate=0.5, seed=3)
        runs = []
        for _ in range(2):
            store = ShardStore(tmp_path, faults=spec)
            runs.append(
                [store.read(s).read_failures for s in range(4) for _ in range(3)]
            )
        assert runs[0] == runs[1]
        assert sum(runs[0]) > 0

    def test_retried_reads_still_bitwise_exact(self, dataset, tmp_path):
        pack_dataset(dataset, tmp_path, n_shards=4)
        clean = ShardStore(tmp_path).load_dataset()
        faulty = ShardStore(
            tmp_path, faults=FaultSpec(shard_read_failure_rate=0.4, seed=5)
        ).load_dataset()
        assert np.array_equal(clean.csr.data, faulty.csr.data)
        assert np.array_equal(clean.csr.indices, faulty.csr.indices)

    def test_exhausted_retries_raise(self, dataset, tmp_path):
        pack_dataset(dataset, tmp_path, n_shards=2)
        store = ShardStore(
            tmp_path,
            faults=FaultSpec(
                shard_read_failure_rate=1.0,
                max_consecutive_failures=10,
                seed=0,
            ),
            retry=RetryPolicy(max_retries=2),
        )
        with pytest.raises(ShardReadError, match="read failed"):
            store.read(0)

    def test_flaky_disk_scenario_registered(self):
        from repro.cluster.faults import SCENARIOS

        assert SCENARIOS["flaky-disk"].shard_read_failure_rate > 0
        assert not SCENARIOS["flaky-disk"].is_null


class TestShardCache:
    def test_miss_then_hit(self, rows_store):
        cache = ShardCache(rows_store)
        first = cache.fetch(0)
        second = cache.fetch(0)
        assert not first.hit and first.loaded
        assert second.hit and not second.loaded
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 1

    def test_lru_eviction_under_budget(self, rows_store):
        two = rows_store.handles[0].nbytes + rows_store.handles[1].nbytes
        cache = ShardCache(rows_store, budget_bytes=two + 16)
        cache.fetch(0)
        cache.fetch(1)
        cache.fetch(2)  # evicts 0 (least recently used)
        assert not cache.contains(0)
        assert cache.contains(1) and cache.contains(2)
        assert cache.evictions >= 1
        assert cache.used_bytes <= two + 16

    def test_touch_refreshes_lru_order(self, rows_store):
        # budget fits any two shards but never three
        two = 2 * max(h.nbytes for h in rows_store.handles)
        cache = ShardCache(rows_store, budget_bytes=two + 16)
        cache.fetch(0)
        cache.fetch(1)
        cache.fetch(0)  # 1 becomes the LRU victim
        cache.fetch(2)
        assert cache.contains(0)
        assert not cache.contains(1)

    def test_oversized_shard_served_transient(self, rows_store):
        cache = ShardCache(rows_store, budget_bytes=8)  # smaller than any shard
        lookup = cache.fetch(0)
        assert lookup.loaded
        assert not cache.contains(0)
        assert cache.used_bytes == 0

    def test_byte_scale_bills_paper_footprint(self, rows_store):
        cache = ShardCache(rows_store, byte_scale=1000.0)
        assert cache.billed_bytes(0) == 1000 * rows_store.handles[0].nbytes

    def test_device_backed_residency(self, rows_store):
        cache = ShardCache(rows_store)
        budget = rows_store.handles[0].nbytes + rows_store.handles[1].nbytes
        device = DeviceMemory(budget + 16)
        cache.attach_device(device)
        cache.fetch(0)
        assert device.used_bytes == cache.used_bytes > 0
        cache.fetch(1)
        cache.fetch(2)  # must evict 0 and free its device allocation
        assert not cache.contains(0)
        names = set(device.buffers())
        assert any(name.endswith(":2") for name in names)
        assert not any(name.endswith(":0") for name in names)
        cache.clear()
        assert device.used_bytes == 0

    def test_attach_device_requires_empty_cache(self, rows_store):
        cache = ShardCache(rows_store)
        cache.fetch(0)
        with pytest.raises(RuntimeError, match="empty"):
            cache.attach_device(DeviceMemory(10**9))

    def test_cache_metrics_counted(self, rows_store):
        tracer = Tracer()
        cache = ShardCache(
            rows_store, budget_bytes=rows_store.handles[0].nbytes + 16,
            tracer=tracer,
        )
        cache.fetch(0)
        cache.fetch(0)
        cache.fetch(1)
        m = tracer.metrics
        assert m.counter("shards.cache.miss") == 2
        assert m.counter("shards.cache.hit") == 1
        assert m.counter("shards.cache.evict") == 1
        assert m.counter("shards.cache.bytes_read") > 0
        assert len(_spans_named(tracer, "shard.load")) == 2
        assert len(_spans_named(tracer, "shard.evict")) == 1


class TestShardStreamer:
    def test_assemble_matches_in_memory(self, dataset, rows_store):
        cfg = ShardingConfig(rows_store)
        with ShardStreamer(cfg, [2, 3]) as streamer:
            matrix = streamer.assemble()
        start = rows_store.handles[2].meta.start
        stop = rows_store.handles[3].meta.stop
        expect = dataset.csr.take_rows(np.arange(start, stop))
        assert np.array_equal(matrix.data, expect.data)
        assert np.array_equal(streamer.coords(), np.arange(start, stop))

    def test_stream_epoch_books_ledger(self, rows_store):
        cfg = ShardingConfig(rows_store)
        ledger = TimeLedger()
        with ShardStreamer(cfg, [0, 1, 2]) as streamer:
            added = streamer.stream_epoch(ledger)
        assert added > 0
        assert ledger.get("shard_stream") == pytest.approx(added)
        assert ledger.get("shard_retry") == 0.0

    def test_warm_cache_streams_free(self, rows_store):
        cfg = ShardingConfig(rows_store)  # unbounded cache
        ledger = TimeLedger()
        with ShardStreamer(cfg, [0, 1]) as streamer:
            streamer.stream_epoch(ledger)
            first = ledger.get("shard_stream")
            added = streamer.stream_epoch(ledger)
        # everything stayed resident: the second pass costs nothing
        assert added == 0.0
        assert ledger.get("shard_stream") == first

    def test_prefetch_hides_streaming_under_compute(self, rows_store):
        ledger = TimeLedger()
        cfg = ShardingConfig(
            rows_store,
            cache_budget_bytes=rows_store.handles[0].nbytes + 16,
        )
        with ShardStreamer(cfg, [0, 1, 2]) as streamer:
            serial = streamer.stream_epoch(ledger, compute_s=100.0)
        assert serial > 0  # without prefetch, streaming serializes

        cfg_pf = ShardingConfig(
            rows_store,
            cache_budget_bytes=2 * max(h.nbytes for h in rows_store.handles)
            + 16,
            prefetch=True,
        )
        with ShardStreamer(cfg_pf, [0, 1, 2]) as streamer:
            overlapped = streamer.stream_epoch(ledger, compute_s=100.0)
        assert overlapped == 0.0  # fully hidden under 100 s of compute

    def test_simulated_total_nbytes_scales_billing(self, rows_store):
        paper = 1000 * rows_store.total_nbytes
        cfg = ShardingConfig(rows_store, simulated_total_nbytes=paper)
        assert cfg.byte_scale == pytest.approx(1000.0)
        ledger = TimeLedger()
        with ShardStreamer(cfg, [0, 1]) as streamer:
            streamer.stream_epoch(ledger)
        expect = sum(
            cfg.link.transfer_seconds(
                round(1000.0 * rows_store.handles[i].nbytes)
            )
            for i in (0, 1)
        )
        assert ledger.get("shard_stream") == pytest.approx(expect)

    def test_empty_group_rejected(self, rows_store):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardStreamer(ShardingConfig(rows_store), [])

    @pytest.mark.parametrize("prefetch", [False, True])
    def test_each_disk_read_billed_exactly_once(self, rows_store, prefetch):
        # a budget of one shard: every pass re-reads all three
        cfg = ShardingConfig(
            rows_store,
            cache_budget_bytes=max(h.nbytes for h in rows_store.handles) + 16,
            prefetch=prefetch,
        )
        ids = [0, 1, 2]
        per_pass = sum(
            cfg.link.transfer_seconds(cfg.store.handles[i].nbytes) for i in ids
        )
        ledger = TimeLedger()
        with ShardStreamer(cfg, ids) as streamer:
            for epoch in range(3):
                streamer.begin_epoch()
                streamer.stream_epoch(ledger)
                assert streamer.cache.misses == 3 * (epoch + 1)
            assert streamer.cache.hits == 0
        assert ledger.get("shard_stream") == pytest.approx(3 * per_pass)

    def test_warm_pass_costs_nothing_with_prefetch(self, rows_store):
        cfg = ShardingConfig(rows_store, prefetch=True)  # unbounded
        ledger = TimeLedger()
        with ShardStreamer(cfg, [0, 1]) as streamer:
            streamer.begin_epoch()
            first = streamer.stream_epoch(ledger, compute_s=0.0)
            streamer.begin_epoch()
            second = streamer.stream_epoch(ledger, compute_s=0.0)
            assert first > 0 and second == 0.0
            assert streamer.cache.stats()["hits"] == 2
            assert streamer.cache.stats()["misses"] == 2

    def test_begin_epoch_without_prefetch_reads_nothing(self, rows_store):
        with ShardStreamer(ShardingConfig(rows_store), [0, 1]) as streamer:
            streamer.begin_epoch()
            assert streamer.cache.misses == 0
            streamer.stream_epoch(TimeLedger())
            assert streamer.cache.misses == 2

    def test_pass_runs_on_the_streamer_thread(self, rows_store, monkeypatch):
        readers = []
        read = ShardStore.read

        def spy(store, shard_id):
            readers.append(threading.current_thread())
            return read(store, shard_id)

        monkeypatch.setattr(ShardStore, "read", spy)
        cfg = ShardingConfig(rows_store, prefetch=True)
        with ShardStreamer(cfg, [0, 1], worker=3) as streamer:
            streamer.begin_epoch()
            streamer.stream_epoch(TimeLedger())
        assert [t.name for t in readers] == ["shard-stream-3"] * 2
        assert threading.main_thread() not in readers

    def test_prefetch_pass_records_counters_not_spans(self, rows_store):
        # the tracer's span stack is single-threaded: the streamer's thread
        # must only count
        tracer = Tracer()
        cfg = ShardingConfig(rows_store, prefetch=True)
        with ShardStreamer(cfg, [0, 1], tracer=tracer) as streamer:
            streamer.begin_epoch()
            streamer.stream_epoch(TimeLedger())
        assert tracer.metrics.counter("shards.cache.miss") == 2
        assert _spans_named(tracer, "shard.load") == []


class TestStreamerThread:
    """The prefetch pass's failure paths and thread lifetime."""

    @staticmethod
    def _failing_store(tmp_path, dataset):
        pack_dataset(dataset, tmp_path, axis="rows", n_shards=4)
        return ShardStore(
            tmp_path,
            faults=FaultSpec(
                shard_read_failure_rate=1.0,
                max_consecutive_failures=10,
                seed=0,
            ),
            retry=RetryPolicy(max_retries=1),
        )

    def test_background_read_error_reraised_like_foreground(
        self, dataset, tmp_path
    ):
        errors = {}
        for prefetch in (False, True):
            store = self._failing_store(tmp_path / str(prefetch), dataset)
            cfg = ShardingConfig(store, prefetch=prefetch)
            ledger = TimeLedger()
            with ShardStreamer(cfg, [1, 2]) as streamer:
                streamer.begin_epoch()
                with pytest.raises(ShardReadError) as info:
                    streamer.stream_epoch(ledger)
            errors[prefetch] = info.value
            assert ledger.get("shard_stream") == 0.0
        assert type(errors[True]) is type(errors[False])
        assert str(errors[True]) == str(errors[False])
        assert "read failed" in str(errors[True])

    def test_close_joins_pending_pass(self, rows_store):
        before = set(threading.enumerate())
        streamer = ShardStreamer(ShardingConfig(rows_store, prefetch=True), [0, 1, 2])
        streamer.begin_epoch()
        streamer.close()
        assert set(threading.enumerate()) <= before
        assert streamer.cache.misses == 3  # the pass ran to completion
        streamer.close()  # idempotent

    def test_close_drops_a_failed_pass(self, dataset, tmp_path):
        store = self._failing_store(tmp_path, dataset)
        streamer = ShardStreamer(ShardingConfig(store, prefetch=True), [0])
        streamer.begin_epoch()
        streamer.close()  # the error is not re-raised from close

    @staticmethod
    def _engine(store, **kwargs):
        budget = 2 * max(h.nbytes for h in store.handles) + 16
        return DistributedSCD(
            lambda rank: TpaScdKernelFactory(GTX_TITAN_X, wave_size=4),
            "dual",
            n_workers=2,
            seed=4,
            shards=ShardingConfig(
                store, cache_budget_bytes=budget, prefetch=True
            ),
            **kwargs,
        )

    def test_no_thread_outlives_solve(self, dataset, rows_store):
        before = set(threading.enumerate())
        self._engine(rows_store).solve(RidgeProblem(dataset, 5e-3), 3)
        assert set(threading.enumerate()) <= before

    def test_failing_local_round_still_joins_pass(
        self, dataset, rows_store, monkeypatch
    ):
        from repro.core.distributed import _ScdWorkerPool

        engine = self._engine(rows_store)
        streamers = []

        def boom(pool, rank, shared):
            streamers.append(pool.streamer(rank))
            raise RuntimeError("local round failed")

        monkeypatch.setattr(_ScdWorkerPool, "local_round", boom)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="local round failed"):
            engine.solve(RidgeProblem(dataset, 5e-3), 3)
        assert set(threading.enumerate()) <= before
        # the pass begun before the failing round read its whole group
        (streamer,) = streamers
        assert streamer.cache.misses == len(streamer.shard_ids)

    def test_failing_pass_surfaces_from_solve(self, dataset, tmp_path):
        store = self._failing_store(tmp_path, dataset)
        before = set(threading.enumerate())
        with pytest.raises(ShardReadError, match="read failed"):
            self._engine(store).solve(RidgeProblem(dataset, 5e-3), 3)
        assert set(threading.enumerate()) <= before


class TestDeterministicAccounting:
    """Prefetch changes when reads happen, never what is counted or billed."""

    COUNTERS = ("shards.cache.miss", "shards.cache.hit", "shards.cache.evict")

    def _run(self, dataset, store, prefetch):
        tracer = Tracer()
        # each worker streams 3 shards through a 2-shard budget: evicts
        budget = 2 * max(h.nbytes for h in store.handles) + 16
        result = DistributedSCD(
            SequentialKernelFactory(),
            "dual",
            n_workers=2,
            seed=4,
            shards=ShardingConfig(
                store, cache_budget_bytes=budget, prefetch=prefetch
            ),
        ).solve(RidgeProblem(dataset, 5e-3), 6, tracer=tracer)
        counters = {n: tracer.metrics.counter(n) for n in self.COUNTERS}
        phases = {p: result.ledger.get(p) for p in ("shard_stream", "shard_retry")}
        return counters, phases, result.weights

    @pytest.mark.parametrize(
        "faults", [None, FaultSpec(shard_read_failure_rate=0.3, seed=9)]
    )
    def test_counters_ledger_and_weights_identical(self, dataset, tmp_path, faults):
        pack_dataset(dataset, tmp_path, axis="rows", n_shards=6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            runs = [
                self._run(dataset, ShardStore(tmp_path, faults=faults), prefetch)
                for prefetch in (True, True, False)
            ]
        finally:
            sys.setswitchinterval(interval)
        counters, phases, weights = runs[0]
        assert counters["shards.cache.miss"] == 6 * 6  # 6 epochs x 6 shards
        assert counters["shards.cache.evict"] > 0
        if faults is not None:
            assert phases["shard_retry"] > 0
        for other in runs[1:]:
            assert other[0] == counters
            assert other[1] == phases
            assert np.array_equal(other[2], weights)

    def test_fig10_outofcore_misses_every_shard_every_epoch(self):
        from repro.experiments.config import SCALES
        from repro.experiments.large_scale import run_fig10_outofcore
        from repro.obs import use_tracer

        # traced with a real tracer: the streamer thread must open no spans
        for _ in range(3):
            tracer = Tracer()
            with use_tracer(tracer):
                fig = run_fig10_outofcore(SCALES["tiny"])
            assert fig.meta["cache_misses"] == fig.meta["n_epochs"] * 8
            assert fig.meta["bit_identical"]
            assert _spans_named(tracer, "shard.load")  # bind-time reads


class TestShardAlignedPartition:
    def test_matches_store_groups(self, rows_store):
        part = shard_aligned_partition(rows_store)
        rng = np.random.default_rng(0)
        parts = part(rows_store.n_major, 3, rng)
        groups = rows_store.partition(3)
        for coords, group in zip(parts, groups):
            assert np.array_equal(coords, rows_store.coords_of(group))

    def test_wrong_size_rejected(self, rows_store):
        part = shard_aligned_partition(rows_store)
        with pytest.raises(ValueError, match="coordinates"):
            part(rows_store.n_major + 1, 2, np.random.default_rng(0))


class TestBitIdentity:
    """Out-of-core trajectories must equal in-memory ones, bit for bit."""

    def test_sequential_scd_from_shards(self, dataset, rows_store):
        mem = SequentialSCD("dual", seed=3).solve(RidgeProblem(dataset, 5e-3), 6)
        ooc = SequentialSCD("dual", seed=3).solve(
            RidgeProblem(rows_store.load_dataset(), 5e-3), 6
        )
        assert np.array_equal(mem.weights, ooc.weights)
        assert mem.history.gaps == pytest.approx(ooc.history.gaps, abs=0)

    @pytest.mark.parametrize("formulation", ["primal", "dual"])
    def test_distributed_scd(self, dataset, formulation, rows_store, cols_store):
        store = cols_store if formulation == "primal" else rows_store
        problem = RidgeProblem(dataset, 5e-3)
        mem = DistributedSCD(
            SequentialKernelFactory(),
            formulation,
            n_workers=3,
            seed=11,
            partitioner=shard_aligned_partition(store),
        ).solve(problem, 5)
        budget = 2 * max(h.nbytes for h in store.handles) + 16
        engine = DistributedSCD(
            SequentialKernelFactory(),
            formulation,
            n_workers=3,
            seed=11,
            shards=ShardingConfig(store, cache_budget_bytes=budget),
        )
        ooc = engine.solve(problem, 5)
        assert np.array_equal(mem.weights, ooc.weights)
        assert mem.history.gaps == pytest.approx(ooc.history.gaps, abs=0)
        assert ooc.ledger.get("shard_stream") > 0

    def test_distributed_scd_with_evictions_and_prefetch(
        self, dataset, rows_store
    ):
        problem = RidgeProblem(dataset, 5e-3)
        mem = DistributedSCD(
            SequentialKernelFactory(),
            "dual",
            n_workers=2,
            seed=4,
            partitioner=shard_aligned_partition(rows_store),
        ).solve(problem, 5)
        tracer = Tracer()
        budget = 2 * max(h.nbytes for h in rows_store.handles) + 16
        ooc = DistributedSCD(
            SequentialKernelFactory(),
            "dual",
            n_workers=2,
            seed=4,
            shards=ShardingConfig(
                rows_store, cache_budget_bytes=budget, prefetch=True
            ),
        ).solve(problem, 5, tracer=tracer)
        assert np.array_equal(mem.weights, ooc.weights)
        # each worker streams 3 shards through a 2-shard budget: must evict
        assert tracer.metrics.counter("shards.cache.evict") > 0
        assert tracer.metrics.counter("shards.cache.miss") > 0

    def test_distributed_scd_with_shard_read_faults(self, dataset, tmp_path):
        pack_dataset(dataset, tmp_path, axis="rows", n_shards=6)
        clean_store = ShardStore(tmp_path)
        problem = RidgeProblem(dataset, 5e-3)
        mem = DistributedSCD(
            SequentialKernelFactory(),
            "dual",
            n_workers=2,
            seed=4,
            partitioner=shard_aligned_partition(clean_store),
        ).solve(problem, 5)
        faulty_store = ShardStore(
            tmp_path, faults=FaultSpec(shard_read_failure_rate=0.3, seed=9)
        )
        budget = 2 * max(h.nbytes for h in faulty_store.handles) + 16
        ooc = DistributedSCD(
            SequentialKernelFactory(),
            "dual",
            n_workers=2,
            seed=4,
            shards=ShardingConfig(faulty_store, cache_budget_bytes=budget),
        ).solve(problem, 5)
        assert np.array_equal(mem.weights, ooc.weights)
        assert ooc.ledger.get("shard_retry") > 0  # faults billed, not fatal

    def test_tpa_scd_out_of_core_on_device(self, dataset, rows_store):
        problem = RidgeProblem(dataset, 5e-3)
        mem = DistributedSCD(
            lambda rank: TpaScdKernelFactory(GTX_TITAN_X, wave_size=4),
            "dual",
            n_workers=2,
            seed=6,
            partitioner=shard_aligned_partition(rows_store),
        ).solve(problem, 4)
        ooc = DistributedSCD(
            lambda rank: TpaScdKernelFactory(GTX_TITAN_X, wave_size=4),
            "dual",
            n_workers=2,
            seed=6,
            shards=ShardingConfig(rows_store),
        ).solve(problem, 4)
        assert np.array_equal(mem.weights, ooc.weights)
        assert ooc.ledger.get("shard_stream") > 0

    def test_distributed_svm(self, dataset, tmp_path):
        labels = np.where(dataset.y >= np.median(dataset.y), 1.0, -1.0)
        ds = type(dataset)(matrix=dataset.matrix, y=labels, name=dataset.name)
        pack_dataset(ds, tmp_path / "svm", axis="rows", n_shards=5)
        store = ShardStore(tmp_path / "svm")
        problem = SvmProblem(ds, 1e-2)
        mem = DistributedSvm(
            n_workers=2, seed=7, partitioner=shard_aligned_partition(store)
        ).solve(problem, 4)
        ooc = DistributedSvm(
            n_workers=2,
            seed=7,
            shards=ShardingConfig(
                store,
                cache_budget_bytes=2 * max(h.nbytes for h in store.handles)
                + 16,
            ),
        ).solve(problem, 4)
        assert np.array_equal(mem.weights, ooc.weights)
        assert np.array_equal(mem.alpha, ooc.alpha)
        assert ooc.ledger.get("shard_stream") > 0

    def test_axis_formulation_mismatch_rejected(self, rows_store, cols_store):
        with pytest.raises(ValueError, match="axis"):
            DistributedSCD(
                SequentialKernelFactory(), "primal", n_workers=2,
                shards=rows_store,
            )
        with pytest.raises(ValueError, match="axis"):
            DistributedSvm(n_workers=2, shards=cols_store)

    def test_shape_mismatch_rejected(self, rows_store):
        other = make_webspam_like(80, 300, nnz_per_example=10, seed=1)
        engine = DistributedSCD(
            SequentialKernelFactory(), "dual", n_workers=2, shards=rows_store
        )
        with pytest.raises(ValueError, match="covers"):
            engine.solve(RidgeProblem(other, 5e-3), 1)


class TestMpClusterShards:
    def test_mp_payloads_match_take_major(self, dataset, rows_store, monkeypatch):
        from repro.cluster.partition import random_partition
        from repro.cluster.process_backend import PipeProcessBackend
        from repro.cluster.runtime import plan_partitions
        from repro.core.distributed import _ScdWorkerPool
        from repro.obs import resolve_tracer

        config = ShardingConfig(rows_store)
        problem = RidgeProblem(dataset, 5e-3)
        parts, groups = plan_partitions(
            problem.n, 2, 5, random_partition, config, dataset.csr.shape
        )
        engine = DistributedSCD(
            SequentialKernelFactory(), "dual", n_workers=2, seed=5, shards=config,
            comm="process",
        )
        backend = PipeProcessBackend(_ScdWorkerPool(engine))
        shipped = {}
        # record what each child would be started with instead of forking
        monkeypatch.setattr(
            backend, "_start_child", lambda rank, args: shipped.setdefault(rank, args)
        )
        backend.open(problem, resolve_tracer(None))
        backend.close()
        assert sorted(shipped) == [0, 1]
        for rank, coords in enumerate(parts):
            _, _, local, y_local, _, _, child_coords, _ = shipped[rank]
            expect = dataset.csr.take_rows(coords)
            assert np.array_equal(child_coords, coords)
            assert np.array_equal(local.indptr, expect.indptr)
            assert np.array_equal(local.indices, expect.indices)
            assert np.array_equal(local.data, expect.data)
            assert np.array_equal(y_local, problem.y[coords])

    def test_mp_training_matches_simulated_engine(self, dataset, rows_store):
        problem = RidgeProblem(dataset, 5e-3)
        sim = DistributedSCD(
            SequentialKernelFactory(),
            "dual",
            n_workers=2,
            seed=5,
            shards=ShardingConfig(rows_store),
        ).solve(problem, 3)
        real = DistributedSCD(
            SequentialKernelFactory(), "dual", n_workers=2, seed=5,
            shards=rows_store, comm="process",
        ).solve(problem, 3)
        assert np.allclose(sim.weights, real.weights, atol=1e-12)


class TestLedgerComponents:
    def test_shard_components_registered(self):
        from repro.perf.ledger import COMPONENTS, FAULT_COMPONENTS

        assert "shard_stream" in COMPONENTS
        assert "shard_retry" in COMPONENTS
        assert "shard_retry" in FAULT_COMPONENTS
        assert "shard_stream" not in PAPER_COMPONENTS

    def test_paper_components_are_the_original_four(self):
        assert PAPER_COMPONENTS == (
            "compute_gpu", "compute_host", "comm_pcie", "comm_network"
        )


class TestShardsCli:
    def test_pack_and_info(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "set"
        assert main(
            [
                "shards", "pack", str(out),
                "--dataset", "webspam", "--scale", "tiny", "--shards", "3",
            ]
        ) == 0
        assert (out / MANIFEST_NAME).exists()
        capsys.readouterr()
        assert main(["shards", "info", str(out), "--verify"]) == 0
        text = capsys.readouterr().out
        assert "3 shards" in text.replace("across ", "")
        assert "all checksums verified" in text
