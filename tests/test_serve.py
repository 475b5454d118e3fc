"""The serving layer's core contracts: snapshots, hot swap, oracle parity.

The two claims the whole subsystem rests on:

1. **torn-read freedom** — a batch scored while a swap lands is scored
   entirely against the old version or entirely against the new one,
   never a mix (the hypothesis property below attacks this with random
   swap timing against random traffic);
2. **oracle parity** — a served score is *bitwise* the offline ``X @ w``
   for the weight version stamped on the response, for all three
   objectives (ridge / logistic / hinge SVM).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import train
from repro.data import Dataset, make_sparse_regression, make_webspam_like
from repro.objectives import LogisticProblem, RidgeProblem, SvmProblem
from repro.serve import (
    ModelServer,
    PredictRequest,
    ServeConfig,
    SnapshotHub,
    WeightSnapshot,
    serve_weights,
    snapshot_from_result,
    train_to_serve,
)
from repro.serve.traffic import RequestSource, poisson_arrivals
from repro.solvers.base import EpochEvent
from repro.solvers.logistic import LogisticSdca
from repro.solvers.svm import SvmSdca
from repro.sparse import from_dense_csr


def _matrix(n=20, m=8, seed=0):
    return make_sparse_regression(
        n, m, nnz_per_example=4, rng=np.random.default_rng(seed)
    ).csr


def _requests(matrix, times, seed=0):
    return RequestSource(matrix, seed=seed).requests(times)


def _snap(version, m, seed):
    return WeightSnapshot(
        version=version,
        weights=np.random.default_rng(seed).standard_normal(m),
    )


# ---------------------------------------------------------------------------
# WeightSnapshot: immutability and identity
# ---------------------------------------------------------------------------
class TestWeightSnapshot:
    def test_weights_are_a_read_only_copy(self):
        src = np.ones(4)
        snap = WeightSnapshot(version=1, weights=src)
        src[0] = 99.0  # mutating the source must not leak into the snapshot
        assert snap.weights[0] == 1.0
        with pytest.raises(ValueError):
            snap.weights[0] = 5.0

    def test_fingerprint_tracks_bytes(self):
        a = WeightSnapshot(version=1, weights=np.arange(5.0))
        b = WeightSnapshot(version=2, weights=np.arange(5.0))
        c = WeightSnapshot(version=3, weights=np.arange(5.0) + 1e-300)
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint

    def test_version_must_be_positive(self):
        with pytest.raises(ValueError, match="version"):
            WeightSnapshot(version=0, weights=np.ones(2))

    def test_snapshot_from_result_maps_dual_ridge(self, ridge_sparse):
        res = train(ridge_sparse, "seq", formulation="dual", n_epochs=2)
        snap = snapshot_from_result(res, ridge_sparse)
        assert snap.epoch == 2
        np.testing.assert_array_equal(
            snap.weights, ridge_sparse.beta_from_alpha(res.weights)
        )


# ---------------------------------------------------------------------------
# SnapshotHub: single-writer swap semantics
# ---------------------------------------------------------------------------
class TestSnapshotHub:
    def test_versions_must_strictly_increase(self):
        hub = SnapshotHub()
        hub.publish(_snap(1, 4, 0))
        hub.publish(_snap(2, 4, 1))
        with pytest.raises(ValueError, match="increase"):
            hub.publish(_snap(2, 4, 2))

    def test_dimension_cannot_change(self):
        hub = SnapshotHub()
        hub.publish(_snap(1, 4, 0))
        with pytest.raises(ValueError, match="dimension"):
            hub.publish(_snap(2, 5, 0))

    def test_every_version_stays_auditable(self):
        hub = SnapshotHub()
        snaps = [_snap(v, 4, v) for v in (1, 2, 3)]
        for s in snaps:
            hub.publish(s)
        assert hub.versions == [1, 2, 3]
        for s in snaps:
            assert hub.get(s.version) is s
        assert hub.latest() is snaps[-1]
        with pytest.raises(KeyError):
            hub.get(9)

    def test_staleness_tracks_trainer_frontier(self):
        hub = SnapshotHub()
        snap = WeightSnapshot(version=1, weights=np.ones(3), epoch=2)
        hub.publish(snap)
        assert hub.staleness_of(snap) == 0
        hub.note_epoch(7)
        assert hub.staleness_of(snap) == 5
        assert hub.staleness_of(None) == 7

    def test_subscribers_see_each_publish(self):
        hub = SnapshotHub()
        seen = []
        hub.subscribe(seen.append)
        s1, s2 = _snap(1, 3, 0), _snap(2, 3, 1)
        hub.publish(s1)
        hub.publish(s2)
        assert seen == [s1, s2]


# ---------------------------------------------------------------------------
# serve_weights: formulation mapping
# ---------------------------------------------------------------------------
def test_serve_weights_maps_dual_ridge(ridge_sparse):
    alpha = np.random.default_rng(3).standard_normal(ridge_sparse.n)
    np.testing.assert_array_equal(
        serve_weights(ridge_sparse, "dual", alpha),
        ridge_sparse.beta_from_alpha(alpha),
    )
    beta = np.random.default_rng(4).standard_normal(ridge_sparse.m)
    np.testing.assert_array_equal(
        serve_weights(ridge_sparse, "primal", beta), beta
    )


# ---------------------------------------------------------------------------
# micro-batching and admission control
# ---------------------------------------------------------------------------
class TestBatchingAndAdmission:
    def test_batch_dispatches_when_full(self):
        matrix = _matrix()
        cfg = ServeConfig(max_batch=4, max_wait_s=10.0)
        server = ModelServer(_snap(1, matrix.shape[1], 0), config=cfg)
        for req in _requests(matrix, [0.0, 0.0, 0.0, 0.0]):
            server.submit(req)
        # the 4th arrival filled the batch: it dispatched immediately, long
        # before max_wait
        assert server._inflight is not None
        assert len(server._inflight.requests) == 4
        responses = server.drain()
        assert {r.batch_index for r in responses} == {0}

    def test_partial_batch_waits_max_wait(self):
        matrix = _matrix()
        cfg = ServeConfig(max_batch=32, max_wait_s=0.5)
        server = ModelServer(_snap(1, matrix.shape[1], 0), config=cfg)
        for req in _requests(matrix, [0.1, 0.2]):
            server.submit(req)
        responses = server.drain()
        # dispatch at oldest arrival + max_wait, completion after service
        assert all(r.batch_index == 0 for r in responses)
        assert responses[0].done_s > 0.6

    def test_reject_new_sheds_the_arrival(self):
        matrix = _matrix(n=40)
        cfg = ServeConfig(
            max_batch=64, max_wait_s=10.0, queue_capacity=3,
            shed_policy="reject-new",
        )
        server = ModelServer(_snap(1, matrix.shape[1], 0), config=cfg)
        reqs = _requests(matrix, [0.0] * 5)
        for req in reqs:
            server.submit(req)
        shed = [r for r in server.responses if r.shed]
        # the queue held 3; arrivals 4 and 5 were rejected
        assert [r.request_id for r in shed] == [reqs[3].request_id,
                                                reqs[4].request_id]

    def test_drop_oldest_sheds_the_head(self):
        matrix = _matrix(n=40)
        cfg = ServeConfig(
            max_batch=64, max_wait_s=10.0, queue_capacity=3,
            shed_policy="drop-oldest",
        )
        server = ModelServer(_snap(1, matrix.shape[1], 0), config=cfg)
        reqs = _requests(matrix, [0.0] * 5)
        for req in reqs:
            server.submit(req)
        shed = [r for r in server.responses if r.shed]
        assert [r.request_id for r in shed] == [reqs[0].request_id,
                                                reqs[1].request_id]
        served = server.drain()
        assert {r.request_id for r in served if not r.shed} == {
            reqs[2].request_id, reqs[3].request_id, reqs[4].request_id
        }

    def test_submit_without_model_is_an_error(self):
        matrix = _matrix()
        server = ModelServer(None)
        with pytest.raises(RuntimeError, match="no model"):
            server.submit(_requests(matrix, [0.0])[0])

    def test_out_of_order_events_rejected(self):
        matrix = _matrix()
        server = ModelServer(_snap(1, matrix.shape[1], 0))
        server.advance_to(1.0)
        with pytest.raises(ValueError, match="time order"):
            server.submit(_requests(matrix, [0.5])[0])

    def test_wrong_width_request_cannot_sink_its_batch(self):
        # the bad request would have filled the batch that scores the good
        # ones; it is refused at the door and they are still answered
        matrix = _matrix(m=4)
        server = ModelServer(
            _snap(1, 4, 0), config=ServeConfig(max_batch=3, max_wait_s=10.0)
        )
        good = _requests(matrix, [0.0, 0.0, 0.0])
        for req in good[:2]:
            server.submit(req)
        bad = PredictRequest(
            request_id=99, rows=_matrix(m=5).take_rows([0]), arrival_s=0.0
        )
        with pytest.raises(ValueError, match="request 99 has 5 columns .* 4 weights"):
            server.submit(bad)
        assert server.queue_depth == 2 and server._inflight is None
        assert server.ledger.total == 0.0 and server.responses == []
        server.submit(good[2])
        responses = server.drain()
        assert [r.request_id for r in responses] == [r.request_id for r in good]
        assert not any(r.shed for r in responses)

    def test_swap_cannot_change_dimension(self):
        server = ModelServer(_snap(1, 4, 0))
        with pytest.raises(ValueError, match="dimension: v2 has 7 weights, v1 has 4"):
            server.apply_swap(_snap(2, 7, 0))
        assert server.current_version == 1 and server.swaps_applied == 0


# ---------------------------------------------------------------------------
# the hot-swap atomicity property
# ---------------------------------------------------------------------------
@given(
    seed=st.integers(0, 10_000),
    n_requests=st.integers(1, 40),
    max_batch=st.integers(1, 8),
    swap_at=st.floats(0.0, 1.2),
)
@settings(max_examples=40, deadline=None)
def test_no_batch_is_ever_torn_by_a_swap(seed, n_requests, max_batch, swap_at):
    """Every batch's scores equal entirely-old or entirely-new — never mixed.

    Traffic, batch size and the swap instant are all adversarially random;
    the server interleaves the swap with dispatches however the event order
    dictates.  For every response the scores must be bitwise the oracle of
    the *one* version stamped on its batch.
    """
    matrix = _matrix(n=30, m=6, seed=seed)
    old = _snap(1, 6, seed)
    new = _snap(2, 6, seed + 1)
    times = np.sort(
        np.random.default_rng(seed).uniform(0.0, 1.0, size=n_requests)
    )
    reqs = _requests(matrix, times, seed=seed)
    server = ModelServer(
        old, config=ServeConfig(max_batch=max_batch, max_wait_s=0.01)
    )
    swapped = False
    for req in reqs:
        if not swapped and req.arrival_s >= swap_at:
            server.apply_swap(new, at=max(swap_at, server.now))
            swapped = True
        server.submit(req)
    if not swapped:
        server.apply_swap(new, at=max(swap_at, server.now))
    responses = server.drain()

    assert len(responses) == n_requests
    by_batch: dict[int, list] = {}
    for resp in responses:
        assert not resp.shed
        assert resp.weight_version in (1, 2)
        by_batch.setdefault(resp.batch_index, []).append(resp)
    for batch in by_batch.values():
        versions = {r.weight_version for r in batch}
        assert len(versions) == 1  # the torn-batch check
        snap = old if versions == {1} else new
        for resp in batch:
            oracle = matrix.take_rows(resp.row_ids).matvec(snap.weights)
            np.testing.assert_array_equal(np.asarray(resp.scores), oracle)


# ---------------------------------------------------------------------------
# oracle bit-identity for the three objectives
# ---------------------------------------------------------------------------
def _serve_against(weights: np.ndarray, matrix, seed=0) -> None:
    """Serve seeded traffic against ``weights``; assert bitwise X @ w."""
    snap = WeightSnapshot(version=1, weights=weights)
    server = ModelServer(snap, config=ServeConfig(max_batch=8))
    times = poisson_arrivals(500.0, 0.2, seed=seed)
    for req in _requests(matrix, times, seed=seed):
        server.submit(req)
    responses = server.drain()
    assert responses, "traffic generated no requests"
    for resp in responses:
        assert resp.weight_version == 1
        assert resp.weight_fingerprint == snap.fingerprint
        oracle = matrix.take_rows(resp.row_ids).matvec(
            np.asarray(snap.weights)
        )
        np.testing.assert_array_equal(np.asarray(resp.scores), oracle)


class TestOracleParity:
    def test_ridge_primal_and_dual(self, ridge_sparse):
        for formulation in ("primal", "dual"):
            res = train(ridge_sparse, "seq", formulation=formulation,
                        n_epochs=3)
            _serve_against(
                res.primal_weights(ridge_sparse),
                ridge_sparse.dataset.csr,
            )

    def test_logistic(self):
        ds = make_webspam_like(60, 40, nnz_per_example=6, seed=2)
        problem = LogisticProblem(ds, lam=1e-2)
        w = LogisticSdca(seed=1).solve(problem, 3).weights
        _serve_against(w, ds.csr)

    def test_svm(self):
        ds = make_webspam_like(60, 40, nnz_per_example=6, seed=4)
        problem = SvmProblem(ds, lam=1e-2)
        w = SvmSdca(seed=1).solve(problem, 3).weights
        _serve_against(w, ds.csr)


# ---------------------------------------------------------------------------
# the epoch-publish hook feeding the hub
# ---------------------------------------------------------------------------
class TestEpochPublishHook:
    def test_hook_fires_at_monitored_epochs_only(self, ridge_sparse):
        events: list[EpochEvent] = []
        train(ridge_sparse, "seq", n_epochs=6, monitor_every=2,
              on_epoch=events.append)
        assert [e.epoch for e in events] == [2, 4, 6]
        assert all(e.formulation == "primal" for e in events)

    def test_hook_does_not_perturb_the_trajectory(self, ridge_sparse):
        plain = train(ridge_sparse, "seq", n_epochs=4)
        hooked = train(ridge_sparse, "seq", n_epochs=4, on_epoch=lambda e: None)
        np.testing.assert_array_equal(plain.weights, hooked.weights)
        assert plain.history.records[-1].gap == hooked.history.records[-1].gap

    def test_events_keep_per_epoch_weights_after_training(self, ridge_sparse):
        # regression: events retained past train() must hold per-epoch
        # copies, not aliases of the live buffer — a deferred snapshotter
        # would otherwise see the final weights for every epoch
        events: list[EpochEvent] = []
        res = train(ridge_sparse, "seq", n_epochs=4, on_epoch=events.append)
        assert all(ev.weights is not res.weights for ev in events)
        fingerprints = [
            WeightSnapshot(version=i + 1, weights=ev.weights).fingerprint
            for i, ev in enumerate(events)
        ]
        assert len(set(fingerprints)) == len(fingerprints)
        # the last monitored epoch still carries the final model's values
        np.testing.assert_array_equal(events[-1].weights, res.weights)

    def test_cluster_engine_publishes_global_model(self, ridge_sparse):
        events: list[EpochEvent] = []
        res = train(ridge_sparse, "distributed", n_epochs=3, n_workers=2,
                    on_epoch=events.append)
        assert [e.epoch for e in events] == [1, 2, 3]
        np.testing.assert_array_equal(events[-1].weights, res.weights)

    def test_cluster_hook_preserves_bit_identity(self, ridge_sparse):
        plain = train(ridge_sparse, "distributed", n_epochs=3, n_workers=2)
        hooked = train(ridge_sparse, "distributed", n_epochs=3, n_workers=2,
                       on_epoch=lambda e: None)
        np.testing.assert_array_equal(plain.weights, hooked.weights)

    def test_svm_engine_publishes_primal_w(self):
        ds = make_webspam_like(50, 30, nnz_per_example=5, seed=5)
        problem = SvmProblem(ds, lam=1e-2)
        events: list[EpochEvent] = []
        res = train(problem, "distributed-svm", n_epochs=2, n_workers=2,
                    on_epoch=events.append)
        np.testing.assert_array_equal(events[-1].weights, res.weights)

    def test_dense_dataset_end_to_end_snapshot(self):
        # a snapshot published from an EpochEvent serves the same scores the
        # finished model would
        rng = np.random.default_rng(8)
        dense = rng.standard_normal((24, 6))
        ds = Dataset(matrix=from_dense_csr(dense), y=rng.standard_normal(24))
        problem = RidgeProblem(ds, lam=1e-2)
        captured: list[EpochEvent] = []
        res = train(problem, "seq", n_epochs=3, on_epoch=captured.append)
        snap = WeightSnapshot(
            version=1,
            weights=serve_weights(problem, captured[-1].formulation,
                                  captured[-1].weights),
            epoch=captured[-1].epoch,
        )
        np.testing.assert_array_equal(
            snap.weights, res.primal_weights(problem)
        )


# ---------------------------------------------------------------------------
# Traffic generator edge cases
# ---------------------------------------------------------------------------
class TestTrafficEdgeCases:
    def test_zero_duration_yields_no_arrivals(self):
        out = poisson_arrivals(100.0, 0.0)
        assert isinstance(out, np.ndarray)
        assert out.size == 0


# ---------------------------------------------------------------------------
# train_to_serve: each published version is genuinely different weights
# ---------------------------------------------------------------------------
class TestTrainToServeDemo:
    def test_consecutive_versions_have_distinct_fingerprints(self):
        # regression: deferred snapshotting once aliased the solver's live
        # buffer, so all published versions fingerprinted identically
        report = train_to_serve(
            n_epochs=6,
            publish_every=2,
            n_examples=96,
            n_features=24,
            rate_hz=400.0,
            duration_s=0.5,
            seed=0,
        )
        assert len(report.fingerprints) >= 3
        assert len(set(report.fingerprints)) == len(report.fingerprints)
        assert report.ok
