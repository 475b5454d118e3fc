"""Elastic membership: schedules, rebalancing, and state-preserving resizes.

Covers the Membership seam end to end: the policy objects
(``MembershipSchedule`` / ``LoadBalancer``), the state-preserving
repartition on the worker pools (exactly-once coordinate ownership and
bitwise weight preservation, property-tested across join/leave/join
sequences), the runtime's epoch-boundary application (audit log, metrics,
eviction), and the engine-level guarantees — an elastic run converges
within the issue's 2x bound of the fixed-membership run on the same seed,
and churn composes with fault injection without deadlock or divergence.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.faults import FaultSpec, make_fault_injector
from repro.cluster.membership import (
    LoadBalancer,
    MembershipEvent,
    MembershipSchedule,
)
from repro.core.distributed import DistributedSCD, _ScdWorkerPool
from repro.core.distributed_svm import DistributedSvm
from repro.core.scale import CRITEO_PAPER
from repro.obs import resolve_tracer
from repro.objectives import RidgeProblem
from repro.objectives.svm import SvmProblem
from repro.data import make_webspam_like
from repro.shards import pack_dataset, ShardStore
from repro.solvers.scd import SequentialKernelFactory


def _engine(formulation="dual", k=3, **kw):
    return DistributedSCD(
        SequentialKernelFactory(), formulation, n_workers=k, seed=7, **kw
    )


def _ridge():
    return RidgeProblem(
        make_webspam_like(120, 200, nnz_per_example=10, seed=3), lam=5e-3
    )


def _svm():
    return SvmProblem(
        make_webspam_like(120, 200, nnz_per_example=10, seed=6), lam=1e-2
    )


# ---------------------------------------------------------------------------
# policy objects
# ---------------------------------------------------------------------------
class TestMembershipSchedule:
    def test_tuple_events_normalize(self):
        s = MembershipSchedule([(2, "join"), (3, "leave", 2)])
        assert s.delta_at(2) == (1, 0)
        assert s.delta_at(3) == (0, 2)
        assert s.delta_at(4) == (0, 0)

    def test_events_accumulate_per_epoch(self):
        s = MembershipSchedule(
            [MembershipEvent(2, "join"), MembershipEvent(2, "join", 2),
             MembershipEvent(2, "leave")]
        )
        assert s.delta_at(2) == (3, 1)

    def test_churn_is_deterministic(self):
        a = MembershipSchedule(churn_seed=5, join_prob=0.5, leave_prob=0.5)
        b = MembershipSchedule(churn_seed=5, join_prob=0.5, leave_prob=0.5)
        assert [a.delta_at(e) for e in range(1, 20)] == [
            b.delta_at(e) for e in range(1, 20)
        ]

    def test_churn_streams_stay_aligned(self):
        """join_prob=0 still consumes a draw, so the leave stream matches."""
        both = MembershipSchedule(churn_seed=5, join_prob=0.5, leave_prob=0.5)
        leaves_only = MembershipSchedule(
            churn_seed=5, join_prob=0.0, leave_prob=0.5
        )
        assert [both.delta_at(e)[1] for e in range(1, 30)] == [
            leaves_only.delta_at(e)[1] for e in range(1, 30)
        ]

    def test_clamp(self):
        s = MembershipSchedule(min_workers=2, max_workers=5)
        assert s.clamp(0) == 2
        assert s.clamp(9) == 5
        assert s.clamp(3) == 3

    @pytest.mark.parametrize(
        "kw,match",
        [
            (dict(evict_after=0), "evict_after"),
            (dict(min_workers=0), "min_workers"),
            (dict(min_workers=3, max_workers=2), "max_workers"),
            (dict(join_prob=1.5, churn_seed=1), "probabilities"),
            (dict(join_prob=0.5), "churn_seed"),
        ],
    )
    def test_validation(self, kw, match):
        with pytest.raises(ValueError, match=match):
            MembershipSchedule(**kw)

    @pytest.mark.parametrize(
        "args,match",
        [
            ((0, "join"), "epoch"),
            ((1, "explode"), "action"),
            ((1, "join", 0), "at least one"),
        ],
    )
    def test_event_validation(self, args, match):
        with pytest.raises(ValueError, match=match):
            MembershipEvent(*args)


class TestLoadBalancer:
    def test_not_due_without_history(self):
        b = LoadBalancer(1)
        assert not b.due(1)
        assert b.capacities(3) is None

    def test_due_tracks_imbalance(self):
        b = LoadBalancer(1, min_imbalance=1.5)
        b.record([100, 100], [1.0, 1.01])  # nearly balanced
        assert not b.due(2)
        b = LoadBalancer(1, min_imbalance=1.5)
        b.record([100, 100], [1.0, 4.0])  # 4x skew
        assert b.due(2)

    def test_capacities_proportional_to_throughput(self):
        b = LoadBalancer(1, smooth=1.0)
        b.record([100, 100], [1.0, 2.0])  # rank 1 half as fast
        caps = b.capacities(2)
        assert caps[0] == pytest.approx(2.0 * caps[1])

    def test_joiner_padded_with_median(self):
        b = LoadBalancer(1, smooth=1.0)
        b.record([100, 100], [1.0, 1.0])
        caps = b.capacities(3)
        assert len(caps) == 3
        assert caps[2] == pytest.approx(np.median(caps[:2]))

    def test_dict_walls_and_missing_rank(self):
        b = LoadBalancer(1, smooth=1.0)
        # rank 1 was offline (no wall entry): filled with the median
        b.record([100, 100, 100], {0: 1.0, 2: 1.0})
        caps = b.capacities(3)
        assert caps[1] == pytest.approx(caps[0])

    def test_pool_shape_change_restarts_ema(self):
        b = LoadBalancer(1, smooth=0.5)
        b.record([100, 100], [1.0, 1.0])
        b.record([100, 100, 100], [1.0, 1.0, 4.0])  # pool grew: restart
        caps = b.capacities(3)
        assert caps[2] == pytest.approx(25.0)  # 100/4, not smeared

    @pytest.mark.parametrize(
        "kw,match",
        [
            (dict(every=0), "interval"),
            (dict(smooth=0.0), "smooth"),
            (dict(min_imbalance=0.5), "min_imbalance"),
        ],
    )
    def test_validation(self, kw, match):
        with pytest.raises(ValueError, match=match):
            LoadBalancer(**kw)


# ---------------------------------------------------------------------------
# state-preserving repartition (property-tested)
# ---------------------------------------------------------------------------
def _fresh_pool(problem, k, seed=7, kind="ridge"):
    eng = _engine("dual", k) if kind == "ridge" else DistributedSvm(n_workers=k)
    eng.seed = seed
    pool = _ScdWorkerPool(eng)
    pool.bind(problem, resolve_tracer(None))
    return pool


@settings(max_examples=15, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=2**16),
    kind=st.sampled_from(["ridge", "svm"]),
)
@example(sizes=[5], seed=7, kind="ridge")
@example(sizes=[5], seed=7, kind="svm")
def test_repartition_preserves_exactly_once_ownership(sizes, seed, kind):
    """join -> leave -> join sequences: every row owned by exactly one rank,
    and the assembled global model (ridge weights or SVM alpha) is preserved
    bitwise at every step."""
    problem = _ridge() if kind == "ridge" else _svm()
    pool = _fresh_pool(problem, 3, seed=seed, kind=kind)
    rng = np.random.default_rng(seed)
    for wk in pool.workers:
        wk.weights[:] = rng.standard_normal(wk.weights.shape[0])
    tracer = resolve_tracer(None)
    for k in sizes:
        before = pool.global_weights(problem)
        pool.repartition(problem, tracer, k)
        owned = np.sort(np.concatenate([wk.coords for wk in pool.workers]))
        np.testing.assert_array_equal(owned, np.arange(problem.n))
        after = pool.global_weights(problem)
        np.testing.assert_array_equal(before, after)
    pool.close()


def test_svm_pool_repartition_preserves_alpha():
    problem = _svm()
    pool = _fresh_pool(problem, 3, kind="svm")
    rng = np.random.default_rng(0)
    for wk in pool.workers:
        wk.weights[:] = rng.uniform(0, 1, wk.weights.shape[0])
    before = pool.global_weights(problem)
    pool.repartition(problem, resolve_tracer(None), 5)
    owned = np.sort(np.concatenate([wk.coords for wk in pool.workers]))
    np.testing.assert_array_equal(owned, np.arange(problem.n))
    np.testing.assert_array_equal(before, pool.global_weights(problem))
    pool.close()


def test_repartition_rng_streams_are_generation_salted():
    """A reborn rank must not replay the permutation stream of the departed
    rank that previously held its id."""
    problem = _ridge()
    pool = _fresh_pool(problem, 2)
    first = pool.workers[0].rng.random()
    pool.repartition(problem, resolve_tracer(None), 2)
    reborn = pool.workers[0].rng.random()
    assert first != reborn
    pool.close()


# ---------------------------------------------------------------------------
# engine-level elastic runs
# ---------------------------------------------------------------------------
class TestElasticRuns:
    def test_join_and_leave_converges_within_2x_of_fixed(self):
        problem = _ridge()
        fixed = _engine("dual", 3).solve(problem, 12)
        elastic = _engine(
            "dual", 3,
            membership=[(3, "join"), (7, "leave")],
        ).solve(problem, 12)
        assert elastic.history.final_gap() <= 2.0 * fixed.history.final_gap()
        log = elastic.membership_log
        assert [(r.epoch, r.k_before, r.k_after) for r in log] == [
            (3, 3, 4), (7, 4, 3)
        ]
        assert log[0].joins == 1 and log[1].leaves == 1

    def test_static_run_has_empty_log(self):
        res = _engine("dual", 3).solve(_ridge(), 3)
        assert res.membership_log == []

    def test_partitions_reflect_final_pool(self):
        res = _engine(
            "dual", 2, membership=[(2, "join", 2)]
        ).solve(_ridge(), 4)
        assert len(res.partitions) == 4
        owned = np.sort(np.concatenate(res.partitions))
        np.testing.assert_array_equal(owned, np.arange(120))

    def test_min_workers_clamps_leaves(self):
        res = _engine(
            "dual", 2,
            membership=MembershipSchedule([(2, "leave", 5)], min_workers=1),
        ).solve(_ridge(), 4)
        assert res.membership_log[0].k_after == 1

    def test_swap_join_leave_same_size_still_reshuffles(self):
        res = _engine(
            "dual", 3, membership=[(2, "join"), (2, "leave")]
        ).solve(_ridge(), 4)
        log = res.membership_log
        assert len(log) == 1
        assert log[0].k_before == log[0].k_after == 3
        assert log[0].joins == 1 and log[0].leaves == 1

    def test_eviction_retires_permanently_down_ranks(self):
        res = _engine(
            "dual", 3,
            faults=FaultSpec(dropout_rate=1.0, seed=1),
            membership=MembershipSchedule(evict_after=2, min_workers=1),
        ).solve(_ridge(), 6)
        assert res.membership_log
        assert res.membership_log[-1].k_after == 1
        assert sum(r.evictions for r in res.membership_log) >= 2

    def test_churn_with_faults_chaos(self):
        """Membership churn composed with straggler/drop fault injection."""
        res = _engine(
            "dual", 4,
            faults=make_fault_injector("chaos", seed=11),
            membership=MembershipSchedule(
                churn_seed=5, join_prob=0.4, leave_prob=0.4,
                min_workers=2, max_workers=6,
            ),
        ).solve(_ridge(), 10)
        assert np.isfinite(res.history.final_gap())
        assert res.history.final_gap() < res.history.records[0].gap
        owned = np.sort(np.concatenate(res.partitions))
        np.testing.assert_array_equal(owned, np.arange(120))
        assert res.fault_report is not None

    def test_rebalance_shifts_load_toward_fast_ranks(self):
        """Stragglers skew measured wall time; the balancer shrinks the slow
        rank's shard at the next due epoch."""
        res = _engine(
            "dual", 3,
            faults=FaultSpec(straggler_rate=0.5, straggler_multiplier=8.0,
                             seed=0),
            rebalance_every=2,
        ).solve(_ridge(), 8)
        rebalances = [r for r in res.membership_log if r.rebalanced]
        assert rebalances
        assert all(r.capacities is not None for r in rebalances)
        owned = np.sort(np.concatenate(res.partitions))
        np.testing.assert_array_equal(owned, np.arange(120))

    def test_membership_spans_and_metrics_emitted(self):
        from repro.obs import Tracer

        tracer = Tracer()
        res = _engine(
            "dual", 2, membership=[(2, "join")]
        ).solve(_ridge(), 3, tracer=tracer)
        names = [s.name for root in tracer.roots for s in root.walk()]
        assert "cluster.membership.apply" in names
        assert tracer.metrics.counter("cluster.membership.changes") == 1
        assert tracer.metrics.counter("cluster.membership.joins") == 1
        assert res.membership_log[0].epoch == 2


def _grow_2_to_5(kind):
    """An engine whose pool grows from K=2 to K=5 at epoch 3, and its problem."""
    membership = [(3, "join")] * 3
    if kind == "svm":
        return DistributedSvm(n_workers=2, seed=3, membership=membership), _svm()
    return DistributedSCD(
        SequentialKernelFactory(), "dual", n_workers=2, seed=3,
        membership=membership,
    ), _ridge()


class TestElasticEngineState:
    """What an elastic run leaves behind on its engine, and how it is named."""

    @pytest.mark.parametrize("kind", ["ridge", "svm"])
    def test_second_solve_repeats_the_first(self, kind):
        """A run that grew the pool prices the next run's first epochs at
        ``n_workers`` again, not at the last run's K=5."""
        engine, problem = _grow_2_to_5(kind)
        runs = [engine.solve(problem, 5) for _ in range(2)]
        records = [
            [(r.epoch, r.gap, r.objective, r.sim_time, r.updates, r.extras)
             for r in res.history.records]
            for res in runs
        ]
        assert records[0] == records[1]
        assert [r.k_after for r in runs[1].membership_log] == [5]

    @pytest.mark.parametrize("kind, static, grown", [
        ("ridge", "Distributed[SCD(1 thread) x2, averaging, dual]",
         "Distributed[SCD(1 thread) x2..5, averaging, dual]"),
        ("svm", "DistributedSVM[x2, sigma'=1]", "DistributedSVM[x2..5, sigma'=1]"),
    ])
    def test_name_shows_the_pool_range(self, kind, static, grown):
        from repro.obs import Tracer

        engine, problem = _grow_2_to_5(kind)
        tracer = Tracer()
        res = engine.solve(problem, 4, tracer=tracer)
        roots = [s for root in tracer.roots for s in root.walk()
                 if s.name == "distributed.train"]
        assert [r.attrs["solver"] for r in roots] == [grown]
        assert res.solver_name == res.history.label == engine.name == grown
        assert [r.k_after for r in res.membership_log] == [5]
        engine.membership = None
        res = engine.solve(problem, 2)
        assert res.solver_name == res.history.label == engine.name == static


class TestElasticSvm:
    def test_svm_elastic_run_converges(self):
        problem = _svm()
        fixed = DistributedSvm(n_workers=3, seed=3).solve(problem, 10)
        elastic = DistributedSvm(
            n_workers=3, seed=3, membership=[(3, "join"), (6, "leave")]
        ).solve(problem, 10)
        assert np.isfinite(elastic.history.final_gap())
        assert elastic.history.final_gap() <= 2.0 * fixed.history.final_gap()
        assert len(elastic.alpha) == problem.n

    def test_resize_reprices_paper_scale_compute(self):
        """Growing the pool 2 -> 5 shrinks each worker's paper-scale share,
        so the modelled epoch gets shorter."""
        res = DistributedSvm(
            n_workers=2, seed=3, paper_scale=CRITEO_PAPER,
            membership=[(3, "join")] * 3,
        ).solve(_svm(), 4)
        assert [(r.epoch, r.k_after) for r in res.membership_log] == [(3, 5)]
        steps = np.diff(res.history.sim_times)
        assert steps[0] == pytest.approx(steps[1])  # K=2
        assert steps[2] == pytest.approx(steps[3])  # K=5
        assert steps[3] < 0.6 * steps[1]


class TestShardAlignedElastic:
    def test_elastic_resize_stays_shard_aligned(self, tmp_path):
        ds = make_webspam_like(120, 200, nnz_per_example=10, seed=3)
        out = tmp_path / "rows-6"
        pack_dataset(ds, out, axis="rows", n_shards=6)
        store = ShardStore(out)
        res = _engine(
            "dual", 2, shards=store, membership=[(2, "join")]
        ).solve(RidgeProblem(ds, lam=5e-3), 4)
        assert len(res.partitions) == 3
        owned = np.sort(np.concatenate(res.partitions))
        np.testing.assert_array_equal(owned, np.arange(120))
        # every partition is a union of whole shard groups: its coordinate
        # set must be a prefix-contiguous run of the store's shard layout
        for part in res.partitions:
            assert part.shape[0] > 0


class TestUnsupportedBackends:
    def test_mp_backend_rejects_membership(self):
        eng = DistributedSCD(
            SequentialKernelFactory(), "dual", n_workers=2, comm="process",
            membership=MembershipSchedule([(2, "join")]),
        )
        with pytest.raises(ValueError, match="elastic membership"):
            eng.solve(_ridge(), 2)

    def test_rebalance_interval_validated(self):
        with pytest.raises(ValueError, match="rebalance_every"):
            _engine("dual", 2, rebalance_every=-1)
