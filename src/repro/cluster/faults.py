"""Seeded, deterministic fault injection for the simulated cluster.

The paper's distributed algorithms (Algorithms 3-4, Section V) assume K
perfectly synchronous workers.  At production scale that assumption fails
constantly: individual machines straggle, messages are lost and retried,
update vectors arrive late or never, and whole workers disappear for an
epoch at a time.  The asynchronous-tolerance literature (Keuper & Pfreundt's
asynchronous SGD; PASSCoDe's lost-update analysis) shows convergence
survives *bounded* faults when the aggregation math accounts for them — the
degraded-mode path of :class:`~repro.core.distributed.DistributedSCD`
recomputes the adaptive gamma over the K' <= K updates that actually arrive.

This module provides the fault *source*: a :class:`FaultInjector` that, from
one ``numpy.random.Generator`` seed, deterministically plans which faults
strike which worker in which epoch.  Plans are generated statelessly per
epoch (the generator is re-derived from ``(seed, epoch)``), so two engines
replaying the same scenario see bit-identical fault schedules regardless of
how many epochs either one runs or in which order plans are requested.

Fault taxonomy (see ``docs/fault_model.md``):

* **straggler** — the worker's local epoch takes ``straggler_multiplier``
  times longer; the synchronous barrier makes everyone wait.
* **transient send/recv failure** — a Reduce contribution or Broadcast
  delivery fails and is retried under the communicator's
  :class:`RetryPolicy` (timeout + exponential backoff + retransmission).
  Send failures beyond ``max_retries`` escalate to a dropped update.
* **dropped update** — the worker computed, but its update vector never
  reaches the master this epoch; master aggregates over the survivors and
  the worker discards its local work (it would otherwise diverge from the
  broadcast shared vector).
* **stale update** — the update vector arrives one epoch late and is folded
  into the *next* aggregation round.
* **worker dropout** — the worker is absent for the whole epoch (no
  compute, no update); it rejoins automatically at the next broadcast.
* **shard-read failure** — a read from the out-of-core shard store
  (:mod:`repro.shards`) fails transiently and is retried under the store's
  :class:`RetryPolicy`; exhaustion raises
  :class:`~repro.shards.store.ShardReadError`.  Planned per *read* (keyed on
  ``(seed, shard_id, read_index)``), not per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

__all__ = [
    "RetryPolicy",
    "DEFAULT_RETRY",
    "FaultSpec",
    "WorkerEpochFaults",
    "FaultInjector",
    "FaultReport",
    "SCENARIOS",
    "make_fault_injector",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout-and-exponential-backoff retry semantics for one transfer.

    A failed attempt costs the detection ``timeout_s``, then the sender
    sleeps ``backoff_base_s * backoff_factor**i`` before retry ``i`` and
    re-pays the full transfer.  After ``max_retries`` failed retries the
    operation is abandoned and the update counts as dropped.
    """

    timeout_s: float = 0.05
    backoff_base_s: float = 0.01
    backoff_factor: float = 2.0
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.timeout_s < 0 or self.backoff_base_s < 0:
            raise ValueError("timeout and backoff must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")

    def penalty_seconds(self, n_failures: int, transfer_s: float) -> float:
        """Modelled seconds lost to ``n_failures`` consecutive failures.

        Only the first ``max_retries`` failures are billed — past that the
        transfer is abandoned, so no further timeouts accrue.
        """
        billed = min(int(n_failures), self.max_retries)
        if billed <= 0:
            return 0.0
        backoff = sum(
            self.backoff_base_s * self.backoff_factor**i for i in range(billed)
        )
        return billed * (self.timeout_s + transfer_s) + backoff

    def exhausted(self, n_failures: int) -> bool:
        """True when ``n_failures`` exceeds the retry budget (update lost)."""
        return int(n_failures) > self.max_retries


#: the communicator's default policy — cheap enough that a handful of
#: retries stays well below one modelled epoch
DEFAULT_RETRY = RetryPolicy()


@dataclass(frozen=True)
class FaultSpec:
    """Per-epoch, per-worker fault probabilities for one scenario.

    All rates are independent Bernoulli probabilities evaluated once per
    worker per epoch; ``seed`` makes the whole schedule reproducible.
    """

    straggler_rate: float = 0.0
    straggler_multiplier: float = 4.0
    send_failure_rate: float = 0.0
    recv_failure_rate: float = 0.0
    drop_rate: float = 0.0
    stale_rate: float = 0.0
    dropout_rate: float = 0.0
    #: per-attempt probability that a shard read from the out-of-core store
    #: fails transiently (retried under the store's RetryPolicy; exhaustion
    #: raises ShardReadError) — planned per read, not per epoch
    shard_read_failure_rate: float = 0.0
    max_consecutive_failures: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name.endswith("_rate"):
                v = getattr(self, f.name)
                if not 0.0 <= v <= 1.0:
                    raise ValueError(f"{f.name} must be in [0, 1], got {v}")
        if self.straggler_multiplier < 1.0:
            raise ValueError("straggler_multiplier must be >= 1")
        if self.max_consecutive_failures < 0:
            raise ValueError("max_consecutive_failures must be non-negative")

    @property
    def is_null(self) -> bool:
        """True when no fault can ever trigger (all rates zero)."""
        return (
            self.straggler_rate == 0.0
            and self.send_failure_rate == 0.0
            and self.recv_failure_rate == 0.0
            and self.drop_rate == 0.0
            and self.stale_rate == 0.0
            and self.dropout_rate == 0.0
            and self.shard_read_failure_rate == 0.0
        )

    def with_seed(self, seed: int) -> "FaultSpec":
        return replace(self, seed=int(seed))


#: no faults at any rate — a zero-rate injector must be a bit-identical
#: no-op when installed (the determinism regression tests enforce this)
_NO_FAULTS_SPEC = FaultSpec()

#: named scenarios surfaced through the experiment drivers and the CLI
SCENARIOS: dict[str, FaultSpec] = {
    "none": _NO_FAULTS_SPEC,
    "straggler-only": FaultSpec(straggler_rate=0.25, straggler_multiplier=4.0),
    "lossy-link": FaultSpec(
        send_failure_rate=0.20, recv_failure_rate=0.10, drop_rate=0.05
    ),
    "worker-dropout": FaultSpec(dropout_rate=0.15),
    "flaky-disk": FaultSpec(shard_read_failure_rate=0.25),
    "straggler-drop": FaultSpec(
        straggler_rate=0.25,
        straggler_multiplier=4.0,
        send_failure_rate=0.15,
        drop_rate=0.10,
    ),
    "chaos": FaultSpec(
        straggler_rate=0.20,
        straggler_multiplier=6.0,
        send_failure_rate=0.15,
        recv_failure_rate=0.10,
        drop_rate=0.08,
        stale_rate=0.08,
        dropout_rate=0.10,
    ),
}


@dataclass(frozen=True)
class WorkerEpochFaults:
    """The faults striking one worker in one epoch (all benign by default)."""

    dropout: bool = False
    straggler_multiplier: float = 1.0
    drop_update: bool = False
    stale_update: bool = False
    send_failures: int = 0
    recv_failures: int = 0

    @property
    def benign(self) -> bool:
        return (
            not self.dropout
            and not self.drop_update
            and not self.stale_update
            and self.straggler_multiplier == 1.0
            and self.send_failures == 0
            and self.recv_failures == 0
        )


_NO_FAULTS = WorkerEpochFaults()


class FaultInjector:
    """Deterministic per-epoch fault planner for a simulated cluster.

    The injector owns its own random stream, derived per epoch from
    ``(spec.seed, epoch)``; it never touches the workers' permutation
    generators, so installing a zero-rate injector leaves every trajectory
    bit-identical to the fault-free run.
    """

    def __init__(self, spec: FaultSpec | None = None) -> None:
        self.spec = spec or _NO_FAULTS_SPEC

    @property
    def is_null(self) -> bool:
        return self.spec.is_null

    def _any_epoch_rate(self) -> bool:
        """True when any per-epoch worker fault can trigger."""
        s = self.spec
        return (
            s.straggler_rate > 0.0
            or s.send_failure_rate > 0.0
            or s.recv_failure_rate > 0.0
            or s.drop_rate > 0.0
            or s.stale_rate > 0.0
            or s.dropout_rate > 0.0
        )

    def plan_shard_read(self, shard_id: int, read_index: int) -> int:
        """Transient failures striking the ``read_index``-th read of a shard.

        Keyed on ``(seed, shard_id, read_index)`` rather than any global
        counter, so the schedule is independent of how reads from multiple
        workers interleave and of which thread performs them.
        """
        rate = self.spec.shard_read_failure_rate
        if rate <= 0.0:
            return 0
        rng = np.random.default_rng(
            [self.spec.seed, 0x5A4D, int(shard_id), int(read_index)]
        )
        return self._count_failures(rng, rate)

    def _count_failures(self, rng: np.random.Generator, rate: float) -> int:
        """Consecutive transient failures before a successful attempt."""
        if rate <= 0.0:
            return 0
        n = 0
        while n < self.spec.max_consecutive_failures and rng.random() < rate:
            n += 1
        return n

    def plan_epoch(self, epoch: int, n_workers: int) -> list[WorkerEpochFaults]:
        """The fault plan for ``epoch``, one entry per rank.

        Stateless in ``epoch``: replaying any epoch yields the same plan.
        """
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        s = self.spec
        if s.is_null:
            return [_NO_FAULTS] * n_workers
        if not self._any_epoch_rate():
            # shard-read-only scenario: epoch plans are all benign (and
            # consume no randomness, keeping trajectories bit-identical)
            return [_NO_FAULTS] * n_workers
        rng = np.random.default_rng([s.seed, int(epoch)])
        plan: list[WorkerEpochFaults] = []
        for _ in range(n_workers):
            if s.dropout_rate and rng.random() < s.dropout_rate:
                # absent for the whole epoch: nothing else can strike it
                plan.append(WorkerEpochFaults(dropout=True))
                continue
            mult = (
                s.straggler_multiplier
                if s.straggler_rate and rng.random() < s.straggler_rate
                else 1.0
            )
            drop = bool(s.drop_rate) and rng.random() < s.drop_rate
            stale = (
                not drop and bool(s.stale_rate) and rng.random() < s.stale_rate
            )
            plan.append(
                WorkerEpochFaults(
                    straggler_multiplier=mult,
                    drop_update=drop,
                    stale_update=stale,
                    send_failures=self._count_failures(rng, s.send_failure_rate),
                    recv_failures=self._count_failures(rng, s.recv_failure_rate),
                )
            )
        return plan


@dataclass
class FaultReport:
    """What the fault-aware engine observed over one training run."""

    epochs: int = 0
    dropouts: int = 0
    stragglers: int = 0
    dropped_updates: int = 0
    retry_exhausted: int = 0
    stale_updates: int = 0
    transient_failures: int = 0
    survivor_counts: list[int] = field(default_factory=list)

    @property
    def any_faults(self) -> bool:
        return (
            self.dropouts
            + self.stragglers
            + self.dropped_updates
            + self.stale_updates
            + self.transient_failures
        ) > 0

    def record_to(self, metrics) -> None:
        """Fold this report's totals into a :class:`~repro.obs.MetricsRegistry`."""
        if metrics is None:
            return
        metrics.inc("faults.dropouts", self.dropouts)
        metrics.inc("faults.stragglers", self.stragglers)
        metrics.inc("faults.dropped_updates", self.dropped_updates)
        metrics.inc("faults.retry_exhausted", self.retry_exhausted)
        metrics.inc("faults.stale_updates", self.stale_updates)
        metrics.inc("faults.transient_failures", self.transient_failures)
        for k in self.survivor_counts:
            metrics.observe("faults.survivors", k)

    def note(self) -> str:
        return (
            f"{self.dropouts} dropouts, {self.stragglers} straggler epochs, "
            f"{self.dropped_updates} dropped updates "
            f"({self.retry_exhausted} retry-exhausted), "
            f"{self.stale_updates} stale updates, "
            f"{self.transient_failures} transient failures "
            f"over {self.epochs} epochs"
        )


def make_fault_injector(
    faults: "FaultInjector | FaultSpec | str | None", *, seed: int | None = None
) -> FaultInjector | None:
    """Resolve a faults argument: injector, spec, scenario name, or None.

    ``seed`` re-seeds a named scenario (specs and injectors keep their own).
    """
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, FaultSpec):
        return FaultInjector(faults)
    if isinstance(faults, str):
        try:
            spec = SCENARIOS[faults]
        except KeyError:
            raise ValueError(
                f"unknown fault scenario {faults!r}; choose from {sorted(SCENARIOS)}"
            ) from None
        if seed is not None:
            spec = spec.with_seed(seed)
        return FaultInjector(spec)
    raise TypeError(f"cannot make a FaultInjector from {type(faults).__name__}")
