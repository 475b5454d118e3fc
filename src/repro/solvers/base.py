"""Solver framework: kernel factories, bound kernels, and the epoch driver.

Every solver in the paper — sequential SCD, the asynchronous CPU variants,
and GPU TPA-SCD — performs the *same* outer loop (Algorithm 1's epoch
structure); they differ only in how one epoch executes and how long it takes.
That split is captured here:

* a :class:`KernelFactory` binds a data partition to an executable epoch
  kernel plus a device timing model, producing a :class:`BoundKernel`;
* :class:`ScdSolver` is the generic training driver and the only epoch
  loop of the coordinate methods: permutation stream, epoch loop,
  modelled-time ledger, tracer spans, duality-gap monitoring, the
  ``on_epoch`` publish hook and the :class:`TrainResult`;
* the GLM extensions (SVM and logistic SDCA, elastic-net CD, and their
  TPA twins) are subclasses over their own factories that override only
  what their objective changes: :meth:`ScdSolver._bind`,
  :meth:`ScdSolver._start` (the start point), :meth:`ScdSolver._monitor`
  (gap, objective, record extras) and :meth:`ScdSolver._model` /
  :meth:`ScdSolver._result` (what is published and returned);
* the distributed engine (``repro.core.distributed``, and its SVM subclass
  in ``repro.core.distributed_svm``) reuses the same factories to bind each
  worker's local partition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

import numpy as np

from ..metrics import ConvergenceHistory, ConvergenceRecord
from ..objectives.ridge import RidgeProblem, gap_and_objective
from ..obs import resolve_tracer
from ..perf.ledger import TimeLedger
from ..perf.timing import EpochWorkload, LocalTiming
from ..sparse import CscMatrix, CsrMatrix

__all__ = [
    "BoundKernel",
    "EpochEvent",
    "KernelFactory",
    "ScdSolver",
    "TrainResult",
]


@dataclass(frozen=True)
class EpochEvent:
    """What an ``on_epoch`` training callback observes at a monitored epoch.

    ``weights`` is a private copy of the model vector in its native
    formulation (primal beta / dual alpha; the primal ``w`` for the SDCA
    solvers, whose shared vector is the model) — never the engine's live buffer,
    so a consumer may retain the event past the callback (deferred
    snapshotting sees each epoch's weights, not aliases of the final ones).
    This is the continuous-training publish point: a serving hub subscribes
    here to receive versioned weight snapshots while training is still
    running.
    """

    epoch: int
    weights: np.ndarray
    formulation: str
    #: modelled seconds of training so far (wall seconds for real backends)
    sim_time: float
    gap: float
    solver: str = ""


@dataclass
class BoundKernel:
    """An epoch kernel bound to one data partition.

    ``run_epoch(weights, shared, perm, rng)`` advances the model by one pass
    over ``perm`` (local coordinate indices), updating ``weights`` and the
    ``shared`` vector in place, and returns the number of lost shared-vector
    element updates (nonzero only for "wild" write semantics).
    """

    run_epoch: Callable[[np.ndarray, np.ndarray, np.ndarray, np.random.Generator], int]
    workload: EpochWorkload
    timing: LocalTiming
    n_coords: int
    shared_len: int
    dtype: np.dtype = field(default_factory=lambda: np.dtype(np.float64))

    def epoch_seconds(self) -> float:
        """Modelled duration of one epoch on this kernel's device."""
        return self.timing.epoch_seconds(self.workload)


class KernelFactory(Protocol):
    """Builds bound kernels for either formulation of ridge regression."""

    #: human-readable solver label used in histories and reports
    name: str

    def bind_primal(
        self, csc: CscMatrix, y: np.ndarray, n_global: int, lam: float
    ) -> BoundKernel:
        """Bind the primal update rule to a (possibly partial) column set.

        ``csc`` holds the worker's local feature columns over all ``N``
        examples; ``y`` is the *global* label vector; the shared vector is
        ``w = A beta`` of global length ``N``.
        """
        ...

    def bind_dual(
        self, csr: CsrMatrix, y_local: np.ndarray, n_global: int, lam: float
    ) -> BoundKernel:
        """Bind the dual update rule to a (possibly partial) row set.

        ``csr`` holds the worker's local example rows over all ``M``
        features; ``y_local`` are that partition's labels; the shared vector
        is ``wbar = A^T alpha`` of global length ``M``.
        """
        ...


@dataclass
class TrainResult:
    """Outcome of a training run — the canonical result shape.

    Every engine (single-node drivers, the distributed/SVM/mp engines via
    subclasses) returns this shape, so downstream code can always reach
    ``history``, ``ledger`` and — when a tracer was installed — ``trace``
    and ``metrics``.
    """

    formulation: str
    weights: np.ndarray
    shared: np.ndarray
    history: ConvergenceHistory
    solver_name: str
    lost_updates: int = 0
    #: modelled per-component time accounting (always populated)
    ledger: TimeLedger | None = None
    #: the :class:`~repro.obs.Tracer` that observed the run, when enabled
    trace: Any = None
    #: the tracer's :class:`~repro.obs.MetricsRegistry`, when enabled
    metrics: Any = None

    def primal_weights(self, problem: RidgeProblem) -> np.ndarray:
        """The model usable for prediction, mapping dual iterates via Eq. 5."""
        if self.formulation == "primal":
            return self.weights
        return problem.beta_from_alpha(self.weights)

    def predict(self, problem: RidgeProblem, matrix: CsrMatrix) -> np.ndarray:
        """Linear predictions on a (test) matrix in CSR layout."""
        return matrix.matvec(self.primal_weights(problem))


class ScdSolver:
    """Generic single-node stochastic coordinate descent driver.

    Parameters
    ----------
    factory:
        Device-specific kernel factory (sequential CPU, async CPU, GPU).
    formulation:
        ``"primal"`` (coordinates = features, Eq. 2) or ``"dual"``
        (coordinates = examples, Eq. 4).
    seed:
        Seeds the permutation stream and any stochastic execution effects.
    """

    def __init__(
        self, factory: KernelFactory, formulation: str = "primal", seed: int = 0
    ) -> None:
        if formulation not in ("primal", "dual"):
            raise ValueError(f"unknown formulation {formulation!r}")
        self.factory = factory
        self.formulation = formulation
        self.seed = int(seed)

    @property
    def name(self) -> str:
        return f"{self.factory.name}[{self.formulation}]"

    def _bind(self, problem: RidgeProblem) -> BoundKernel:
        if self.formulation == "primal":
            return self.factory.bind_primal(
                problem.dataset.csc, problem.y, problem.n, problem.lam
            )
        return self.factory.bind_dual(
            problem.dataset.csr, problem.y, problem.n, problem.lam
        )

    def _start(self, problem, bound: BoundKernel) -> tuple[np.ndarray, np.ndarray]:
        """The initial ``(weights, shared)``: zeros, where Algorithm 1 starts."""
        return (
            np.zeros(bound.n_coords, dtype=bound.dtype),
            np.zeros(bound.shared_len, dtype=bound.dtype),
        )

    def _monitor(
        self, problem, weights: np.ndarray, shared: np.ndarray
    ) -> tuple[float, float, dict]:
        """Offline ``(gap, objective, extras)``; never counted in sim time.

        The shared vector is deliberately *recomputed* from the weights: for
        wild write semantics the maintained shared vector drifts away from
        ``A beta`` and the paper evaluates the quality of the model weights
        themselves.  ``extras`` lands in the monitored epoch's record.
        """
        gap, obj = gap_and_objective(problem, weights.astype(np.float64), self.formulation)
        return gap, obj, {}

    def _model(self, weights: np.ndarray, shared: np.ndarray) -> np.ndarray:
        """The vector an ``on_epoch`` event carries: the native weights."""
        return weights

    def _result(self, weights: np.ndarray, shared: np.ndarray, **fields) -> TrainResult:
        """Package a finished run; ``fields`` are the driver's bookkeeping."""
        return TrainResult(
            formulation=self.formulation, weights=weights, shared=shared, **fields
        )

    def solve(
        self,
        problem: RidgeProblem,
        n_epochs: int,
        *,
        monitor_every: int = 1,
        target_gap: float | None = None,
        tracer=None,
        on_epoch=None,
    ) -> TrainResult:
        """Train for up to ``n_epochs`` epochs.

        ``monitor_every`` controls how often the duality gap is evaluated;
        ``target_gap`` stops early once the gap reaches the target (checked
        only at monitored epochs, like the paper's time-to-epsilon runs).
        ``tracer`` attaches a :class:`~repro.obs.Tracer` (defaults to the
        ambient tracer installed by :func:`~repro.obs.use_tracer`); tracing
        only observes — seeded trajectories are bit-identical with it on.
        ``on_epoch`` is called with an :class:`EpochEvent` after every
        monitored epoch (the train-to-serve publish hook); it observes only
        and cannot perturb the trajectory.
        """
        if n_epochs < 0:
            raise ValueError("n_epochs must be non-negative")
        if monitor_every < 1:
            raise ValueError("monitor_every must be >= 1")
        tracer = resolve_tracer(tracer)
        # kernel factories (TPA, GLM, SySCD) report kernel-level spans and
        # counters to this solve's tracer, the null one included, never to
        # the tracer of an earlier solve
        self.factory.tracer = tracer
        ledger = tracer.open_ledger()
        with tracer.span(
            "train", category="driver", solver=self.name,
            formulation=self.formulation, n_epochs=n_epochs,
        ):
            with tracer.span("bind", category="driver"):
                bound = self._bind(problem)
            rng = np.random.default_rng(self.seed)
            weights, shared = self._start(problem, bound)
            history = ConvergenceHistory(label=self.name)
            sim_time = 0.0
            lost_total = 0
            t0 = time.perf_counter()

            with tracer.span("gap_eval", category="monitor", epoch=0):
                gap, obj, _ = self._monitor(problem, weights, shared)
            history.append(
                ConvergenceRecord(
                    epoch=0,
                    gap=gap,
                    objective=obj,
                    sim_time=0.0,
                    wall_time=0.0,
                    updates=0,
                )
            )

            epoch_cost = bound.epoch_seconds()
            component = bound.timing.component
            updates = 0
            for epoch in range(1, n_epochs + 1):
                with tracer.span("epoch", category="driver", epoch=epoch):
                    perm = rng.permutation(bound.n_coords)
                    lost = bound.run_epoch(weights, shared, perm, rng)
                    ledger.add(component, epoch_cost)
                lost_total += lost
                updates += bound.n_coords
                sim_time += epoch_cost
                tracer.count("train.epochs")
                tracer.count("scd.updates", bound.n_coords)
                if lost:
                    tracer.count("scd.lost_updates", lost)
                if epoch % monitor_every == 0 or epoch == n_epochs:
                    with tracer.span("gap_eval", category="monitor", epoch=epoch):
                        gap, obj, extras = self._monitor(problem, weights, shared)
                    history.append(
                        ConvergenceRecord(
                            epoch=epoch,
                            gap=gap,
                            objective=obj,
                            sim_time=sim_time,
                            wall_time=time.perf_counter() - t0,
                            updates=updates,
                            extras={"lost_updates": lost_total, **extras},
                        )
                    )
                    if on_epoch is not None:
                        on_epoch(
                            EpochEvent(
                                epoch=epoch,
                                # copy: the event must not alias the live
                                # buffer mutated by later epochs
                                weights=self._model(weights, shared).copy(),
                                formulation=self.formulation,
                                sim_time=sim_time,
                                gap=gap,
                                solver=self.name,
                            )
                        )
                    if target_gap is not None and gap <= target_gap:
                        break

        return self._result(
            weights,
            shared,
            history=history,
            solver_name=self.name,
            lost_updates=lost_total,
            ledger=ledger,
            trace=tracer if tracer.enabled else None,
            metrics=tracer.metrics if tracer.enabled else None,
        )
