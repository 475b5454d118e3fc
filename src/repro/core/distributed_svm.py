"""Distributed SVM training — CoCoA's canonical instantiation (ref [7]).

Algorithm 3 "can be thought of as a special case of the more general CoCoA
framework applied specifically to the ridge regression problem"; CoCoA
itself was introduced for communication-efficient distributed *SDCA* — the
hinge-loss SVM.  This facade closes that loop: examples are partitioned
across K workers, each runs local SDCA epochs against its copy of the
primal weight vector ``w`` (the SVM's shared vector), and the master
aggregates the workers' ``delta w`` with gamma = min(1, sigma'/K').

:class:`DistributedSvm` is a :class:`~repro.core.distributed.DistributedSCD`
over the single-node :class:`~repro.solvers.SvmSdca` kernel
(:class:`~repro.solvers.svm.SdcaKernelFactory` with the hinge step): one
worker pool, runtime and paper-scale pricing.  Each worker folds
``alpha + gamma * dalpha``, which keeps ``w = A^T(alpha*y)/(lam N)`` and,
with gamma <= 1, ``alpha`` inside [0, 1].
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..cluster.faults import FaultInjector, FaultSpec
from ..cluster.membership import MembershipSchedule
from ..cpu import XEON_8C, CpuSpec
from ..objectives.svm import hinge_step
from ..perf.link import Link
from ..solvers.svm import SdcaKernelFactory, SvmTrainResult
from .aggregation import ScaledAggregator
from .distributed import DistributedSCD
from .scale import PaperScale

if TYPE_CHECKING:
    from ..shards import ShardingConfig, ShardStore

__all__ = ["DistributedSvm", "SvmTrainResult"]


class DistributedSvm(DistributedSCD):
    """Synchronous distributed SDCA for the hinge-loss SVM.

    Parameters mirror the ridge engine where they apply; ``sigma_prime``
    scales the aggregation between averaging (1) and adding (K).
    ``partitioner`` overrides the paper's random example partition;
    ``shards`` switches the data path to an out-of-core
    :class:`~repro.shards.ShardStore` (rows axis), with worker partitions
    aligned to shard-group boundaries and per-epoch streaming billed into
    the ledger's ``shard_stream`` / ``shard_retry`` phases.
    """

    # two deltas computed from one alpha cannot both be folded inside the
    # [0, 1] box, so SDCA keeps no stale buffer: a delayed update is lost
    _stale_buffering = False

    def __init__(
        self,
        *,
        n_workers: int = 4,
        sigma_prime: float = 1.0,
        network: Link | None = None,
        spec: CpuSpec = XEON_8C,
        paper_scale: PaperScale | None = None,
        seed: int = 0,
        faults: FaultInjector | FaultSpec | str | None = None,
        partitioner=None,
        shards: ShardingConfig | ShardStore | None = None,
        membership: MembershipSchedule | Sequence | None = None,
        rebalance_every: int = 0,
    ) -> None:
        super().__init__(
            SdcaKernelFactory(hinge_step, spec=spec),
            "dual",
            n_workers=n_workers,
            aggregation=ScaledAggregator(sigma_prime),
            network=network,
            paper_scale=paper_scale,
            seed=seed,
            partitioner=partitioner,
            faults=faults,
            shards=shards,
            membership=membership,
            rebalance_every=rebalance_every,
        )
        self.sigma_prime = float(sigma_prime)

    @property
    def name(self) -> str:
        return f"DistributedSVM[{self._pool_label()}, sigma'={self.sigma_prime:g}]"

    def _gap_objective(self, problem, weights):
        return problem.duality_gap(weights), problem.dual_objective(weights)

    def _model(self, weights, shared):
        # the shared vector is the serveable primal model w; copied because
        # the runtime keeps updating it in place
        return shared.copy()

    def _result(self, weights, shared, *, partitions, gammas, **fields):
        return SvmTrainResult(
            formulation="dual", weights=shared, shared=shared, alpha=weights, **fields
        )
