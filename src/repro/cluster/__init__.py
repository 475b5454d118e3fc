"""Cluster substrate: the unified runtime, partitioners, simulated MPI.

``repro.cluster.runtime`` is the single epoch engine behind
``DistributedSCD`` (and its SVM subclass ``DistributedSvm``) — synchronous
Algorithm 3 rounds
in-process (``comm="sync"``) or over real worker processes
(``comm="process"``, ``process_backend``), or the asynchronous
parameter-server schedule (``comm="async"``, ``async_backend``), selected
by the CommBackend; see ``docs/architecture.md`` for its six pluggable
seams (partitioner, comm backend, local solver, aggregation, faults,
membership).
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "..perf.link": ("ETHERNET_10G", "ETHERNET_100G", "Link"),
    ".comm": ("SimCommunicator",),
    ".faults": (
        "DEFAULT_RETRY",
        "SCENARIOS",
        "FaultInjector",
        "FaultReport",
        "FaultSpec",
        "RetryPolicy",
        "WorkerEpochFaults",
        "make_fault_injector",
    ),
    ".membership": (
        "LoadBalancer",
        "MembershipEvent",
        "MembershipRecord",
        "MembershipSchedule",
    ),
    ".async_backend": ("AsyncParamServerBackend",),
    ".process_backend": ("PipeProcessBackend",),
    ".partition": (
        "balanced_nnz_partition",
        "contiguous_partition",
        "proportional_partition",
        "random_partition",
        "shard_aligned_partition",
    ),
    ".runtime": (
        "ClusterRuntime",
        "CommBackend",
        "FaultPolicy",
        "InProcessBackend",
        "LocalSolver",
        "PermutationStream",
        "RoundOutcome",
        "RuntimeResult",
        "WorkerUpdate",
        "plan_partitions",
        "scatter_weights",
        "shared_sizing",
    ),
    ".smart_partition": (
        "communities_of",
        "correlation_aware_partition",
        "load_proportional_partition",
        "make_capacity_partitioner",
        "make_correlation_partitioner",
        "pack_communities",
        "validate_capacities",
    ),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "SimCommunicator",
    "ClusterRuntime",
    "RuntimeResult",
    "FaultPolicy",
    "LocalSolver",
    "CommBackend",
    "InProcessBackend",
    "PipeProcessBackend",
    "WorkerUpdate",
    "RoundOutcome",
    "PermutationStream",
    "plan_partitions",
    "scatter_weights",
    "shared_sizing",
    "FaultInjector",
    "FaultReport",
    "FaultSpec",
    "RetryPolicy",
    "WorkerEpochFaults",
    "DEFAULT_RETRY",
    "SCENARIOS",
    "make_fault_injector",
    "random_partition",
    "contiguous_partition",
    "balanced_nnz_partition",
    "proportional_partition",
    "shard_aligned_partition",
    "communities_of",
    "pack_communities",
    "correlation_aware_partition",
    "make_correlation_partitioner",
    "load_proportional_partition",
    "make_capacity_partitioner",
    "validate_capacities",
    "AsyncParamServerBackend",
    "MembershipEvent",
    "MembershipSchedule",
    "MembershipRecord",
    "LoadBalancer",
    "Link",
    "ETHERNET_10G",
    "ETHERNET_100G",
]
