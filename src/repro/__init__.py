"""repro — reproduction of "Large-Scale Stochastic Learning using GPUs".

Parnell, Dünner, Atasu, Sifalakis & Pozidis (IPPS/IPDPSW 2017,
arXiv:1702.07005): TPA-SCD on a simulated GPU, distributed SCD with
adaptive aggregation, and the paper's full benchmark suite.

Public API surface re-exports the pieces most users need; subpackages expose
the full substrates (``repro.sparse``, ``repro.gpu``, ``repro.cluster``,
``repro.experiments``, ...).  Every re-export is imported on first use
(:mod:`repro._lazy`), so ``import repro`` loads no submodule and each entry
point pays only for the modules it runs.
"""

from ._lazy import lazy_exports

_EXPORTS = {
    ".api": ("SolverConfig", "train"),
    ".core": (
        "CRITEO_PAPER",
        "WEBSPAM_PAPER",
        "AdaptiveAggregator",
        "AddingAggregator",
        "AveragingAggregator",
        "DistributedSCD",
        "DistributedSvm",
        "DistributedTrainResult",
        "PaperScale",
        "SvmTrainResult",
        "TpaScd",
        "TpaScdKernelFactory",
        "scaled_wave_size",
    ),
    ".data": (
        "Dataset",
        "load_libsvm",
        "make_criteo_like",
        "make_dense_gaussian",
        "make_sparse_regression",
        "make_webspam_like",
        "save_libsvm",
        "train_test_split",
    ),
    ".metrics": ("ConvergenceHistory", "ConvergenceRecord", "speedup"),
    ".shards": (
        "ShardCache",
        "ShardingConfig",
        "ShardStore",
        "ShardStreamer",
        "pack_dataset",
    ),
    ".obs": ("MetricsRegistry", "NullTracer", "Tracer", "active_tracer", "use_tracer"),
    ".perf.ledger": ("TimeLedger",),
    ".serve": (
        "ModelServer",
        "ServeConfig",
        "SnapshotHub",
        "WeightSnapshot",
        "snapshot_from_result",
        "train_to_serve",
    ),
    ".objectives": (
        "ElasticNetProblem",
        "LogisticProblem",
        "RidgeProblem",
        "SvmProblem",
        "solve_exact",
    ),
    ".solvers": (
        "ASCD",
        "ElasticNetCD",
        "LogisticSdca",
        "PASSCoDeWild",
        "ScdSolver",
        "SequentialSCD",
        "SvmSdca",
        "SySCD",
        "TrainResult",
        "elastic_net_path",
        "lambda_grid",
    ),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__version__ = "1.0.0"

__all__ = [
    # unified estimator API
    "train",
    "SolverConfig",
    # observability
    "Tracer",
    "NullTracer",
    "MetricsRegistry",
    "use_tracer",
    "active_tracer",
    "TimeLedger",
    # data
    "Dataset",
    "load_libsvm",
    "save_libsvm",
    "train_test_split",
    "make_criteo_like",
    "make_dense_gaussian",
    "make_sparse_regression",
    "make_webspam_like",
    # out-of-core shard store
    "pack_dataset",
    "ShardStore",
    "ShardCache",
    "ShardingConfig",
    "ShardStreamer",
    # online serving
    "ModelServer",
    "ServeConfig",
    "SnapshotHub",
    "WeightSnapshot",
    "snapshot_from_result",
    "train_to_serve",
    # metrics
    "ConvergenceHistory",
    "ConvergenceRecord",
    "speedup",
    # objectives
    "RidgeProblem",
    "solve_exact",
    "ElasticNetProblem",
    "SvmProblem",
    "LogisticProblem",
    # CPU solvers
    "ASCD",
    "PASSCoDeWild",
    "ScdSolver",
    "SequentialSCD",
    "SySCD",
    "TrainResult",
    "ElasticNetCD",
    "elastic_net_path",
    "lambda_grid",
    "SvmSdca",
    "LogisticSdca",
    # paper contributions
    "TpaScd",
    "TpaScdKernelFactory",
    "scaled_wave_size",
    "DistributedSCD",
    "DistributedTrainResult",
    "DistributedSvm",
    "SvmTrainResult",
    "AveragingAggregator",
    "AddingAggregator",
    "AdaptiveAggregator",
    "PaperScale",
    "WEBSPAM_PAPER",
    "CRITEO_PAPER",
    "__version__",
]
