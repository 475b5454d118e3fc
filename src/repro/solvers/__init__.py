"""CPU coordinate-descent solvers: sequential SCD, async baselines, extensions."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".ascd": ("ASCD", "AsyncCpuKernelFactory", "PASSCoDeWild"),
    ".batch_gd": ("BatchGD", "power_iteration_lipschitz"),
    ".base": ("BoundKernel", "KernelFactory", "ScdSolver", "TrainResult"),
    ".elasticnet": ("ElasticNetCD", "elastic_net_path", "lambda_grid"),
    ".logistic": ("LogisticSdca",),
    ".scd": ("SequentialKernelFactory", "SequentialSCD"),
    ".sgd": ("SgdSolver",),
    ".syscd": ("SySCD", "SyscdKernelFactory"),
    ".svm": ("SvmSdca",),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "ASCD",
    "BatchGD",
    "power_iteration_lipschitz",
    "AsyncCpuKernelFactory",
    "PASSCoDeWild",
    "BoundKernel",
    "KernelFactory",
    "ScdSolver",
    "TrainResult",
    "SequentialKernelFactory",
    "SequentialSCD",
    "SgdSolver",
    "SySCD",
    "SyscdKernelFactory",
    "ElasticNetCD",
    "elastic_net_path",
    "lambda_grid",
    "LogisticSdca",
    "SvmSdca",
]
