"""CPU coordinate-descent solvers: sequential SCD, async baselines, extensions.

Every coordinate solver here (and the GPU ones in :mod:`repro.core`) runs
:meth:`ScdSolver.solve` over a kernel factory and returns a
:class:`TrainResult`; the SVM and logistic solvers return its
:class:`SvmTrainResult` subclass.  ``SgdSolver`` and ``BatchGD`` are the
gradient baselines and keep their own loops.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".ascd": ("ASCD", "AsyncCpuKernelFactory", "PASSCoDeWild"),
    ".batch_gd": ("BatchGD", "power_iteration_lipschitz"),
    ".base": ("BoundKernel", "KernelFactory", "ScdSolver", "TrainResult"),
    ".elasticnet": (
        "ElasticNetCD",
        "ElasticNetKernelFactory",
        "elastic_net_path",
        "lambda_grid",
    ),
    ".logistic": ("LogisticSdca",),
    ".scd": ("SequentialKernelFactory", "SequentialSCD"),
    ".sgd": ("SgdSolver",),
    ".syscd": ("SySCD", "SyscdKernelFactory"),
    ".svm": ("SdcaKernelFactory", "SvmSdca", "SvmTrainResult"),
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
    "ElasticNetKernelFactory",
    "elastic_net_path",
    "lambda_grid",
    "LogisticSdca",
    "SdcaKernelFactory",
    "SvmSdca",
    "SvmTrainResult",
]
