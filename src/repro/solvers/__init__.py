"""CPU coordinate-descent solvers: sequential SCD, async baselines, extensions.

Every coordinate solver here (and the GPU ones in :mod:`repro.core`) runs
:meth:`ScdSolver.solve` over a kernel factory and returns a
:class:`TrainResult`; the SVM and logistic solvers return its
:class:`SvmTrainResult` subclass.  The gradient baselines of Section I's
batch-versus-stochastic comparison keep their own loops and are not
re-exported here: ``SgdSolver`` lives in :mod:`repro.solvers.sgd` and
``BatchGD`` in :mod:`repro.solvers.batch_gd`, imported only by the
``ext-batch-vs-stochastic`` driver.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".ascd": ("ASCD", "AsyncCpuKernelFactory", "PASSCoDeWild"),
    ".base": ("BoundKernel", "KernelFactory", "ScdSolver", "TrainResult"),
    ".elasticnet": (
        "ElasticNetCD",
        "ElasticNetKernelFactory",
        "elastic_net_path",
        "lambda_grid",
    ),
    ".logistic": ("LogisticSdca",),
    ".scd": ("SequentialKernelFactory", "SequentialSCD"),
    ".syscd": ("SySCD", "SyscdKernelFactory"),
    ".svm": ("SdcaKernelFactory", "SvmSdca", "SvmTrainResult"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "ASCD",
    "AsyncCpuKernelFactory",
    "PASSCoDeWild",
    "BoundKernel",
    "KernelFactory",
    "ScdSolver",
    "TrainResult",
    "SequentialKernelFactory",
    "SequentialSCD",
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
