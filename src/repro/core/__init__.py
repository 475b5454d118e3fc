"""The paper's contributions: TPA-SCD, distributed SCD, adaptive aggregation.

Also hosts the extensions: the additional aggregation rules, the
asynchronous parameter-server alternative as ``DistributedSCD(comm="async")``,
and the GLM solvers on the TPA engine (``TpaSvm``, ``TpaElasticNet``), which
are :class:`~repro.solvers.ScdSolver` subclasses over
``TpaScdKernelFactory.bind_rule``.  ``SvmTrainResult`` is re-exported from
:mod:`repro.solvers.svm`.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".aggregation": (
        "AdaptiveAggregator",
        "AddingAggregator",
        "AggregationStats",
        "Aggregator",
        "AveragingAggregator",
        "LineSearchAggregator",
        "ScaledAggregator",
        "make_aggregator",
    ),
    ".distributed": ("DistributedSCD", "DistributedTrainResult", "HostModel"),
    ".distributed_svm": ("DistributedSvm", "SvmTrainResult"),
    ".glm_tpa": ("TpaElasticNet", "TpaSvm"),
    ".planner": ("ClusterSpec", "ExecutionPlan", "plan_execution"),
    ".scale": ("CRITEO_PAPER", "WEBSPAM_PAPER", "PaperScale"),
    ".tpa_scd": ("TpaScd", "TpaScdKernelFactory", "scaled_wave_size"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "AdaptiveAggregator",
    "AddingAggregator",
    "AggregationStats",
    "Aggregator",
    "AveragingAggregator",
    "LineSearchAggregator",
    "ScaledAggregator",
    "make_aggregator",
    "DistributedSCD",
    "DistributedSvm",
    "DistributedTrainResult",
    "SvmTrainResult",
    "HostModel",
    "PaperScale",
    "WEBSPAM_PAPER",
    "CRITEO_PAPER",
    "TpaScd",
    "TpaScdKernelFactory",
    "scaled_wave_size",
    "TpaElasticNet",
    "TpaSvm",
    "ClusterSpec",
    "ExecutionPlan",
    "plan_execution",
]
