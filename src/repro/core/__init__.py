"""The paper's contributions: TPA-SCD, distributed SCD, adaptive aggregation.

Also hosts the extensions: the additional aggregation rules, and the
asynchronous parameter-server alternative as ``DistributedSCD(comm="async")``.
"""

from .aggregation import (
    AdaptiveAggregator,
    AddingAggregator,
    AggregationStats,
    Aggregator,
    AveragingAggregator,
    LineSearchAggregator,
    ScaledAggregator,
    make_aggregator,
)
from .distributed import DistributedSCD, DistributedTrainResult, HostModel
from .distributed_svm import DistributedSvm, SvmTrainResult
from .glm_tpa import TpaElasticNet, TpaSvm
from .planner import ClusterSpec, ExecutionPlan, plan_execution
from .scale import CRITEO_PAPER, WEBSPAM_PAPER, PaperScale
from .tpa_scd import TpaScd, TpaScdKernelFactory, scaled_wave_size

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
