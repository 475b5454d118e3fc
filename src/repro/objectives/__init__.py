"""Training objectives: ridge regression (paper) and GLM extensions."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".elasticnet": ("ElasticNetProblem", "elastic_net_delta", "soft_threshold"),
    ".logistic": ("LogisticProblem", "logistic_step"),
    ".ridge": (
        "ExactSolution",
        "RidgeProblem",
        "dual_coordinate_delta",
        "primal_coordinate_delta",
        "solve_exact",
    ),
    ".svm": ("SvmProblem", "hinge_step"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "ElasticNetProblem",
    "elastic_net_delta",
    "soft_threshold",
    "ExactSolution",
    "RidgeProblem",
    "dual_coordinate_delta",
    "primal_coordinate_delta",
    "solve_exact",
    "SvmProblem",
    "hinge_step",
    "LogisticProblem",
    "logistic_step",
]
