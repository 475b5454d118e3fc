"""Training objectives: ridge regression (paper) and GLM extensions."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".elasticnet": ("ElasticNetProblem", "soft_threshold"),
    ".logistic": ("LogisticProblem",),
    ".ridge": (
        "ExactSolution",
        "RidgeProblem",
        "dual_coordinate_delta",
        "primal_coordinate_delta",
        "solve_exact",
    ),
    ".svm": ("SvmProblem",),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "ElasticNetProblem",
    "soft_threshold",
    "ExactSolution",
    "RidgeProblem",
    "dual_coordinate_delta",
    "primal_coordinate_delta",
    "solve_exact",
    "SvmProblem",
    "LogisticProblem",
]
