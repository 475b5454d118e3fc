"""Aggregation rules for distributed SCD (Section IV-B).

After every synchronous epoch the master combines the workers' shared-vector
and model updates as ``x(t+1) = x(t) + gamma_t * sum_k dx(t,k)``.  The rule
choosing ``gamma_t`` is pluggable:

* :class:`AveragingAggregator` — ``gamma = 1/K`` (Algorithm 3; CoCoA with
  sigma' = 1, the paper's baseline);
* :class:`AddingAggregator` — ``gamma = 1`` (CoCoA+-style adding);
* :class:`AdaptiveAggregator` — the paper's contribution: the exact
  minimizer of the aggregated objective, computed in a distributed manner
  from a handful of scalars (Algorithm 4 / Eq. 7).

Note on Eq. 7: as printed, the paper's primal expression reads
``-(<w, dw> + N lam <beta, dbeta>) / (||dw||^2 + N lam ||dbeta||^2)``.
Setting the derivative of ``P(beta + gamma dbeta)`` to zero actually gives
``<w - y, dw>`` in the numerator's first term (the residual, not the shared
vector).  The dual expression in the paper is consistent with the analogous
derivation, so we take the primal ``w - y`` form to be the intended one and
implement that; ``tests/test_aggregation.py`` verifies both gammas against
numerical minimization of the true objectives.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "AggregationStats",
    "Aggregator",
    "AveragingAggregator",
    "AddingAggregator",
    "AdaptiveAggregator",
    "ScaledAggregator",
    "LineSearchAggregator",
    "make_aggregator",
]


@dataclass(frozen=True)
class AggregationStats:
    """Scalar statistics available to the master at aggregation time.

    Primal meaning (dual meaning in parentheses):

    * ``resid_dot_dshared`` — ``<w - y, dw>``  (``<wbar, dwbar>``)
    * ``dshared_norm_sq``  — ``||dw||^2``      (``||dwbar||^2``)
    * ``model_dot_dmodel`` — ``sum_k <beta_k, dbeta_k>`` (``sum_k <alpha_k, dalpha_k>``)
    * ``dmodel_norm_sq``   — ``sum_k ||dbeta_k||^2``     (``sum_k ||dalpha_k||^2``)
    * ``dmodel_dot_y``     — unused           (``sum_k <dalpha_k, y_k>``)

    The ``sum_k`` quantities are exactly the scalars Algorithm 4 ships over
    the network; the shared-vector quantities are computed master-side.
    """

    formulation: str
    n: int
    lam: float
    n_workers: int
    resid_dot_dshared: float
    dshared_norm_sq: float
    model_dot_dmodel: float
    dmodel_norm_sq: float
    dmodel_dot_y: float = 0.0


class Aggregator:
    """Base class: maps per-epoch statistics to an aggregation parameter."""

    name = "base"
    #: extra float64 scalars communicated per epoch beyond the shared vector
    n_extra_scalars = 0
    #: whether :meth:`gamma` reads the dot-product statistics; rules that
    #: don't (averaging / adding / scaled) let the cluster runtime skip
    #: computing them entirely, exactly as the pre-runtime SVM engine did
    needs_stats = False

    def gamma(self, stats: AggregationStats) -> float:
        raise NotImplementedError


class AveragingAggregator(Aggregator):
    """gamma = 1/K — averaging the workers' updates (Algorithm 3)."""

    name = "averaging"

    def gamma(self, stats: AggregationStats) -> float:
        return 1.0 / stats.n_workers


class AddingAggregator(Aggregator):
    """gamma = 1 — adding the workers' updates (CoCoA+ regime)."""

    name = "adding"

    def gamma(self, stats: AggregationStats) -> float:
        return 1.0


class AdaptiveAggregator(Aggregator):
    """Exact per-epoch optimization of gamma (the paper's Section IV-B).

    Primal:  gamma* = -(<w - y, dw> + N lam <beta, dbeta>)
                      / (||dw||^2 + N lam ||dbeta||^2)
    Dual:    gamma* = (<dalpha, y> - N <alpha, dalpha> - (1/lam) <wbar, dwbar>)
                      / ((1/lam) ||dwbar||^2 + N ||dalpha||^2)

    Falls back to averaging when the update is identically zero (denominator
    vanishes), which can only happen at exact convergence.
    """

    name = "adaptive"
    n_extra_scalars = 3
    needs_stats = True

    def gamma(self, stats: AggregationStats) -> float:
        n, lam = stats.n, stats.lam
        if stats.formulation == "primal":
            denom = stats.dshared_norm_sq + n * lam * stats.dmodel_norm_sq
            if denom <= 0.0:
                return 1.0 / stats.n_workers
            num = stats.resid_dot_dshared + n * lam * stats.model_dot_dmodel
            return -num / denom
        if stats.formulation == "dual":
            denom = stats.dshared_norm_sq / lam + n * stats.dmodel_norm_sq
            if denom <= 0.0:
                return 1.0 / stats.n_workers
            num = (
                stats.dmodel_dot_y
                - n * stats.model_dot_dmodel
                - stats.resid_dot_dshared / lam
            )
            return num / denom
        raise ValueError(f"unknown formulation {stats.formulation!r}")


class ScaledAggregator(Aggregator):
    """gamma = min(1, sigma'/K') — CoCoA+'s sub-linearity parameter (Ma et al. [24]).

    ``sigma_prime = 1`` recovers averaging, ``sigma_prime = K`` recovers
    adding; values in between trade aggressiveness against stability.  The
    paper runs the sigma' = 1 special case; this rule exposes the knob for
    the aggregation ablation.  ``K'`` counts the updates that arrived; the
    cap keeps ``sigma_prime >= K'`` at adding, since an SDCA fold
    ``alpha + gamma * dalpha`` with gamma > 1 leaves the [0, 1] box.
    """

    n_extra_scalars = 0

    def __init__(self, sigma_prime: float) -> None:
        if sigma_prime <= 0:
            raise ValueError("sigma_prime must be positive")
        self.sigma_prime = float(sigma_prime)
        self.name = f"scaled(sigma'={self.sigma_prime:g})"

    def gamma(self, stats: AggregationStats) -> float:
        return min(1.0, self.sigma_prime / stats.n_workers)


class LineSearchAggregator(Aggregator):
    """Numerical line search over gamma (Trofimov & Genkin [21] style).

    Evaluates the aggregated objective restricted to the gamma line — which
    for ridge regression is an exact quadratic in gamma, reconstructible
    from the same scalar statistics the adaptive rule uses — and minimizes
    it by golden-section search over ``[0, gamma_max]``.

    For ridge the result coincides with :class:`AdaptiveAggregator`'s closed
    form (the tests assert this); the class exists to demonstrate that the
    paper's exact formula subsumes line-search approaches at strictly lower
    cost, and as the fallback strategy for objectives without a closed form.
    """

    name = "line-search"
    n_extra_scalars = 3
    needs_stats = True

    def __init__(self, gamma_max: float = 4.0, tol: float = 1e-10) -> None:
        if gamma_max <= 0:
            raise ValueError("gamma_max must be positive")
        self.gamma_max = float(gamma_max)
        self.tol = float(tol)

    def _objective_delta(self, stats: AggregationStats, gamma: float) -> float:
        """Change of the (primal-min / dual-max flipped) objective at gamma.

        Both restricted objectives are quadratics ``a/2 gamma^2 + b gamma``
        in terms of the aggregation statistics; constants cancel.
        """
        n, lam = stats.n, stats.lam
        if stats.formulation == "primal":
            a = (stats.dshared_norm_sq + n * lam * stats.dmodel_norm_sq) / n
            b = (stats.resid_dot_dshared + n * lam * stats.model_dot_dmodel) / n
        elif stats.formulation == "dual":
            # maximize D -> minimize -D
            a = n * stats.dmodel_norm_sq + stats.dshared_norm_sq / lam
            b = -(
                stats.dmodel_dot_y
                - n * stats.model_dot_dmodel
                - stats.resid_dot_dshared / lam
            )
        else:
            raise ValueError(f"unknown formulation {stats.formulation!r}")
        return 0.5 * a * gamma * gamma + b * gamma

    def gamma(self, stats: AggregationStats) -> float:
        if stats.dshared_norm_sq <= 0.0 and stats.dmodel_norm_sq <= 0.0:
            return 1.0 / stats.n_workers
        lo, hi = 0.0, self.gamma_max
        invphi = (5**0.5 - 1) / 2
        c = hi - invphi * (hi - lo)
        d = lo + invphi * (hi - lo)
        fc = self._objective_delta(stats, c)
        fd = self._objective_delta(stats, d)
        while hi - lo > self.tol:
            if fc < fd:
                hi, d, fd = d, c, fc
                c = hi - invphi * (hi - lo)
                fc = self._objective_delta(stats, c)
            else:
                lo, c, fc = c, d, fd
                d = lo + invphi * (hi - lo)
                fd = self._objective_delta(stats, d)
        return 0.5 * (lo + hi)


def make_aggregator(rule: str | Aggregator) -> Aggregator:
    """Resolve an aggregation rule by name or pass an instance through."""
    if isinstance(rule, Aggregator):
        return rule
    table = {
        "averaging": AveragingAggregator,
        "adding": AddingAggregator,
        "adaptive": AdaptiveAggregator,
        "line-search": LineSearchAggregator,
    }
    try:
        return table[rule]()
    except KeyError:
        raise ValueError(
            f"unknown aggregation rule {rule!r}; choose from {sorted(table)}"
        ) from None
