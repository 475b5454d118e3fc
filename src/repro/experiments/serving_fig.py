"""The online-serving scenario as a registered experiment driver.

Wraps :func:`repro.serve.demo.train_to_serve` — the seeded train → publish →
hot-swap → oracle-audit demo — into a :class:`FigureResult` so the serving
layer is sweepable from ``repro.eval`` configs (solver matrix, seeds) and
rendered by the same report machinery as the paper figures.
"""

from __future__ import annotations

import numpy as np

from .claims import TRUE, Band, Claim, above, at_least
from .config import ScaleConfig, active_scale
from .results import CurveSeries, FigureResult

__all__ = ["run_serving", "SERVING_SIZES"]

#: per-scale demo sizing: (n_examples, n_features, n_epochs, publish_every,
#: rate_hz, duration_s)
SERVING_SIZES: dict[str, tuple[int, int, int, int, float, float]] = {
    "tiny": (192, 48, 6, 2, 1_000.0, 0.5),
    "quick": (512, 128, 12, 3, 2_000.0, 1.0),
    "full": (1_024, 256, 12, 3, 4_000.0, 1.0),
}


def run_serving(
    scale: ScaleConfig | None = None,
    *,
    solver: str = "seq",
    seed: int = 0,
) -> FigureResult:
    """Train-to-serve demo as a figure: latency, staleness, audit verdict."""
    from ..serve import train_to_serve

    scale = scale or active_scale()
    n_examples, n_features, n_epochs, publish_every, rate_hz, duration_s = (
        SERVING_SIZES[scale.name]
    )
    report = train_to_serve(
        solver=solver,
        n_epochs=n_epochs,
        publish_every=publish_every,
        n_examples=n_examples,
        n_features=n_features,
        rate_hz=rate_hz,
        duration_s=duration_s,
        seed=seed,
    )

    fig = FigureResult(
        figure_id="serving",
        title=(
            f"Train-to-serve hot-swap ({solver}): {report.n_requests} seeded "
            "requests, bitwise oracle audit"
        ),
        meta={
            "solver": report.solver,
            "seed": seed,
            "scale": scale.name,
            "n_requests": report.n_requests,
            "n_served": report.n_served,
            "n_shed": report.n_shed,
            "versions_published": list(report.versions_published),
            "versions_served": list(report.versions_served),
            "fingerprints": [f"{fp:#010x}" for fp in report.fingerprints],
            "oracle_mismatches": len(report.oracle_mismatches),
            "p50_latency_s": report.p50_latency_s,
            "p99_latency_s": report.p99_latency_s,
        },
    )
    swaps = report.staleness_at_swaps
    versions = np.asarray([v for v, _, _ in swaps], dtype=float)
    fig.add(
        CurveSeries(
            label="staleness before swap",
            x=versions,
            y=np.asarray([before for _, before, _ in swaps], dtype=float),
            x_name="version",
            y_name="staleness(epochs)",
        )
    )
    fig.add(
        CurveSeries(
            label="staleness after swap",
            x=versions,
            y=np.asarray([after for _, _, after in swaps], dtype=float),
            x_name="version",
            y_name="staleness(epochs)",
        )
    )
    fig.add(
        CurveSeries(
            label="modelled latency quantile",
            x=np.asarray([50.0, 99.0]),
            y=np.asarray([report.p50_latency_s, report.p99_latency_s]),
            x_name="percentile",
            y_name="latency(s)",
        )
    )
    return fig


def _staleness_drop(fig: FigureResult) -> float:
    """Smallest fall in staleness (epochs) at any swap."""
    before = fig.get("staleness before swap").y
    after = fig.get("staleness after swap").y
    return float(np.min(before - after))


def _fingerprints_distinct(fig: FigureResult) -> bool:
    prints = fig.meta["fingerprints"]
    return all(a != b for a, b in zip(prints, prints[1:]))


CLAIMS = {
    "serving": (
        Claim(
            "serving-versions", "Scenario (serving)",
            lambda fig: len(fig.meta["versions_served"]), at_least(3),
            "training publishes and the server hot-swaps several model versions (distinct "
            "versions served)",
        ),
        Claim(
            "serving-oracle-exact", "Scenario (serving)",
            lambda fig: fig.meta["oracle_mismatches"], Band(0, 0),
            "every served score is bitwise the offline X @ w oracle (oracle mismatches)",
        ),
        Claim(
            "serving-staleness-falls", "Scenario (serving)", _staleness_drop, above(0),
            "staleness falls at every swap (smallest fall, epochs)",
        ),
        Claim(
            "serving-fingerprints-distinct", "Scenario (serving)", _fingerprints_distinct, TRUE,
            "each published version carries new weights (consecutive fingerprints distinct)",
        ),
    ),
}
