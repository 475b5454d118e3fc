"""Paper claims as executable assertions over a driver's :class:`FigureResult`.

Each driver declares, next to its code, the claims its figure reproduces:
an id, the paper's sentence and figure, a *measure* that reduces the figure
to one number (or a bool), the tolerance band that number must fall in, and
the smallest shipped scale at which the claim holds.  The registry keeps
them on :class:`~repro.experiments.registry.DriverSpec`, and its ``check``
turns them into :class:`Verdict` objects that the tier-1 claims test, the
``repro eval`` report and exit code, and the EXPERIMENTS.md generator all
render.  A claim is stated once and checked everywhere it is shown.

A claim is asserted at its declared scale and every larger one; below it
the verdict is ``skip`` (shown, never failed).

A verdict round-trips through JSON (:meth:`Verdict.to_dict` /
:meth:`Verdict.from_dict`), which is how ``repro eval`` stores it in a cached
cell and shows it again without re-measuring the figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .results import CurveSeries, FigureResult, format_float
from .scales import SCALES

__all__ = [
    "Band",
    "Claim",
    "Verdict",
    "TRUE",
    "above",
    "below",
    "at_least",
    "at_most",
    "final_ratio",
    "time_to",
]


@dataclass(frozen=True)
class Band:
    """The interval a measured value must fall in (open when ``strict``)."""

    lo: float = -math.inf
    hi: float = math.inf
    strict: bool = False

    def holds(self, value) -> bool:
        if self.strict:
            return bool(self.lo < value < self.hi)
        return bool(self.lo <= value <= self.hi)

    def __str__(self) -> str:
        if self == TRUE:
            return "true"
        lo, hi = f"{self.lo:g}", f"{self.hi:g}"
        if self.lo == -math.inf:
            return f"{'<' if self.strict else '≤'} {hi}"
        if self.hi == math.inf:
            return f"{'>' if self.strict else '≥'} {lo}"
        if self.lo == self.hi:
            return f"= {lo}"
        return f"({lo}, {hi})" if self.strict else f"[{lo}, {hi}]"


#: the band of a boolean fact
TRUE = Band(1, 1)


def above(x: float) -> Band:
    return Band(lo=x, strict=True)


def below(x: float) -> Band:
    return Band(hi=x, strict=True)


def at_least(x: float) -> Band:
    return Band(lo=x)


def at_most(x: float) -> Band:
    return Band(hi=x)


@dataclass(frozen=True)
class Claim:
    """One reproduced paper claim and how to check it."""

    claim_id: str
    #: where the claim lives, e.g. "Fig. 1b", "§VI", "Ext. [22]"
    figure: str
    #: ``None`` on a claim read back from a stored verdict (``Verdict.from_dict``)
    measure: Callable[[FigureResult], float] = field(repr=False)
    band: Band
    #: what the paper (or the extension) says, and what is measured
    sentence: str
    #: smallest shipped scale at which the claim holds
    scale: str = "tiny"

    def verdict(self, figure: FigureResult, scale: str) -> "Verdict":
        """Measure ``figure`` (run at ``scale``) against the band."""
        import numpy as np

        order = list(SCALES)
        if order.index(scale) < order.index(self.scale):
            return Verdict(self, "skip")
        value = self.measure(figure)
        value = bool(value) if isinstance(value, (bool, np.bool_)) else float(value)
        return Verdict(self, "pass" if self.band.holds(value) else "fail", value)


@dataclass(frozen=True)
class Verdict:
    """The outcome of one claim on one figure: pass, fail, or skip."""

    claim: Claim
    status: str
    value: float | bool | None = None

    #: the keys of :meth:`to_dict`, in order
    FIELDS = ("claim_id", "figure", "sentence", "scale", "band", "status", "value")

    def to_dict(self) -> dict:
        """JSON form: the claim's statement, its band, the outcome."""
        claim, band = self.claim, self.claim.band
        return {
            "claim_id": claim.claim_id,
            "figure": claim.figure,
            "sentence": claim.sentence,
            "scale": claim.scale,
            "band": {"lo": band.lo, "hi": band.hi, "strict": band.strict},
            "status": self.status,
            "value": self.value,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Verdict":
        """Inverse of :meth:`to_dict`; the claim comes back without its measure."""
        claim = Claim(
            doc["claim_id"],
            doc["figure"],
            None,
            Band(**doc["band"]),
            doc["sentence"],
            doc["scale"],
        )
        return cls(claim, doc["status"], doc["value"])

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    @property
    def mark(self) -> str:
        return {"pass": "✓", "fail": "✗"}.get(self.status, "–")

    def measured(self) -> str:
        if self.value is None:
            return f"not asserted below {self.claim.scale}"
        if isinstance(self.value, bool):
            return str(self.value).lower()
        return format_float(self.value)


def final_ratio(num: str, den: str) -> Callable[[FigureResult], float]:
    """Measure: final value of series ``num`` over that of series ``den``."""
    return lambda fig: fig.get(num).final() / fig.get(den).final()


def time_to(series: CurveSeries, eps: float) -> float:
    """First x at which ``series`` reaches ``eps`` (inf if it never does)."""
    import numpy as np

    hits = np.nonzero(series.y <= eps)[0]
    return float(series.x[hits[0]]) if hits.size else math.inf
