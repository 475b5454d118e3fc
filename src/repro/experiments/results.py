"""Result containers for the reproduced figures and tables.

Every experiment driver returns a :class:`FigureResult` holding one
:class:`CurveSeries` per plotted line (or one row group per table).  The
containers render to aligned text so the benchmark harness can print exactly
the rows/series the paper reports, and EXPERIMENTS.md is generated from the
same structures.

numpy is imported only inside the functions that compute on arrays, so a
reader of cached figures (the ``repro eval`` report) never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = ["CurveSeries", "FigureResult", "format_float"]


def format_float(x: float) -> str:
    """Compact scientific/decimal formatting for report tables."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "-"
    if math.isinf(x):
        return "inf"
    if x == 0:
        return "0"
    if 1e-3 <= abs(x) < 1e4:
        return f"{x:.4g}"
    return f"{x:.3e}"


def _jsonify(value):
    """Recursively convert numpy scalars/arrays so ``json.dumps`` accepts it."""
    import numpy as np

    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value


@dataclass
class CurveSeries:
    """One plotted line: a label and matched x/y arrays."""

    label: str
    x: np.ndarray
    y: np.ndarray
    x_name: str = "x"
    y_name: str = "y"
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        import numpy as np

        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.x.shape != self.y.shape:
            raise ValueError(
                f"series {self.label!r}: x has shape {self.x.shape}, "
                f"y has shape {self.y.shape}"
            )

    def final(self) -> float:
        return float(self.y[-1]) if self.y.size else math.nan

    def to_dict(self) -> dict:
        """JSON-serialisable form (numpy arrays become lists of floats)."""
        return {
            "label": self.label,
            "x_name": self.x_name,
            "y_name": self.y_name,
            "x": [float(v) for v in self.x],
            "y": [float(v) for v in self.y],
            "meta": _jsonify(self.meta),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CurveSeries":
        """Inverse of :meth:`to_dict` (used by the eval result cache)."""
        return cls(
            label=doc["label"],
            x=doc["x"],
            y=doc["y"],
            x_name=doc.get("x_name", "x"),
            y_name=doc.get("y_name", "y"),
            meta=dict(doc.get("meta", {})),
        )


@dataclass
class FigureResult:
    """A reproduced figure/table: id, title, series, and free-form notes."""

    figure_id: str
    title: str
    series: list[CurveSeries] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, series: CurveSeries) -> None:
        self.series.append(series)

    def get(self, label: str) -> CurveSeries:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series labelled {label!r} in {self.figure_id}")

    def labels(self) -> list[str]:
        return [s.label for s in self.series]

    def to_dict(self) -> dict:
        """JSON-serialisable form of the whole figure."""
        return {
            "figure_id": self.figure_id,
            "title": self.title,
            "series": [s.to_dict() for s in self.series],
            "notes": list(self.notes),
            "meta": _jsonify(self.meta),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FigureResult":
        """Inverse of :meth:`to_dict` (used by the eval result cache)."""
        return cls(
            figure_id=doc["figure_id"],
            title=doc.get("title", ""),
            series=[CurveSeries.from_dict(s) for s in doc.get("series", [])],
            notes=list(doc.get("notes", [])),
            meta=dict(doc.get("meta", {})),
        )

    # -- rendering --------------------------------------------------------
    def render_text(self, *, max_rows: int = 12) -> str:
        """Aligned text rendering of every series (downsampled for length)."""
        import numpy as np

        lines = [f"== {self.figure_id}: {self.title} =="]
        for s in self.series:
            lines.append(f"-- {s.label}  ({s.x_name} -> {s.y_name})")
            n = s.x.shape[0]
            if n == 0:
                lines.append("   (empty)")
                continue
            idx: Sequence[int]
            if n <= max_rows:
                idx = range(n)
            else:
                idx = sorted(
                    set(np.linspace(0, n - 1, max_rows).astype(int).tolist())
                )
            row_x = "  ".join(f"{format_float(s.x[i]):>10}" for i in idx)
            row_y = "  ".join(f"{format_float(s.y[i]):>10}" for i in idx)
            lines.append(f"   {s.x_name:>10}: {row_x}")
            lines.append(f"   {s.y_name:>10}: {row_y}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render_text()
