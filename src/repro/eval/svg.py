"""Dependency-free inline-SVG charts for the HTML report renderer.

Design rules (kept deliberately boring and consistent):

* categorical series colors come from a fixed, colorblind-validated order
  and are assigned by position, never cycled — past eight series the
  remainder renders in muted ink and relies on the legend and data table;
* one y-axis per chart, thin 2px lines, recessive hairline grid, muted
  axis labels, primary-ink text;
* every chart with two or more series carries a legend; every plotted
  point/segment carries a native ``<title>`` tooltip;
* log-scale plots use decade ticks and silently drop non-positive points
  (duality gaps are positive; an all-non-positive series falls back to a
  linear axis).
"""

from __future__ import annotations

import math
from html import escape

__all__ = ["line_plot", "stacked_bar", "PALETTE", "CHROME"]

#: fixed categorical order (validated palette; see docs/evaluation.md)
PALETTE = (
    "#2a78d6",  # blue
    "#eb6834",  # orange
    "#1baf7a",  # aqua
    "#eda100",  # yellow
    "#e87ba4",  # magenta
    "#008300",  # green
    "#4a3aa7",  # violet
    "#e34948",  # red
)

#: chart chrome: surface, inks, grid, axis
CHROME = {
    "surface": "#fcfcfb",
    "ink": "#0b0b0b",
    "ink2": "#52514e",
    "muted": "#898781",
    "grid": "#e1e0d9",
    "axis": "#c3c2b7",
}

_FONT = 'font-family="system-ui, sans-serif"'


def series_color(index: int) -> str:
    """Positional color assignment; beyond the palette, muted ink."""
    return PALETTE[index] if index < len(PALETTE) else CHROME["muted"]


def _fmt(v: float) -> str:
    """Compact tick/tooltip number formatting."""
    if v == 0:
        return "0"
    if not math.isfinite(v):
        return "inf" if v > 0 else "-inf"
    a = abs(v)
    if 1e-3 <= a < 1e5:
        s = f"{v:.4g}"
        return s
    return f"{v:.2e}"


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    """Round linear tick positions covering [lo, hi]."""
    if hi <= lo:
        hi = lo + (abs(lo) if lo else 1.0)
    span = hi - lo
    raw = span / max(1, n)
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if span / step <= n:
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks or [lo, hi]


def _log_ticks(lo: float, hi: float) -> list[float]:
    """Decade ticks covering [lo, hi] (both > 0)."""
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    every = max(1, (hi_e - lo_e) // 8)
    return [10.0**e for e in range(lo_e, hi_e + 1, every)]


class _Frame:
    """Maps data space onto one padded SVG plot frame."""

    def __init__(self, width, height, pad_l, pad_r, pad_t, pad_b):
        self.width, self.height = width, height
        self.x0, self.x1 = pad_l, width - pad_r
        self.y0, self.y1 = pad_t, height - pad_b

    def sx(self, v, lo, hi, log=False):
        if log:
            v, lo, hi = math.log10(v), math.log10(lo), math.log10(hi)
        if hi <= lo:
            return (self.x0 + self.x1) / 2
        return self.x0 + (v - lo) / (hi - lo) * (self.x1 - self.x0)

    def sy(self, v, lo, hi, log=False):
        if log:
            v, lo, hi = math.log10(v), math.log10(lo), math.log10(hi)
        if hi <= lo:
            return (self.y0 + self.y1) / 2
        return self.y1 - (v - lo) / (hi - lo) * (self.y1 - self.y0)


def _svg_open(width: int, height: int, desc: str) -> list[str]:
    return [
        f'<svg role="img" xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {width} {height}" width="{width}" height="{height}">',
        f"<desc>{escape(desc)}</desc>",
        f'<rect width="{width}" height="{height}" fill="{CHROME["surface"]}"/>',
    ]


def _axis_labels(
    out: list, frame: _Frame, x_label: str, y_label: str
) -> None:
    cx = (frame.x0 + frame.x1) / 2
    out.append(
        f'<text x="{cx:.1f}" y="{frame.height - 6}" text-anchor="middle" '
        f'{_FONT} font-size="12" fill="{CHROME["ink2"]}">{escape(x_label)}</text>'
    )
    cy = (frame.y0 + frame.y1) / 2
    out.append(
        f'<text x="14" y="{cy:.1f}" text-anchor="middle" {_FONT} '
        f'font-size="12" fill="{CHROME["ink2"]}" '
        f'transform="rotate(-90 14 {cy:.1f})">{escape(y_label)}</text>'
    )


def _legend_rows(labels: list[str], width: int) -> int:
    """Rows the legend needs (0 below two labels), flowed like :func:`_legend`."""
    if len(labels) < 2:
        return 0
    est_x, rows = 0.0, 1
    for label in labels:
        est = 28 + 6.4 * len(label)
        if est_x + est > (width - 110) and est_x > 0:
            est_x, rows = 0.0, rows + 1
        est_x += est
    return rows


def _legend(out: list, frame: _Frame, labels: list[str]) -> None:
    """Legend rows along the top of the frame (always shown for >= 2)."""
    x, y = frame.x0, 16
    for i, label in enumerate(labels):
        color = series_color(i)
        text = escape(label)
        est = 18 + 6.4 * len(label)
        if x + est > frame.x1 and x > frame.x0:
            x, y = frame.x0, y + 16
        out.append(
            f'<rect x="{x:.1f}" y="{y - 8}" width="10" height="10" rx="2" '
            f'fill="{color}"/>'
            f'<text x="{x + 14:.1f}" y="{y + 1}" {_FONT} font-size="11" '
            f'fill="{CHROME["ink2"]}">{text}</text>'
        )
        x += est + 10


def line_plot(
    series: list[dict],
    *,
    x_label: str = "x",
    y_label: str = "y",
    log_y: bool = False,
    width: int = 680,
    height: int = 340,
    desc: str = "",
) -> str:
    """Multi-series line chart. ``series``: dicts with label/x/y lists."""
    pts_by_series: list[tuple[str, list[tuple[float, float]]]] = []
    for s in series:
        pts = [
            (float(x), float(y))
            for x, y in zip(s["x"], s["y"])
            if math.isfinite(float(x)) and math.isfinite(float(y))
        ]
        pts_by_series.append((str(s["label"]), pts))

    use_log = log_y and any(
        sum(1 for _, y in pts if y > 0) >= 1 for _, pts in pts_by_series
    )
    if use_log:
        pts_by_series = [
            (label, [(x, y) for x, y in pts if y > 0])
            for label, pts in pts_by_series
        ]

    all_pts = [p for _, pts in pts_by_series for p in pts]
    n_series = len(pts_by_series)
    legend_rows = _legend_rows([label for label, _ in pts_by_series], width)
    pad_t = 14 + 16 * legend_rows
    frame = _Frame(width, height, 62, 16, pad_t, 34)
    out = _svg_open(width, height, desc or f"{y_label} vs {x_label}")

    if not all_pts:
        out.append(
            f'<text x="{width / 2}" y="{height / 2}" text-anchor="middle" '
            f'{_FONT} font-size="12" fill="{CHROME["muted"]}">no finite data'
            "</text>"
        )
        out.append("</svg>")
        return "\n".join(out)

    x_lo = min(p[0] for p in all_pts)
    x_hi = max(p[0] for p in all_pts)
    y_lo = min(p[1] for p in all_pts)
    y_hi = max(p[1] for p in all_pts)
    if use_log:
        y_ticks = _log_ticks(y_lo, y_hi)
        y_lo = min(y_lo, y_ticks[0])
        y_hi = max(y_hi, y_ticks[-1])
    else:
        if y_lo > 0 and y_lo < 0.25 * y_hi:
            y_lo = 0.0  # anchor near-zero linear axes at zero
        y_ticks = _nice_ticks(y_lo, y_hi)
        y_lo = min(y_lo, y_ticks[0])
        y_hi = max(y_hi, y_ticks[-1])
    x_ticks = _nice_ticks(x_lo, x_hi)
    x_lo = min(x_lo, x_ticks[0])
    x_hi = max(x_hi, x_ticks[-1])

    # grid + tick labels (recessive)
    for t in y_ticks:
        y = frame.sy(t, y_lo, y_hi, use_log)
        out.append(
            f'<line x1="{frame.x0}" y1="{y:.1f}" x2="{frame.x1}" y2="{y:.1f}" '
            f'stroke="{CHROME["grid"]}" stroke-width="1"/>'
            f'<text x="{frame.x0 - 6}" y="{y + 3.5:.1f}" text-anchor="end" '
            f'{_FONT} font-size="10.5" fill="{CHROME["muted"]}" '
            f'style="font-variant-numeric: tabular-nums">{_fmt(t)}</text>'
        )
    for t in x_ticks:
        x = frame.sx(t, x_lo, x_hi)
        out.append(
            f'<text x="{x:.1f}" y="{frame.y1 + 14}" text-anchor="middle" '
            f'{_FONT} font-size="10.5" fill="{CHROME["muted"]}" '
            f'style="font-variant-numeric: tabular-nums">{_fmt(t)}</text>'
        )
    # baseline axis
    out.append(
        f'<line x1="{frame.x0}" y1="{frame.y1}" x2="{frame.x1}" '
        f'y2="{frame.y1}" stroke="{CHROME["axis"]}" stroke-width="1"/>'
    )

    for i, (label, pts) in enumerate(pts_by_series):
        if not pts:
            continue
        color = series_color(i)
        coords = " ".join(
            f"{frame.sx(x, x_lo, x_hi):.1f},{frame.sy(y, y_lo, y_hi, use_log):.1f}"
            for x, y in pts
        )
        tooltip = escape(label)
        if len(pts) == 1:
            x, y = pts[0]
            out.append(
                f'<circle cx="{frame.sx(x, x_lo, x_hi):.1f}" '
                f'cy="{frame.sy(y, y_lo, y_hi, use_log):.1f}" r="4" '
                f'fill="{color}"><title>{tooltip}: {_fmt(y)}</title></circle>'
            )
            continue
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="2" stroke-linejoin="round" '
            f'stroke-linecap="round"><title>{tooltip}</title></polyline>'
        )
        if len(pts) <= 24:  # point markers only when they stay readable
            for x, y in pts:
                out.append(
                    f'<circle cx="{frame.sx(x, x_lo, x_hi):.1f}" '
                    f'cy="{frame.sy(y, y_lo, y_hi, use_log):.1f}" r="3" '
                    f'fill="{color}" stroke="{CHROME["surface"]}" '
                    f'stroke-width="1.5"><title>{tooltip}: '
                    f"({_fmt(x)}, {_fmt(y)})</title></circle>"
                )

    if n_series >= 2:
        _legend(out, frame, [label for label, _ in pts_by_series])
    _axis_labels(out, frame, x_label, y_label)
    out.append("</svg>")
    return "\n".join(out)


def stacked_bar(
    categories: list[str],
    components: dict[str, list[float]],
    *,
    x_label: str = "",
    y_label: str = "",
    width: int = 680,
    height: int = 300,
    desc: str = "",
) -> str:
    """Vertical stacked bars (Fig. 9-style breakdowns).

    ``components`` maps component label -> one value per category, stacked
    in insertion order with a 2px surface gap between segments.
    """
    n = len(categories)
    labels = list(components)
    totals = [
        sum(components[label][i] for label in labels) for i in range(n)
    ]
    hi = max(totals) if totals else 1.0
    legend_rows = _legend_rows(labels, width)
    frame = _Frame(width, height, 62, 16, 14 + 16 * legend_rows, 34)
    out = _svg_open(
        width, height, desc or f"stacked breakdown of {y_label or 'values'}"
    )
    y_ticks = _nice_ticks(0.0, hi if hi > 0 else 1.0)
    hi = max(hi, y_ticks[-1]) or 1.0
    for t in y_ticks:
        y = frame.sy(t, 0.0, hi)
        out.append(
            f'<line x1="{frame.x0}" y1="{y:.1f}" x2="{frame.x1}" y2="{y:.1f}" '
            f'stroke="{CHROME["grid"]}" stroke-width="1"/>'
            f'<text x="{frame.x0 - 6}" y="{y + 3.5:.1f}" text-anchor="end" '
            f'{_FONT} font-size="10.5" fill="{CHROME["muted"]}" '
            f'style="font-variant-numeric: tabular-nums">{_fmt(t)}</text>'
        )
    slot = (frame.x1 - frame.x0) / max(1, n)
    bar_w = min(64.0, slot * 0.56)
    for i, cat in enumerate(categories):
        cx = frame.x0 + slot * (i + 0.5)
        y_cursor = 0.0
        for j, label in enumerate(labels):
            v = float(components[label][i])
            if v <= 0:
                y_cursor += max(v, 0.0)
                continue
            y_top = frame.sy(y_cursor + v, 0.0, hi)
            y_bot = frame.sy(y_cursor, 0.0, hi)
            out.append(
                f'<rect x="{cx - bar_w / 2:.1f}" y="{y_top:.1f}" '
                f'width="{bar_w:.1f}" height="{max(y_bot - y_top, 0.5):.1f}" '
                f'fill="{series_color(j)}" stroke="{CHROME["surface"]}" '
                f'stroke-width="2"><title>{escape(cat)} — {escape(label)}: '
                f"{_fmt(v)}</title></rect>"
            )
            y_cursor += v
        out.append(
            f'<text x="{cx:.1f}" y="{frame.y1 + 14}" text-anchor="middle" '
            f'{_FONT} font-size="10.5" fill="{CHROME["muted"]}">'
            f"{escape(str(cat))}</text>"
        )
    out.append(
        f'<line x1="{frame.x0}" y1="{frame.y1}" x2="{frame.x1}" '
        f'y2="{frame.y1}" stroke="{CHROME["axis"]}" stroke-width="1"/>'
    )
    if len(labels) >= 2:
        _legend(out, frame, labels)
    _axis_labels(out, frame, x_label, y_label)
    out.append("</svg>")
    return "\n".join(out)
