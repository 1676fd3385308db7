"""Minimal hand-rolled SVG emitters for the three report plot types:
histogram with density overlays, forest plot, and density curves.

Pure string construction — no graphics dependency, byte-deterministic
output for identical inputs.  Titles and labels are XML-escaped, so ids
such as ``A&B`` or ``X<1>`` keep the file well-formed.
"""

from __future__ import annotations

from html import escape

import numpy as np

__all__ = ["histogram_svg", "forest_svg", "density_svg"]

_WIDTH = 640
_HEIGHT = 400
_MARGIN_L = 60
_MARGIN_R = 20
_MARGIN_T = 20
_MARGIN_B = 45

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _text(s: str) -> str:
    """``s`` as XML character data (``&``, ``<`` and ``>`` escaped)."""
    return escape(s, quote=False)


def _f(v: float) -> str:
    return f"{v:.2f}"


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<title>{_text(title)}</title>',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]


def _x_scale(lo: float, hi: float):
    span = hi - lo or 1.0
    inner = _WIDTH - _MARGIN_L - _MARGIN_R

    def to_px(v: float) -> float:
        return _MARGIN_L + (v - lo) / span * inner

    return to_px


def _y_scale(lo: float, hi: float):
    span = hi - lo or 1.0
    inner = _HEIGHT - _MARGIN_T - _MARGIN_B

    def to_px(v: float) -> float:
        return _HEIGHT - _MARGIN_B - (v - lo) / span * inner

    return to_px


def _x_axis(parts: list[str], x_px, lo: float, hi: float, label: str) -> None:
    y0 = _HEIGHT - _MARGIN_B
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{y0}" x2="{_WIDTH - _MARGIN_R}" y2="{y0}" '
        f'stroke="black" stroke-width="1"/>'
    )
    for tick in np.linspace(lo, hi, 6):
        px = x_px(float(tick))
        parts.append(
            f'<line x1="{_f(px)}" y1="{y0}" x2="{_f(px)}" y2="{y0 + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_f(px)}" y="{y0 + 18}" font-size="11" text-anchor="middle" '
            f'font-family="sans-serif">{tick:.3g}</text>'
        )
    parts.append(
        f'<text x="{(_MARGIN_L + _WIDTH - _MARGIN_R) / 2:.1f}" y="{_HEIGHT - 8}" '
        f'font-size="12" text-anchor="middle" font-family="sans-serif">{_text(label)}</text>'
    )


def _points(xs, ys, x_px, y_px) -> str:
    """The points' pixel pairs as ``x,y`` with two decimals, mapped as whole
    arrays (the same float operations, in the same order, as one point)."""
    px = x_px(np.asarray(xs, dtype=float)).tolist()
    py = y_px(np.asarray(ys, dtype=float)).tolist()
    return " ".join(map("{:.2f},{:.2f}".format, px, py))


def _polyline(xs, ys, x_px, y_px, color: str) -> str:
    pts = _points(xs, ys, x_px, y_px)
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'


def histogram_svg(
    values,
    overlays: list[tuple[str, np.ndarray, np.ndarray]] | None = None,
    x_label: str = "value",
    title: str = "histogram",
) -> str:
    """Density-scaled histogram with optional labeled density overlays
    (each overlay is a (label, xs, ys) triple)."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("no values to plot")
    counts, edges = np.histogram(v, bins=40, density=True)
    overlays = overlays or []
    y_max = float(counts.max())
    for _, _, ys in overlays:
        y_max = max(y_max, float(np.max(ys)))
    x_lo, x_hi = float(edges[0]), float(edges[-1])
    for _, xs, _ in overlays:
        x_lo, x_hi = min(x_lo, float(np.min(xs))), max(x_hi, float(np.max(xs)))
    x_px = _x_scale(x_lo, x_hi)
    y_px = _y_scale(0.0, 1.05 * y_max)

    parts = _header(title)
    for c, lo_e, hi_e in zip(counts, edges[:-1], edges[1:]):
        if c <= 0.0:
            continue
        x0, x1 = x_px(float(lo_e)), x_px(float(hi_e))
        y0, y1 = y_px(float(c)), y_px(0.0)
        parts.append(
            f'<rect x="{_f(x0)}" y="{_f(y0)}" width="{_f(x1 - x0)}" '
            f'height="{_f(y1 - y0)}" fill="#c6dbef" stroke="#6baed6" stroke-width="0.5"/>'
        )
    for i, (label, xs, ys) in enumerate(overlays):
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(_polyline(xs, ys, x_px, y_px, color))
        parts.append(
            f'<text x="{_WIDTH - _MARGIN_R - 5}" y="{_MARGIN_T + 15 * (i + 1)}" '
            f'font-size="11" text-anchor="end" fill="{color}" '
            f'font-family="sans-serif">{_text(label)}</text>'
        )
    _x_axis(parts, x_px, x_lo, x_hi, x_label)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def forest_svg(rows: list[dict], title: str = "forest plot") -> str:
    """Forest plot from rows with keys label, estimate, lo, hi."""
    if not rows:
        raise ValueError("no rows to plot")
    x_lo = min(float(r["lo"]) for r in rows)
    x_hi = max(float(r["hi"]) for r in rows)
    pad = 0.05 * (x_hi - x_lo or 1.0)
    x_px = _x_scale(x_lo - pad, x_hi + pad)
    row_h = (_HEIGHT - _MARGIN_T - _MARGIN_B) / (len(rows) + 1)

    parts = _header(title)
    if x_lo <= 0.0 <= x_hi:
        zero = x_px(0.0)
        parts.append(
            f'<line x1="{_f(zero)}" y1="{_MARGIN_T}" x2="{_f(zero)}" '
            f'y2="{_HEIGHT - _MARGIN_B}" stroke="#999999" stroke-dasharray="4 3"/>'
        )
    for i, r in enumerate(rows):
        y = _MARGIN_T + row_h * (i + 1)
        lo_px, hi_px = x_px(float(r["lo"])), x_px(float(r["hi"]))
        est_px = x_px(float(r["estimate"]))
        summary = str(r.get("weight_or_type", "")) in ("posterior", "comparator")
        color = "#d62728" if summary else "#1f77b4"
        parts.append(
            f'<line x1="{_f(lo_px)}" y1="{_f(y)}" x2="{_f(hi_px)}" y2="{_f(y)}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        if summary:
            s = 5.0
            parts.append(
                f'<polygon points="{_f(est_px - s)},{_f(y)} {_f(est_px)},{_f(y - s)} '
                f'{_f(est_px + s)},{_f(y)} {_f(est_px)},{_f(y + s)}" fill="{color}"/>'
            )
        else:
            parts.append(f'<rect x="{_f(est_px - 3)}" y="{_f(y - 3)}" width="6" height="6" fill="{color}"/>')
        parts.append(
            f'<text x="5" y="{_f(y + 4)}" font-size="11" '
            f'font-family="sans-serif">{_text(r["label"])}</text>'
        )
    _x_axis(parts, x_px, x_lo - pad, x_hi + pad, "effect")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def density_svg(
    curves: list[tuple[str, np.ndarray, np.ndarray]],
    shade: tuple[float, float] | None = None,
    x_label: str = "value",
    title: str = "density",
) -> str:
    """Overlaid density curves with an optional shaded central interval
    (applied to the first curve)."""
    if not curves:
        raise ValueError("no curves to plot")
    x_lo = min(float(np.min(xs)) for _, xs, _ in curves)
    x_hi = max(float(np.max(xs)) for _, xs, _ in curves)
    y_max = max(float(np.max(ys)) for _, _, ys in curves)
    x_px = _x_scale(x_lo, x_hi)
    y_px = _y_scale(0.0, 1.05 * y_max)

    parts = _header(title)
    if shade is not None:
        label0, xs0, ys0 = curves[0]
        xs0 = np.asarray(xs0, dtype=float)
        ys0 = np.asarray(ys0, dtype=float)
        lo, hi = shade
        mask = (xs0 >= lo) & (xs0 <= hi)
        if mask.any():
            seg_x = xs0[mask]
            # down to the axis at both ends of the interval
            pts = _points(np.r_[seg_x[0], seg_x, seg_x[-1]], np.r_[0.0, ys0[mask], 0.0], x_px, y_px)
            parts.append(f'<polygon points="{pts}" fill="#cccccc"/>')
    for i, (label, xs, ys) in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(_polyline(xs, ys, x_px, y_px, color))
        parts.append(
            f'<text x="{_WIDTH - _MARGIN_R - 5}" y="{_MARGIN_T + 15 * (i + 1)}" '
            f'font-size="11" text-anchor="end" fill="{color}" '
            f'font-family="sans-serif">{_text(label)}</text>'
        )
    _x_axis(parts, x_px, x_lo, x_hi, x_label)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
