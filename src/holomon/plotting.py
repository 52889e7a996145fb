"""Byte-stable SVG text for series partial sums and residual decay.

The plot is deliberately hand-rolled: fixed canvas, fixed formatting of
floats, no timestamps, so identical data produces identical bytes.  The
CLI writes the text, as it writes every other output.
"""

from __future__ import annotations

import math

_W, _H, _PAD = 640, 400, 48


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _polyline(points, color: str) -> str:
    body = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{body}"/>')


def _frame(title: str, xlabel: str, ylabel: str) -> list:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_PAD}" y1="{_H - _PAD}" x2="{_W - _PAD}" y2="{_H - _PAD}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{_PAD}" y1="{_PAD}" x2="{_PAD}" y2="{_H - _PAD}" '
        'stroke="black" stroke-width="1"/>',
        f'<text x="{_W // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{_W // 2}" y="{_H - 10}" text-anchor="middle" '
        f'font-size="12">{xlabel}</text>',
        f'<text x="14" y="{_H // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {_H // 2})">{ylabel}</text>',
    ]


def _scale(values, lo_pix, hi_pix):
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + 1.0
    span = hi - lo

    def to_pix(v):
        return lo_pix + (v - lo) / span * (hi_pix - lo_pix)

    return to_pix


def plot_svg(points, title: str, xlabel: str, ylabel: str, logy: bool = False) -> str:
    """A deterministic SVG of the given (x, y) pairs.

    With ``logy`` the positive y-values are plotted on a decimal log scale
    (e.g. residual decay).  The legend counts the points drawn, and the
    values <= 0 that ``logy`` left out, so an empty plot says so.
    """
    pts = []
    dropped = 0
    for x, y in points:
        x, y = float(x), float(y)
        if logy:
            if y <= 0:
                dropped += 1
                continue
            y = math.log10(y)
        pts.append((x, y))
    lines = _frame(title, xlabel, ylabel + (" (log10)" if logy else ""))
    legend = f"n={len(pts)}"
    if pts:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        sx = _scale(xs, _PAD, _W - _PAD)
        sy = _scale(ys, _H - _PAD, _PAD)
        lines.append(_polyline([(sx(x), sy(y)) for x, y in pts], "#1f6fb2"))
        legend = f"min={_fmt(min(ys))} max={_fmt(max(ys))} {legend}"
    if dropped:
        legend += f", {dropped} values &lt;= 0 not drawn"
    lines.append(f'<text x="{_W - _PAD}" y="{_PAD - 8}" text-anchor="end" '
                 f'font-size="10">{legend}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
