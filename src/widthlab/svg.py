"""Minimal self-contained SVG emitter for log-log diagnostics.

No plotting dependency: figures are diagnostics, not deliverables.  Emits a
scatter of positive (x, y) pairs on decade-ticked log axes plus an optional
fitted power law drawn as a line.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _decades(lo: float, hi: float):
    start = math.floor(math.log10(lo))
    stop = math.ceil(math.log10(hi))
    return [10.0**e for e in range(start, stop + 1)]


def loglog_plot_svg(x: Sequence[float], y: Sequence[float],
                    slope: Optional[float], intercept: Optional[float],
                    title: str, xlabel: str, ylabel: str) -> str:
    """Log-log scatter with decade ticks and an optional fitted line.

    ``slope``/``intercept`` describe ``log y = slope * log x + intercept``
    (natural logs, as produced by the shared fitting helper).
    """
    pts = [(float(a), float(b)) for a, b in zip(x, y)
           if a > 0 and b > 0 and math.isfinite(a) and math.isfinite(b)]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="18" text-anchor="middle">{title}</text>',
    ]
    if not pts:
        parts.append(f'<text x="{_W / 2:.1f}" y="{_H / 2:.1f}" '
                     'text-anchor="middle">no positive data</text></svg>')
        return "\n".join(parts)

    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    xlo, xhi = min(xs) / 1.3, max(xs) * 1.3
    ylo, yhi = min(ys) / 1.3, max(ys) * 1.3
    if xlo == xhi:
        xlo, xhi = xlo / 2, xhi * 2
    if ylo == yhi:
        ylo, yhi = ylo / 2, yhi * 2

    def px(v):
        return _ML + (math.log10(v) - math.log10(xlo)) / (
            math.log10(xhi) - math.log10(xlo)) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (math.log10(v) - math.log10(ylo)) / (
            math.log10(yhi) - math.log10(ylo)) * (_H - _MT - _MB)

    # frame and decade ticks
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
                 f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>')
    for t in _decades(xlo, xhi):
        if xlo <= t <= xhi:
            parts.append(f'<line x1="{px(t):.1f}" y1="{_H - _MB}" x2="{px(t):.1f}" '
                         f'y2="{_H - _MB + 5}" stroke="black"/>')
            parts.append(f'<text x="{px(t):.1f}" y="{_H - _MB + 18}" '
                         f'text-anchor="middle">1e{int(round(math.log10(t)))}</text>')
    for t in _decades(ylo, yhi):
        if ylo <= t <= yhi:
            parts.append(f'<line x1="{_ML - 5}" y1="{py(t):.1f}" x2="{_ML}" '
                         f'y2="{py(t):.1f}" stroke="black"/>')
            parts.append(f'<text x="{_ML - 8}" y="{py(t) + 4:.1f}" '
                         f'text-anchor="end">1e{int(round(math.log10(t)))}</text>')
    parts.append(f'<text x="{_W / 2:.1f}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{_H / 2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {_H / 2:.1f})">{ylabel}</text>')

    if slope is not None and intercept is not None:
        fy0 = math.exp(intercept + slope * math.log(xlo))
        fy1 = math.exp(intercept + slope * math.log(xhi))
        if fy0 > 0 and fy1 > 0:
            parts.append(
                f'<line x1="{px(xlo):.1f}" y1="{py(min(max(fy0, ylo), yhi)):.1f}" '
                f'x2="{px(xhi):.1f}" y2="{py(min(max(fy1, ylo), yhi)):.1f}" '
                'stroke="steelblue" stroke-width="1.5"/>')
            parts.append(f'<text x="{_W - _MR - 4}" y="{_MT + 14}" text-anchor="end" '
                         f'fill="steelblue">slope={slope:.4f}</text>')

    for a, b in pts:
        parts.append(f'<circle cx="{px(a):.1f}" cy="{py(b):.1f}" r="3" '
                     'fill="crimson" fill-opacity="0.8"/>')
    parts.append("</svg>")
    return "\n".join(parts)
