"""Minimal dependency-free SVG polyline plots."""

from __future__ import annotations

import math

WIDTH, HEIGHT = 720, 420
MARGIN = 55


def _ticks(lo, hi, n=5):
    """Round tick values in [lo, hi]; line_plot widens an empty range first."""
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / n))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * span:
        out.append(v)
        v += step
    return out


def line_plot(path, series, title="", ylabel="", logy=False):
    """series: list of (label, xs, ys, color). Points that are not finite,
    or not positive on a log scale, are left out; with none left the plot
    is its empty frame."""
    kept = [
        [
            (x, math.log10(y) if logy else y)
            for x, y in zip(xs, ys)
            if math.isfinite(x) and math.isfinite(y) and (not logy or y > 0)
        ]
        for _, xs, ys, _ in series
    ]
    xs_all = [x for pts in kept for x, _ in pts] or [0.0]
    ys_all = [y for pts in kept for _, y in pts] or [0.0]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return MARGIN + (x - x0) / (x1 - x0) * (WIDTH - 2 * MARGIN)

    def sy(y):
        return HEIGHT - MARGIN - (y - y0) / (y1 - y0) * (HEIGHT - 2 * MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" text-anchor="middle" font-size="12">t</text>',
        f'<text x="15" y="{HEIGHT / 2}" font-size="12" '
        f'transform="rotate(-90 15 {HEIGHT / 2})" text-anchor="middle">{ylabel}</text>',
    ]
    for tv in _ticks(x0, x1):
        parts.append(
            f'<text x="{sx(tv):.1f}" y="{HEIGHT - MARGIN + 16}" text-anchor="middle" '
            f'font-size="10">{tv:.4g}</text>'
        )
    for tv in _ticks(y0, y1):
        label = f"1e{tv:.3g}" if logy else f"{tv:.4g}"
        parts.append(
            f'<text x="{MARGIN - 6}" y="{sy(tv):.1f}" text-anchor="end" '
            f'font-size="10">{label}</text>'
        )
    for i, ((label, _, _, color), pts) in enumerate(zip(series, kept)):
        if not pts:
            continue
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.4"/>')
        parts.append(
            f'<text x="{WIDTH - MARGIN - 4}" y="{MARGIN + 14 * (i + 1)}" text-anchor="end" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
