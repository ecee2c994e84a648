"""Hand-emitted SVG line charts of a quantity against sigma for the CLI.

Deliberately dependency-free: `render` takes plain sequences and draws each
series as a polyline distinguished by dash pattern (and color as a secondary
cue), with simple linear axes.  Points that are not finite are left out.
Output is deterministic for equal input, and any finite input draws in
bounded time: an axis span too narrow to divide is widened first, and the
ticks are integer multiples of one step, at most 2 * TICKS + 1 per axis.
"""

from __future__ import annotations

import math
import sys

PALETTE = ["#1f3b73", "#b23a2f", "#2f7d4f", "#8a6d1f", "#5b3a8a", "#356f7d"]
DASHES = ["", "8 4", "2 3", "8 3 2 3", "12 3", "4 6"]
WIDTH, HEIGHT = 760, 500
XLABEL = "sigma"
# the number of tick steps an axis aims at
TICKS = 6


def _finite(points):
    return [(float(x), float(y)) for x, y in points if math.isfinite(x) and math.isfinite(y)]


def _span(lo: float, hi: float):
    """lo and hi, hi raised to lo + 1 where the span is empty, and to
    lo + max(1, |lo|) where the span is then too narrow for a normal tick
    step: past 2**53 in magnitude adding 1 is lost to rounding, and a
    subnormal span has no normal step."""
    if hi <= lo:
        hi = lo + 1.0
    if hi - lo < TICKS * sys.float_info.min:
        hi = lo + max(1.0, abs(lo))
    return lo, hi


def _nice_ticks(lo: float, hi: float):
    """The multiples in lo..hi of a 1-2-5 step of about (hi - lo) / TICKS;
    at most 2 * TICKS + 1 of them where rounding blurs hi / step."""
    raw = (hi - lo) / TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step)
    last = min(math.floor(hi / step + 1e-9), first + 2 * TICKS)
    return [k * step for k in range(first, last + 1)]


def _stroke(i: int) -> str:
    """The stroke attributes of series i, on its line and its legend entry."""
    dash = DASHES[i % len(DASHES)]
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return f'stroke="{PALETTE[i % len(PALETTE)]}" stroke-width="1.6"{dash_attr}'


def render(title: str, ylabel: str, series, markers=(), hlines=()) -> str:
    """Render a chart to an SVG string: series are (label, xs, ys), markers
    (label, x, y) and hlines (label, y)."""
    pad_l, pad_r, pad_t, pad_b = 64, 16, 36, 46
    plot_w = WIDTH - pad_l - pad_r
    plot_h = HEIGHT - pad_t - pad_b

    series = [(label, _finite(zip(xs, ys))) for label, xs, ys in series]
    markers = [m for m in markers if math.isfinite(m[1]) and math.isfinite(m[2])]
    pts_all = [p for _, pts in series for p in pts] + [(x, y) for _, x, y in markers]
    pts_all = pts_all or [(0.0, 0.0), (1.0, 1.0)]
    xs = [x for x, _ in pts_all]
    ys = [y for _, y in pts_all] + [y for _, y in hlines]
    x_lo, x_hi = _span(min(xs), max(xs))
    y_lo, y_hi = _span(min(ys), max(ys))
    x_ticks, y_ticks = _nice_ticks(x_lo, x_hi), _nice_ticks(y_lo, y_hi)
    x_pad = 0.04 * (x_hi - x_lo)
    y_pad = 0.07 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def sx(x):
        return pad_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return pad_t + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]

    # axes and grid
    for t in x_ticks:
        px = sx(t)
        out += [
            f'<line x1="{px:.2f}" y1="{pad_t}" x2="{px:.2f}" '
            f'y2="{pad_t + plot_h}" stroke="#dddddd" stroke-width="1"/>',
            f'<text x="{px:.2f}" y="{pad_t + plot_h + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:.4g}</text>',
        ]
    for t in y_ticks:
        py = sy(t)
        out += [
            f'<line x1="{pad_l}" y1="{py:.2f}" x2="{pad_l + plot_w}" '
            f'y2="{py:.2f}" stroke="#dddddd" stroke-width="1"/>',
            f'<text x="{pad_l - 6}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{t:.4g}</text>',
        ]
    out += [
        f'<rect x="{pad_l}" y="{pad_t}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>',
        f'<text x="{pad_l + plot_w / 2:.1f}" y="{HEIGHT - 10}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        f"{XLABEL}</text>",
        f'<text x="16" y="{pad_t + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {pad_t + plot_h / 2:.1f})">{ylabel}</text>',
    ]

    for label, y in hlines:
        py = sy(y)
        out += [
            f'<line x1="{pad_l}" y1="{py:.2f}" x2="{pad_l + plot_w}" '
            f'y2="{py:.2f}" stroke="#888888" stroke-width="1" stroke-dasharray="3 3"/>',
            f'<text x="{pad_l + plot_w - 4}" y="{py - 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10" fill="#666666">{label}</text>',
        ]

    for i, (_, pts) in enumerate(series):
        if pts:
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            out.append(f'<polyline points="{coords}" fill="none" {_stroke(i)}/>')

    for label, x, y in markers:
        px, py = sx(x), sy(y)
        out += [
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3.4" fill="#111111"/>',
            f'<text x="{px + 6:.2f}" y="{py - 6:.2f}" font-family="sans-serif" '
            f'font-size="11">{label}</text>',
        ]

    # legend: every series, an empty one too
    lx = pad_l + 10
    ly = pad_t + 14
    for i, (label, _) in enumerate(series):
        out += [
            f'<line x1="{lx}" y1="{ly + 14 * i}" x2="{lx + 26}" y2="{ly + 14 * i}" '
            f"{_stroke(i)}/>",
            f'<text x="{lx + 32}" y="{ly + 14 * i + 4}" font-family="sans-serif" '
            f'font-size="11">{label}</text>',
        ]

    out.append("</svg>")
    return "\n".join(out) + "\n"
