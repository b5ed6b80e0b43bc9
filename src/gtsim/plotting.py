"""Dependency-free SVG line charts with deterministic layout.

Diagnostic plots only: fixed canvas, fixed tick logic, no timestamps, so the
same data always renders byte-identical output. Log-scale y is available for
tail-probability series, where exponential decay reads as a straight line.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = ["render_line_chart"]

_WIDTH, _HEIGHT = 720, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 30, 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float, count: int = 6):
    if hi <= lo:
        hi = lo + 1.0
    parts = max(count - 1, 1)
    raw = (hi - lo) / parts
    if raw == math.inf:  # the width overflows; the difference of its parts does not
        raw = hi / parts - lo / parts
    # a step below the least positive float is that float
    raw = max(raw, math.ulp(0.0))
    mag = 10.0 ** math.floor(math.log10(raw))
    # the first round multiple of the decade that covers raw; raw itself
    # where the decade is subnormal and none does
    step = next((mult * mag for mult in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= mult * mag), raw)
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    end = min(hi + 1e-12 * step, sys.float_info.max)
    while v <= end:
        ticks.append(v)
        if v + step == v:  # a step below v's resolution would never end
            break
        v += step
    return ticks


def _widen(lo: float, hi: float):
    """An axis range with room to step through: an empty one gains 1.0, or,
    where 1.0 is below lo's resolution, a millionth of lo's magnitude (below
    lo where above it overflows)."""
    if hi <= lo:
        hi = lo + 1.0
        if hi <= lo:
            hi = lo + abs(lo) * 1e-6
            if hi == math.inf:
                lo, hi = lo - abs(lo) * 1e-6, lo
    return lo, hi


def _unit(lo: float, hi: float):
    """The map v -> (v - lo) / (hi - lo), for scalars and arrays, finite on
    every finite range: where hi - lo overflows, it maps the halves of v, lo
    and hi, whose width does not."""
    if math.isfinite(hi - lo):
        return lambda v: (v - lo) / (hi - lo)
    lo, hi = lo * 0.5, hi * 0.5
    return lambda v: (v * 0.5 - lo) / (hi - lo)


def render_line_chart(series: dict, title: str, ylabel: str = "value", log_y: bool = False) -> str:
    """Render named (x, y) arrays as one SVG document string, x labelled
    "iteration".

    ``series`` maps a legend label to a pair of equal-length sequences.
    Non-finite points, and with ``log_y`` non-positive points, are left out
    of the drawn path and the axis range.
    """
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    # each series' drawn points, y already on the axis scale
    drawn = []
    for xs, ys in series.values():
        x = np.asarray(xs, dtype=float)
        y = np.asarray(ys, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        if log_y:
            keep &= y > 0
        x, y = x[keep], y[keep]
        if log_y:
            # math.log10 per point: np.log10 need not round every point alike
            y = np.fromiter(map(math.log10, y.tolist()), float, y.size)
        drawn.append((x, y))
    if any(x.size for x, _ in drawn):
        x_all = np.concatenate([x for x, _ in drawn])
        y_all = np.concatenate([y for _, y in drawn])
        x_lo, x_hi = _widen(float(x_all.min()), float(x_all.max()))
        y_lo, y_hi = _widen(float(y_all.min()), float(y_all.max()))
    else:
        x_lo, x_hi = 0.0, 1.0
        y_lo = 0.0 if log_y else 1.0
        y_hi = y_lo + 1.0

    # for tick scalars and point arrays alike
    ux, uy = _unit(x_lo, x_hi), _unit(y_lo, y_hi)

    def sx(x):
        return _MARGIN_L + ux(x) * plot_w

    def sy(yv):
        return _MARGIN_T + plot_h - uy(yv) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="20" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14">{title}</text>',
    ]

    # axes and ticks
    ax_b = _MARGIN_T + plot_h
    out.append(
        f'<path d="M {_MARGIN_L} {_MARGIN_T} L {_MARGIN_L} {ax_b} L {_MARGIN_L + plot_w} {ax_b}" '
        f'stroke="black" fill="none"/>'
    )
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        out.append(f'<line x1="{px:.2f}" y1="{ax_b}" x2="{px:.2f}" y2="{ax_b + 5}" stroke="black"/>')
        out.append(
            f'<text x="{px:.2f}" y="{ax_b + 18}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="11">{_fmt(tx)}</text>'
        )
    if log_y:
        lo_exp = math.floor(y_lo)
        hi_exp = math.ceil(y_hi)
        ticks_y = list(range(int(lo_exp), int(hi_exp) + 1))
        labels = [f"1e{e}" for e in ticks_y]
    else:
        ticks_y = _ticks(y_lo, y_hi)
        labels = [_fmt(t) for t in ticks_y]
    for tv, lab in zip(ticks_y, labels):
        py = sy(tv)
        if py < _MARGIN_T - 1 or py > ax_b + 1:
            continue
        out.append(f'<line x1="{_MARGIN_L - 5}" y1="{py:.2f}" x2="{_MARGIN_L}" y2="{py:.2f}" stroke="black"/>')
        out.append(
            f'<text x="{_MARGIN_L - 8}" y="{py + 4:.2f}" text-anchor="end" font-family="sans-serif" '
            f'font-size="11">{lab}</text>'
        )
    out.append(
        f'<text x="{_MARGIN_L + plot_w // 2}" y="{_HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">iteration</text>'
    )
    out.append(
        f'<text x="18" y="{_MARGIN_T + plot_h // 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 18 {_MARGIN_T + plot_h // 2})">{ylabel}</text>'
    )

    # polylines and legend
    for idx, (label, (x, y)) in enumerate(zip(series, drawn)):
        color = _COLORS[idx % len(_COLORS)]
        if x.size:
            # one % call formats every coordinate pair
            pairs = np.column_stack((sx(x), sy(y))).ravel().tolist()
            coords = " ".join(["%.2f,%.2f"] * x.size) % tuple(pairs)
            out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 14 + 16 * idx
        lx = _MARGIN_L + plot_w - 150
        out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 24}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        out.append(
            f'<text x="{lx + 30}" y="{ly + 4}" font-family="sans-serif" font-size="11">{label}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
