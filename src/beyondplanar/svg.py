"""Deterministic SVG rendering of point sets and edge partitions.

One stroke color per class from a fixed 12-color palette (cycling when a
partition has more classes). Points in convex position go on a circle
in their clockwise order, any other set is drawn to scale. Output is
byte-stable: fixed float format, one group per class that holds an edge,
in color order, with its edges in lexicographic order, and vertices last.
"""

from __future__ import annotations

import math

from .coloring import Coloring
from .geometry import PointSet, validate_pointset

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#17becf",
    "#e377c2",
    "#8c564b",
    "#bcbd22",
    "#7f7f7f",
    "#aec7e8",
    "#98df8a",
)

_SIZE = 640
_MARGIN = 40
_POINT_RADIUS = 4.0
_STROKE_WIDTH = 1.6


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _circle_layout(n: int) -> list[tuple[float, float]]:
    # n slots clockwise from 12 o'clock, one per place in a clockwise convex
    # order, whatever the coordinates (the convex generator's lie on a parabola).
    c = _SIZE / 2.0
    r = c - _MARGIN
    out = []
    for i in range(n):
        theta = math.pi / 2 - 2.0 * math.pi * i / n
        out.append((c + r * math.cos(theta), c - r * math.sin(theta)))
    return out


def _coordinate_layout(points: PointSet) -> list[tuple[float, float]]:
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1)
    scale = (_SIZE - 2.0 * _MARGIN) / span
    # Center the drawing; SVG y grows downward.
    off_x = (_SIZE - (hi_x - lo_x) * scale) / 2.0
    off_y = (_SIZE - (hi_y - lo_y) * scale) / 2.0
    return [(off_x + (p.x - lo_x) * scale, _SIZE - off_y - (p.y - lo_y) * scale) for p in points]


def render_svg(points: PointSet, coloring: Coloring | None = None) -> str:
    """Render the point set and its edge partition as an SVG document.

    Points that `validate_pointset` gives a clockwise convex order go on
    a circle in that order; any other set, 1 or 2 points included, is
    drawn to scale. Without a coloring, all edges form one class; one of
    another n raises ValueError. Empty classes draw nothing, so the output
    grows with the edges, not with the declared class count.
    """
    n = points.n
    if coloring is None:
        coloring = Coloring(n, 1, [0] * (n * (n - 1) // 2)) if n >= 2 else None
    elif coloring.n != n:
        raise ValueError(f"instance has n={n}, coloring has n={coloring.n}")
    order = validate_pointset(points)
    if order is None:
        pos = _coordinate_layout(points)
    else:
        slots = _circle_layout(n)
        pos = [(0.0, 0.0)] * n
        for slot, orig in enumerate(order):
            pos[orig] = slots[slot]

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]
    if coloring is not None:
        for color, edges in coloring.classes().items():
            stroke = PALETTE[color % len(PALETTE)]
            out.append(f'<g stroke="{stroke}" stroke-width="{_fmt(_STROKE_WIDTH)}" fill="none">')
            for e in edges:
                (x1, y1), (x2, y2) = pos[e.u], pos[e.v]
                out.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>')
            out.append("</g>")
    out.append('<g fill="black">')
    for x, y in pos:
        out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(_POINT_RADIUS)}"/>')
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
