"""The crossing layer: which edges of a list properly cross.

An instance is a PointSet or an int n for n points in convex position in
index order. Every crossing graph, and every crossing count that is not
the closed form C(n, 4) of convex K_n, comes from `crossing_masks`.

It never tests a pair of edges. It uses side masks, the order-type view
of Goodman and Pollack: for each edge ab and each point w that the edge
list touches, one exact integer sign, det(b - a, w - a) on a PointSet and
(w - a)(b - w) in convex position (positive iff w lies strictly between a
and b). Whole rows of bitmasks then give the edges whose ends ab
separates and the edges each point lies left of. Two edges properly cross
iff each one's line separates the other's ends; an edge that shares an
endpoint with ab has that end on its line and drops out. General position
makes every other sign nonzero. The same signs give each edge's depth,
the fewer points on either side of its line; only `build_crossing_graph`
asks for depths, so no other caller pays for counting them.
`segments_cross`, `PointSet.edges_cross`, `convex_edges_cross` and
`check_pairwise_crossing` decide one pair at a time and stay independent
of this layer, so they can re-check it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .geometry import Edge, PointSet


def canonical_edge(n: int, e) -> Edge:
    """The edge in `Edge.of` form, checked to join two of the n vertices."""
    e = Edge.of(e[0], e[1])
    if e.u < 0 or e.v >= n:
        raise ValueError(f"edge {tuple(e)} out of range for n={n}")
    return e


def canonical_edges(instance: PointSet | int, edges: Iterable) -> list[Edge]:
    """The edges in `Edge.of` form, range-checked, without duplicates, sorted."""
    n = instance.n if isinstance(instance, PointSet) else instance
    return sorted({canonical_edge(n, e) for e in edges})


def crossing_masks(instance: PointSet | int, edges: Sequence[Edge]) -> list[int]:
    """Bit j of masks[i] is set iff edges[i] and edges[j] properly cross.

    The edges keep the caller's order and must already be in `Edge.of`
    form and in range, as `canonical_edges` and `all_edges` give them.
    """
    return _crossing_pass(instance, edges)


def _crossing_pass(
    instance: PointSet | int, edges: Sequence[Edge], depths: list[int] | None = None
) -> list[int]:
    """`crossing_masks`; when a `depths` list is given, also append each edge's depth to it.

    The depth of an edge is the smaller number of the touched points on
    either side of its line, counted from the same signs as the masks.
    """
    inc: dict[int, int] = {}  # point -> mask of the edges ending at it
    for i, e in enumerate(edges):
        for w in e:
            inc[w] = inc.get(w, 0) | 1 << i
    used = sorted(inc)
    if isinstance(instance, PointSet):
        xy = [(p.x, p.y) for p in instance.points]
        used_xy = [xy[w] for w in used]
    left_of = dict.fromkeys(used, 0)  # point -> mask of the edges it lies left of
    split = []  # split[i] = mask of the edges whose ends lie on both sides of edge i
    for i, (a, b) in enumerate(edges):
        if isinstance(instance, PointSet):
            (ax, ay), (bx, by) = xy[a], xy[b]
            dx, dy = bx - ax, by - ay
            sides = [dx * (y - ay) - dy * (x - ax) for x, y in used_xy]
        else:
            sides = [(w - a) * (b - w) for w in used]
        bit, left, right = 1 << i, 0, 0
        for w, s in zip(used, sides):
            if s > 0:
                left |= inc[w]
                left_of[w] |= bit
            elif s < 0:
                right |= inc[w]
        split.append(left & right)
        if depths is not None:
            on_left = len([s for s in sides if s > 0])
            depths.append(min(on_left, len(used) - 2 - on_left))
    return [row & (left_of[a] ^ left_of[b]) for row, (a, b) in zip(split, edges)]
