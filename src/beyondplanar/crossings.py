"""The crossing layer: which edges of a list properly cross.

An instance is a PointSet, decided with the exact segment predicate, or an
int n for n points in convex position in index order, where two chords
cross iff their endpoints interleave. Every crossing graph, and every
crossing count that is not the closed form C(n, 4) of convex K_n, comes
from `crossing_masks`. `convex_edges_cross`, `PointSet.edges_cross` and
`check_pairwise_crossing` stay independent of it so that they can
re-check its answers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .geometry import Edge, PointSet, segments_cross


def canonical_edges(instance: PointSet | int, edges: Iterable) -> list[Edge]:
    """The edges in `Edge.of` form, range-checked, without duplicates, sorted."""
    n = instance.n if isinstance(instance, PointSet) else instance
    out = set()
    for e in edges:
        e = Edge.of(e[0], e[1])
        if e.u < 0 or e.v >= n:
            raise ValueError(f"edge {tuple(e)} out of range for n={n}")
        out.add(e)
    return sorted(out)


def _interleave(a: int, b: int, c: int, d: int) -> bool:
    # Chords a<b and c<d of a convex polygon cross iff exactly one of c, d
    # lies strictly between a and b and no endpoint is shared.
    return a < c < b < d or c < a < d < b


def crossing_masks(instance: PointSet | int, edges: Sequence[Edge]) -> list[int]:
    """Bit j of masks[i] is set iff edges[i] and edges[j] properly cross.

    The edges keep the caller's order and must already be in `Edge.of`
    form and in range, as `canonical_edges` and `all_edges` give them.
    """
    if isinstance(instance, PointSet):
        p = instance.points
        ends = [(p[u], p[v]) for u, v in edges]
        cross = segments_cross
    else:
        ends = edges
        cross = _interleave
    masks = [0] * len(ends)
    for i, (a, b) in enumerate(ends):
        bit, row = 1 << i, 0
        for j in range(i + 1, len(ends)):
            c, d = ends[j]
            if cross(a, b, c, d):
                row |= 1 << j
                masks[j] |= bit
        masks[i] |= row
    return masks
