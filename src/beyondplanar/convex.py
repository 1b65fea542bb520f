"""Convex-position combinatorics: slope classes, interval partitions, k-planarity.

For points in convex position the crossing structure depends only on the
cyclic vertex order, so an int n stands for n points in convex position in
index order, and edges are index pairs on a virtual regular n-gon. Two
chords {i, j} and {k, l} of it are parallel exactly when i + j and k + l
agree mod n, which makes (i + j) mod n a slope label. `slope_partition`
also takes a PointSet in convex position, on its clockwise order;
`verify_k_planar` takes any PointSet and counts crossings on its points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .coloring import Coloring
from .crossings import canonical_edge, canonical_edges, class_crossing_masks
from .geometry import Edge, PointSet, validate_pointset


def convex_edges_cross(n: int, e: Edge, f: Edge) -> bool:
    """True iff chords e and f of a convex n-gon properly cross.

    Chords cross exactly when they share no endpoint and their endpoints
    interleave in cyclic order: precisely one endpoint of f lies in the
    open arc (e.u, e.v).
    """
    e = canonical_edge(n, e)
    f = canonical_edge(n, f)
    if e.u in f or e.v in f:
        return False
    return (e.u < f.u < e.v) != (e.u < f.v < e.v)


def slope_partition(instance: PointSet | int, s: int) -> Coloring:
    """Color every edge of convex K_n by its slope interval of width s.

    The instance is a PointSet in convex position, or an int n for convex
    position in index order. Slopes are taken on the clockwise order:
    with p(v) the position of vertex v in it, edge uv has slope
    (p(u) + p(v)) mod n. Slopes 0..n-1 are grouped into ceil(n/s)
    consecutive intervals starting at 0 (the last may be short); edge
    color = slope // s. Every class is (s-1)(s-2)/2-planar.
    """
    given_points = isinstance(instance, PointSet)
    n = instance.n if given_points else instance
    if n < 3:
        raise ValueError(f"n >= 3 required, got {n}")
    order = validate_pointset(instance) if given_points else range(n)
    if order is None:
        raise ValueError("slope partition requires points in convex position")
    if s < 1:
        raise ValueError(f"s >= 1 required, got {s}")
    pos = {v: p for p, v in enumerate(order)}
    colors = [((pos[u] + pos[v]) % n) // s for u in range(n) for v in range(u + 1, n)]
    return Coloring(n, -(-n // s), colors)


@dataclass(frozen=True)
class KPlanarResult:
    ok: bool
    witness: Edge | None = None
    crossings: int | None = None
    index: int | None = None  # position of the first failing class

    def __bool__(self) -> bool:
        return self.ok


def verify_k_planar(instance: PointSet | int, classes: Iterable[Iterable[Edge]], k: int) -> KPlanarResult:
    """Check that in each class every edge crosses at most k others of its class.

    The instance is a PointSet, or an int n for convex position in index
    order; classes is a sequence of edge lists, such as
    `coloring.classes().values()`, checked in one crossing pass. Every
    class is range-checked before any is verified, so an out-of-range
    edge in any class raises ValueError. On failure, index is the
    position of the first failing class and the witness its first
    offending edge in lexicographic order, together with its exact
    crossing count.
    """
    if k < 0:
        raise ValueError(f"k >= 0 required, got {k}")
    groups = [canonical_edges(instance, edges) for edges in classes]
    for index, (edges, masks) in enumerate(zip(groups, class_crossing_masks(instance, groups))):
        for e, mask in zip(edges, masks):
            if mask.bit_count() > k:
                return KPlanarResult(False, e, mask.bit_count(), index)
    return KPlanarResult(True)


def choose_block_size(k: int) -> int:
    """Largest slope-interval width s >= 3 whose classes stay k-planar.

    Classes of width s are (s-1)(s-2)/2-planar, so s is the largest integer
    with (s-1)(s-2)/2 <= k, that is s <= (3 + sqrt(8k + 1)) / 2; for k in
    {0, 1} that still permits the minimum legal width 3. Satisfies
    s >= sqrt(2k) for k >= 1.
    """
    if k < 0:
        raise ValueError(f"k >= 0 required, got {k}")
    return max(3, (3 + math.isqrt(8 * k + 1)) // 2)


def count_convex_crossings(n: int) -> int:
    """Number of properly crossing chord pairs of convex K_n: C(n, 4).

    Any four points of a convex polygon span exactly one crossing pair.
    """
    return math.comb(n, 4)
