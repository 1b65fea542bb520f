"""Convex-position combinatorics: slope classes, interval partitions, k-planarity.

Everything here is index-combinatorial. For points in convex position the
crossing structure depends only on the cyclic vertex order, so edges are
plain index pairs on a virtual regular n-gon and no coordinates appear.
Two chords {i, j} and {k, l} of the regular n-gon are parallel exactly when
i + j and k + l agree mod n, which makes (i + j) mod n a slope label.
`verify_k_planar` also takes a PointSet, so one verifier serves both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .coloring import Coloring
from .crossings import canonical_edges, crossing_masks
from .geometry import Edge, PointSet, all_edges


def _check_edge(n: int, e: Edge) -> Edge:
    e = Edge.of(e[0], e[1])
    if not 0 <= e.u < e.v < n:
        raise ValueError(f"edge {tuple(e)} out of range for n={n}")
    return e


def slope_class(n: int, e: Edge) -> int:
    """Slope label of chord e on the regular n-gon: (i + j) mod n."""
    e = _check_edge(n, e)
    return (e.u + e.v) % n


def convex_edges_cross(n: int, e: Edge, f: Edge) -> bool:
    """True iff chords e and f of a convex n-gon properly cross.

    Chords cross exactly when they share no endpoint and their endpoints
    interleave in cyclic order: precisely one endpoint of f lies in the
    open arc (e.u, e.v).
    """
    e = _check_edge(n, e)
    f = _check_edge(n, f)
    if e.u in f or e.v in f:
        return False
    return (e.u < f.u < e.v) != (e.u < f.v < e.v)


def slope_partition(n: int, s: int) -> Coloring:
    """Color every edge of convex K_n by its slope interval of width s.

    Slopes 0..n-1 are grouped into ceil(n/s) consecutive intervals starting
    at 0 (the last may be short); edge color = slope // s. Every class is
    (s-1)(s-2)/2-planar.
    """
    if n < 3:
        raise ValueError(f"n >= 3 required, got {n}")
    if s < 1:
        raise ValueError(f"s >= 1 required, got {s}")
    num_colors = -(-n // s)
    assignment = {e: ((e.u + e.v) % n) // s for e in all_edges(n)}
    return Coloring(n, num_colors, assignment)


def slope_position(n: int, s: int, e: Edge) -> int:
    """1-based position of e's slope inside its width-s interval."""
    return slope_class(n, e) % s + 1


def position_crossing_cap(s: int, j: int) -> int:
    """Most same-class crossings for an edge at slope position j of s.

    Within one interval, an edge can meet at most d-1 edges per in-interval
    slope at distance d, summed over both directions:
    (j-1)(j-2)/2 + (s-j)(s-j-1)/2 = (s-1)(s-2)/2 - (s-j)(j-1).
    """
    if not 1 <= j <= s:
        raise ValueError(f"position {j} outside 1..{s}")
    return (s - 1) * (s - 2) // 2 - (s - j) * (j - 1)


@dataclass(frozen=True)
class KPlanarResult:
    ok: bool
    witness: Edge | None = None
    crossings: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_k_planar(instance: PointSet | int, edges: Iterable[Edge], k: int) -> KPlanarResult:
    """Check that every edge in the set crosses at most k others in the set.

    The instance is a PointSet, or an int n for convex position in index
    order. On failure the witness is the first offending edge in
    lexicographic order together with its exact crossing count.
    """
    if k < 0:
        raise ValueError(f"k >= 0 required, got {k}")
    es = canonical_edges(instance, edges)
    for e, mask in zip(es, crossing_masks(instance, es)):
        if mask.bit_count() > k:
            return KPlanarResult(False, e, mask.bit_count())
    return KPlanarResult(True)


def choose_block_size(k: int) -> int:
    """Largest slope-interval width s >= 3 whose classes stay k-planar.

    Classes of width s are (s-1)(s-2)/2-planar, so s is the largest integer
    with (s-1)(s-2)/2 <= k; for k in {0, 1} that still permits the minimum
    legal width 3. Satisfies s >= sqrt(2k) for k >= 1.
    """
    if k < 0:
        raise ValueError(f"k >= 0 required, got {k}")
    s = 3
    while s * (s - 1) // 2 <= k:  # (s'-1)(s'-2)/2 for s' = s+1
        s += 1
    return s


def count_convex_crossings(n: int, edges: Iterable[Edge] | None = None) -> int:
    """Number of properly crossing chord pairs; all of K_n when edges is None.

    Any four points of a convex polygon span exactly one crossing pair, so
    K_n has C(n, 4) of them.
    """
    if edges is None:
        return math.comb(n, 4)
    return sum(mask.bit_count() for mask in crossing_masks(n, canonical_edges(n, edges))) // 2
