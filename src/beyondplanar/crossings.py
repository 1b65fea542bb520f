"""The crossing layer: which edges of a list properly cross.

An instance is a PointSet or an int n for n points in convex position in
index order. Every crossing graph, and every crossing count that is not
the closed form C(n, 4) of convex K_n, comes from `crossing_masks`, or
from `build_crossing_graph` for all of K(P) with its edges reordered by
their crossing counts.

It never tests a pair of edges. It uses the order-type view of Goodman
and Pollack: which points lie on each side of each edge ab, that is, the
sign of the exact integer det(b - a, w - a). With inc[w] the mask of the
edges ending at w, the XOR of inc over the points on one side of ab's
line keeps exactly the edges with one end on each side of it, once the
edges at a and b are masked out: an edge with both ends on that side
cancels. Either side gives the same row: each edge has two ends, so the
XOR of inc over every used point is 0, and the XORs over the two sides
differ by inc[a] ^ inc[b], which is masked out. Two edges properly cross
iff each one's line separates the other's ends; an edge that shares an
endpoint with ab has that end on its line and drops out. General position
makes every other sign nonzero. An edge's depth is the fewer used points
on either side of its line.

A convex instance, an int n or a PointSet that `validate_pointset` finds
in convex position, gives `crossing_masks` its rows from one ring: the
used points in clockwise order (index order for an int n, the hull order
for a PointSet). The left side of chord ab is the arc from a to b,
ring[lo:hi] read cyclically, cut just after a and just before b; the run
wraps past the ring's end when b comes first, and is then read from
hi mod len(ring) to lo, the other side. Over the ring each side is one
difference of prefix XORs, and chords whose ends alternate around the
ring cross, so the first test implies the second.

Any other PointSet takes one rotational sweep over its u used points,
the allowable sequence of Goodman and Pollack, and so does every
PointSet in `build_crossing_graph`: the ring gives rows only. Order the
points by their projection onto the normal (-sin t, cos t) of a
direction t. Just below t = 0 that is the order by (y, x). As t turns
through [0, pi), two points p and q meet when t passes the direction
q - p of their pair, oriented into [0, pi). There they have the same
projection and no third point does, since no three points are collinear,
so they sit next to each other, at positions lo and lo + 1, and swap.
Every pair swaps once, and at t = pi the order is reversed. Just before
the swap, order[:lo] are the points whose projection is below theirs,
det(q - p, w - p) < 0: the points strictly right of p -> q, one side of
the pair's line. So a pass over the C(u, 2) pairs in the order of their
directions gives every edge's side at its swap:

* its split edges are prefix[lo], a prefix XOR of inc over the order,
  kept current with one XOR per swap;
* its depth is min(lo, u - 2 - lo);
* below[w], the edges whose swap found w before them, comes from a lazy
  array over positions: an edge's bits go on marks[lo] for every
  position under lo, a swap hands marks[lo + 1] to both its points, so
  each keeps what it had collected, and one suffix pass at the end (over
  the reversed order) deals the marks out. An edge j's line separates c
  and d iff bit j of below[c] ^ below[d] is set, for c and d off it.

The pairs are sorted by `direction_key`, exact on integer coordinates
within COORD_LIMIT. Parallel pairs share a key: they lie on distinct
lines, so their swaps are disjoint and may come in any order. One exact
cross product per consecutive pair of directions certifies the order
anyway, and each swap asserts that its two points are adjacent.

The sweep is exact on every set in general position, so the crossing
graph has one path and its depths one formula. The ring would give a
convex set's graph in about half the time, but only `max_crossing_family`
on a convex set asks for it.

`segments_cross`, `PointSet.edges_cross`, `convex_edges_cross` and
`check_pairwise_crossing` decide one pair at a time and stay independent
of this layer, so they can re-check it.
"""

from __future__ import annotations

from itertools import accumulate, starmap
from operator import ge, itemgetter, lt, mul, xor
from typing import Iterable, Iterator, Sequence

from .geometry import Edge, PointSet, all_edges, direction_key, validate_pointset


def canonical_edge(n: int, e) -> Edge:
    """The edge in `Edge.of` form, checked to join two of the n vertices."""
    e = Edge.of(e[0], e[1])
    if e.u < 0 or e.v >= n:
        raise ValueError(f"edge {tuple(e)} out of range for n={n}")
    return e


def canonical_edges(instance: PointSet | int, edges: Iterable) -> list[Edge]:
    """The edges in `Edge.of` form, range-checked, without duplicates, sorted.

    In-range `Edge`s that are already strictly increasing, as
    `Coloring.classes()` gives them, come back in a new list as they are.
    """
    n = instance.n if isinstance(instance, PointSet) else instance
    edges = list(edges)
    if set(map(type, edges)) <= {Edge} and all(starmap(lt, edges)) and all(map(lt, edges, edges[1:])):
        if not edges or (edges[0].u >= 0 and max(map(itemgetter(1), edges)) < n):
            return edges
    # Sorted before the duplicates go, so edges already in order sort in one pass.
    pairs = list(dict.fromkeys(sorted([(a, b) if a < b else (b, a) for a, b in edges])))
    if pairs and (pairs[0][0] < 0 or max(map(itemgetter(1), pairs)) >= n or not all(starmap(lt, pairs))):
        for e in edges:  # raises at the first bad edge in the caller's order
            canonical_edge(n, e)
    return list(map(Edge._make, pairs))


def crossing_masks(instance: PointSet | int, edges: Sequence[Edge]) -> list[int]:
    """Bit j of masks[i] is set iff edges[i] and edges[j] properly cross.

    The edges keep the caller's order and must already be in `Edge.of`
    form and in range, as `canonical_edges` and `all_edges` give them.
    """
    convex = _convex_cuts(instance, edges)
    if convex is None:
        return _swept_rows(edges, *_swaps(instance, edges))[0]
    return _ring_rows(edges, *convex)


def class_crossing_masks(instance: PointSet | int, classes: Sequence[Sequence[Edge]]) -> Iterator[list[int]]:
    """Per class, the `crossing_masks` of its edges within the class.

    The classes must already be in `canonical_edges` form, as
    `crossing_masks` takes its edges. One `crossing_masks` call covers the
    classes' edges end to end; the rows of a class at offset lo with w
    edges are its edges' rows shifted down by lo and cut to w bits. An
    edge may lie in several classes.
    """
    rows = crossing_masks(instance, [e for edges in classes for e in edges])
    lo = 0
    for edges in classes:
        cut = (1 << len(edges)) - 1
        yield [row >> lo & cut for row in rows[lo : lo + len(edges)]]
        lo += len(edges)


def build_crossing_graph(points: PointSet) -> tuple[list[Edge], list[int], list[int]]:
    """(edges, masks, depths) of K(P), the edges in descending crossing degree.

    Ties keep lexicographic order. masks is `crossing_masks` of the
    reordered edges, and depths[i] is the smaller number of points on
    either side of edges[i]'s line. The swaps of one rotational sweep are
    sorted once, for every PointSet, convex or not: the rows are assembled
    from them in lexicographic order for the degrees, and again in the
    new order.
    """
    edges = all_edges(points.n)
    swaps = _swaps(points, edges)
    degree = [row.bit_count() for row in _swept_rows(edges, *swaps)[0]]
    edges = [edges[i] for i in sorted(range(len(edges)), key=lambda i: -degree[i])]
    return edges, *_swept_rows(edges, *swaps)


def _convex_cuts(instance: PointSet | int, edges: Sequence[Edge]) -> tuple[list[int], list[tuple[int, int]]] | None:
    """(ring, cuts) of an int n or a convex PointSet, else None.

    The ring is the used points in clockwise order, and the points
    strictly left of edges[i] are ring[lo:hi] for its cut (lo, hi), read
    cyclically, so hi may pass len(ring): edge (a, b) is cut just after a
    and just before b, wrapping when b comes first.
    """
    used = {w for e in edges for w in e}
    if isinstance(instance, PointSet):
        order = validate_pointset(instance)
        if order is None:
            return None
    else:
        order = sorted(used)
    ring = [w for w in order if w in used]
    at = {w: j for j, w in enumerate(ring)}
    m = len(ring)
    return ring, [(at[a] + 1, at[b] if at[a] < at[b] else at[b] + m) for a, b in edges]


def _ring_rows(edges: Sequence[Edge], ring: Sequence[int], cuts: list[tuple[int, int]]) -> list[int]:
    """`crossing_masks` from every edge's cut on the convex ring, as `_convex_cuts` gives them.

    Row i: the edges split by edge i's line. On the ring an edge split by
    edge i's line always splits edge i.
    """
    inc = dict.fromkeys(ring, 0)  # inc[w] = the mask of the edges ending at w
    for i, (a, b) in enumerate(edges):
        bit = 1 << i
        inc[a] |= bit
        inc[b] |= bit
    m = len(ring)
    prefix = list(accumulate([inc[w] for w in ring], xor, initial=0))
    # Either side of a cut gives the same row.
    return [(prefix[hi % m] ^ prefix[lo]) & ~(inc[a] | inc[b]) for (a, b), (lo, hi) in zip(edges, cuts)]


def _swaps(points: PointSet, edges: Sequence[Edge]) -> tuple[list[int], list[tuple[int, int]]]:
    """(order, swaps): the used points by (y, x), and each pair (p, q) of them in sweep order.

    p comes before q by (y, x), so q - p points into [0, pi), and the
    pairs come by that direction's `direction_key`, certified with one
    exact cross product per consecutive pair.
    """
    start = sorted([(points[w].y, points[w].x, w) for w in {w for e in edges for w in e}])
    pairs = [(qx - px, qy - py, p, q) for k, (py, px, p) in enumerate(start) for qy, qx, q in start[k + 1 :]]
    pairs.sort(key=direction_key)
    xs, ys, ps, qs = list(zip(*pairs)) or [()] * 4
    if not all(map(ge, map(mul, xs[:-1], ys[1:]), map(mul, ys[:-1], xs[1:]))):
        raise AssertionError("pair directions fail their cross-product check")
    return [w for _, _, w in start], list(zip(ps, qs))


def _swept_rows(edges: Sequence[Edge], order: list[int], swaps: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """(rows, depths) of the edges from one pass over the swaps that `_swaps` gives.

    Row i: the edges split by edge i's line whose own line splits edge i.
    """
    u, size = len(order), max(order, default=-1) + 1
    pos = [0] * size  # pos[w] = w's position in the order
    for k, w in enumerate(order):
        pos[w] = k
    pairs = [(a, b) if pos[a] < pos[b] else (b, a) for a, b in edges]  # each edge as its swap names it
    inc = [0] * size  # inc[w] = the mask of the edges ending at w
    at: dict[tuple[int, int], int] = {}  # (p, q) -> the bits of the edges joining p and q
    for i, pair in enumerate(pairs):
        bit = 1 << i
        inc[pair[0]] |= bit
        inc[pair[1]] |= bit
        at[pair] = at.get(pair, 0) | bit
    prefix = list(accumulate([inc[w] for w in order], xor, initial=0))
    marks = [0] * (u + 1)  # the bits of marks[k] go to every point at a position under k
    below = [0] * size  # below[w] ^ the marks above its position = the edges that found w before them
    cut: dict[tuple[int, int], tuple[int, int]] = {}  # (p, q) -> (split edges, lo) at its swap
    for pair in swaps:
        p, q = pair
        lo = pos[p]
        if pos[q] != lo + 1:
            raise AssertionError(f"points {p} and {q} swap but are not adjacent")
        bits = at.get(pair)
        if bits:
            cut[pair] = prefix[lo], lo
            marks[lo] ^= bits
        pos[p] = lo + 1
        pos[q] = lo
        prefix[lo + 1] = prefix[lo] ^ inc[q]
        bits = marks[lo + 1]
        below[p] ^= bits
        below[q] ^= bits
    side = 0
    for k, w in zip(range(u, 0, -1), order):  # every pair has swapped: order[j] is now at u - 1 - j
        side ^= marks[k]
        below[w] ^= side
    rows, depths = [], []
    for (a, b), pair in zip(edges, pairs):
        split, lo = cut[pair]
        rows.append(split & ~(inc[a] | inc[b]) & (below[a] ^ below[b]))
        depths.append(min(lo, u - 2 - lo))
    return rows, depths
