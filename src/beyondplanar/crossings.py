"""The crossing layer: which edges of a list properly cross.

An instance is a PointSet or an int n for n points in convex position in
index order. Every crossing graph, and every crossing count that is not
the closed form C(n, 4) of convex K_n, comes from `crossing_masks`, or
from `crossings_in_degree_order` when the edges are to be reordered by
their crossing counts.

It never tests a pair of edges. It uses the order-type view of Goodman
and Pollack: which points lie strictly left of each edge ab, that is,
where the exact integer det(b - a, w - a) is positive. That left side is
always a run of a ring, cut at two points (lo, hi): ring[lo:hi], read
cyclically. A convex instance, an int n or a PointSet that
`validate_pointset` finds in convex position, has one ring: the used
points in clockwise order (index order for an int n, the hull order for
a PointSet). The left side of chord ab is then the arc from a to b, so
edge (a, b) is cut just after a and just before b, and the run wraps
past the ring's end when b comes first. Any other PointSet cuts each
edge a < b on the ring of its lower end a: the other used points in
angular order around a.

With inc[w] the mask of the edges ending at w, the XOR of inc over the
points left of ab keeps exactly the edges with one end on each side of
ab's line, once the edges at a and b are masked out: an edge with both
ends on the left cancels. Over one ring that is one difference of prefix
XORs. Two edges properly cross iff each one's line separates the other's
ends; an edge that shares an endpoint with ab has that end on its line
and drops out. General position makes every other sign nonzero. On the
convex ring the first test implies the second, since chords whose ends
alternate around the ring cross. Off it, toggling each edge's bit at
both cuts of a difference list gives, in one running XOR, left_of[w],
the edges point w lies left of.

Either side of a cut gives the same rows, so a run that wraps past the
ring's end is read from hi mod len(ring) to lo with no branch. The ring
holds every used point but a (on the convex ring, every used point), and
each edge has two ends, so the XORs of inc over the two sides differ by
inc[a] (on the convex ring, not at all), which is masked out. Reading
the other side flips edge i's bit in left_of at every ring point, which
leaves left_of[c] ^ left_of[d] unchanged for every edge cd without an
end at a; the edges at a are masked out of edge i's crossings anyway.
An edge's depth, the fewer points on either side of its line, is
min(run, touched - 2 - run), with run = hi - lo the length of its left
side and touched the number of used points: the two ends lie on the
line, whichever ring the edge is cut on.

On any other PointSet one angular sweep per apex finds every run, in
O(n^2 log n) for K_n instead of O(n^3) signs, and K_n costs n - 1 sorts.
Around an apex the other used points are sorted by an exact integer
key: the half plane, then floor(-dx * 2^64 / dy). Coordinates within
COORD_LIMIT = 2^30 bound |dx| and |dy| by 2^31, so two distinct slopes
differ by at least 2^-62 and their keys by at least 3; one exact cross
product per adjacent pair certifies the order anyway. The points
strictly left of a -> b are the run that follows b in the cyclic order
up to the first point at an angle of pi or more, and a two-pointer
advance on exact cross products finds every run around the apex.

`segments_cross`, `PointSet.edges_cross`, `convex_edges_cross` and
`check_pairwise_crossing` decide one pair at a time and stay independent
of this layer, so they can re-check it.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, starmap
from operator import gt, itemgetter, lt, mul, xor
from typing import Iterable, Iterator, Sequence

from .geometry import Edge, PointSet, validate_pointset

# Sweep keys: a slope key floor(-dx * 2^64 / dy) lies within +/-2^95, the
# direction with dy = 0 that opens each half plane takes _ON_AXIS below all of
# them, and _HALF puts the upper half plane (angles in [0, pi)) below 0 and
# the lower one above.
_HALF = 1 << 97
_ON_AXIS = -(1 << 96)


def canonical_edge(n: int, e) -> Edge:
    """The edge in `Edge.of` form, checked to join two of the n vertices."""
    e = Edge.of(e[0], e[1])
    if e.u < 0 or e.v >= n:
        raise ValueError(f"edge {tuple(e)} out of range for n={n}")
    return e


def canonical_edges(instance: PointSet | int, edges: Iterable) -> list[Edge]:
    """The edges in `Edge.of` form, range-checked, without duplicates, sorted."""
    n = instance.n if isinstance(instance, PointSet) else instance
    edges = list(edges)
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
    return _rows(edges, _left_runs(instance, edges))


def class_crossing_masks(
    instance: PointSet | int, classes: Iterable[Iterable]
) -> Iterator[tuple[list[Edge], list[int]]]:
    """Per class, its `canonical_edges` and their `crossing_masks` within the class.

    One `crossing_masks` call covers the classes' edges end to end; the
    rows of a class at offset lo with w edges are its edges' rows shifted
    down by lo and cut to w bits. An edge may lie in several classes.
    """
    groups = [canonical_edges(instance, edges) for edges in classes]
    rows = crossing_masks(instance, [e for edges in groups for e in edges])
    lo = 0
    for edges in groups:
        cut = (1 << len(edges)) - 1
        yield edges, [row >> lo & cut for row in rows[lo : lo + len(edges)]]
        lo += len(edges)


def crossings_in_degree_order(points: PointSet, edges: Sequence[Edge]) -> tuple[list[Edge], list[int], list[int]]:
    """(edges, masks, depths), the edges reordered by descending crossing degree.

    Ties keep the given order. masks is `crossing_masks` of the reordered
    edges, and depths[i] is the smaller number of touched points on either
    side of edges[i]'s line. The cuts are found once: the rows are
    assembled from them in the given order for the degrees, and again,
    with the cuts renumbered, in the new order.
    """
    runs = _left_runs(points, edges)
    degree = [row.bit_count() for row in _rows(edges, runs)]
    order = sorted(range(len(edges)), key=lambda i: -degree[i])
    rank = {i: k for k, i in enumerate(order)}
    runs = [(ring, [(rank[i], lo, hi) for i, lo, hi in cuts]) for ring, cuts in runs]
    other = len({w for e in edges for w in e}) - 2  # the touched points off an edge's line
    depths = [0] * len(edges)
    for ring, cuts in runs:
        for i, lo, hi in cuts:
            depths[i] = min(hi - lo, other - (hi - lo))
    edges = [edges[i] for i in order]
    return edges, _rows(edges, runs), depths


def _left_runs(
    instance: PointSet | int, edges: Sequence[Edge]
) -> list[tuple[Sequence[int], list[tuple[int, int, int]]]]:
    """(ring, cuts) per ring: the cut (i, lo, hi) of each edge on it.

    The points strictly left of edges[i] are ring[lo:hi], read cyclically,
    so hi may pass len(ring). An int n and a convex PointSet take one
    ring, the used points in clockwise order, with edge (a, b) cut just
    after a and just before b, wrapping when b comes first. Any other
    PointSet cuts each edge on the ring of its lower end, one sweep per
    such end for all its edges.
    """
    used = {w for e in edges for w in e}
    if isinstance(instance, PointSet):
        order = validate_pointset(instance) if instance.n >= 3 else range(instance.n)
    else:
        order = sorted(used)
    if order is not None:
        ring = [w for w in order if w in used]
        at = {w: j for j, w in enumerate(ring)}
        m = len(ring)
        return [(ring, [(i, at[a] + 1, at[b] if at[a] < at[b] else at[b] + m) for i, (a, b) in enumerate(edges)])]
    swept: dict[int, list[int]] = {}  # lower end -> the edges swept from it
    for i, e in enumerate(edges):
        swept.setdefault(e.u, []).append(i)
    xy = [(instance[w].x, instance[w].y, w) for w in used]
    runs = []
    for apex, ids in swept.items():
        ax, ay = instance[apex].x, instance[apex].y
        ring, cut = _sweep([(x - ax, y - ay, w) for x, y, w in xy if w != apex], {edges[i].v for i in ids})
        runs.append((ring, [(i, *cut[edges[i].v]) for i in ids]))
    return runs


def _sweep(ring: list[tuple[int, int, int]], ends: set[int]) -> tuple[tuple[int, ...], dict[int, tuple[int, int]]]:
    """(order, cut): the ring's points by angle, and for each end b the run (lo, hi) strictly left of the apex -> b.

    The ring holds (dx, dy, w) of every used point but the apex, dx and
    dy taken from the apex. The run is order[lo:hi], read cyclically.
    """
    # The half plane ((dy or dx) < 0 in the lower one), then floor(-dx * 2^64 / dy),
    # which rises with the angle.
    ring = sorted(
        [
            (((-dx << 64) // dy if dy else _ON_AXIS) + (_HALF if (dy or dx) < 0 else -_HALF), dx, dy, w)
            for dx, dy, w in ring
        ]
    )
    keys, xs, ys, order = zip(*ring)
    m, upper = len(keys), bisect_left(keys, 0)
    for lo, hi in ((0, upper), (upper, m)):  # one half plane each: every step turns left
        if not all(map(gt, map(mul, xs[lo : hi - 1], ys[lo + 1 : hi]), map(mul, ys[lo : hi - 1], xs[lo + 1 : hi]))):
            raise AssertionError("angular order around a point fails its cross-product check")
    xs, ys = xs + xs, ys + ys
    cut = {}
    j = 0  # end of the run left of the last end swept; it only moves forward
    for p, b in enumerate(order):
        if b in ends:
            bx, by = xs[p], ys[p]
            if j <= p:
                j = p + 1
            while j < p + m and bx * ys[j] > by * xs[j]:
                j += 1
            cut[b] = (p + 1, j)
    return order, cut


def _rows(edges: Sequence[Edge], runs: list[tuple[Sequence[int], list[tuple[int, int, int]]]]) -> list[int]:
    """`crossing_masks` from every edge's cut on its ring, as `_left_runs` gives them.

    Row i: the edges split by edge i's line whose own line splits edge i.
    A ring that holds every used point is their convex order, where an
    edge split by edge i's line always splits edge i, so the second test
    is left out.
    """
    inc: dict[int, int] = {}  # inc[w] = the mask of the edges ending at w
    for i, (a, b) in enumerate(edges):
        bit = 1 << i
        inc[a] = inc.get(a, 0) | bit
        inc[b] = inc.get(b, 0) | bit
    split = [0] * len(edges)  # split[i] = the edges with one end on each side of edge i's line
    for ring, cuts in runs:
        m = len(ring)
        prefix = list(accumulate([inc[w] for w in ring], xor, initial=0))
        for i, lo, hi in cuts:
            split[i] = prefix[hi % m] ^ prefix[lo]  # either side of a cut gives the same row
    if len(runs) == 1 and len(runs[0][0]) == len(inc):
        return [split[i] & ~(inc[a] | inc[b]) for i, (a, b) in enumerate(edges)]
    left_of = dict.fromkeys(inc, 0)  # left_of[w] = the edges point w lies left of
    for ring, cuts in runs:
        m = len(ring)
        diff = [0] * (m + 1)
        for i, lo, hi in cuts:
            bit = 1 << i
            diff[lo] ^= bit
            diff[hi % m] ^= bit
        for w, side in zip(ring, accumulate(diff, xor)):
            left_of[w] ^= side
    return [split[i] & ~(inc[a] | inc[b]) & (left_of[a] ^ left_of[b]) for i, (a, b) in enumerate(edges)]
