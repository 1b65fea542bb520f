"""The crossing layer: which edges of a list properly cross.

An instance is a PointSet or an int n for n points in convex position in
index order. Every crossing graph, and every crossing count that is not
the closed form C(n, 4) of convex K_n, comes from `crossing_masks`, or
from `crossings_in_degree_order` when the edges are to be reordered by
their crossing counts.

It never tests a pair of edges. It uses side masks, the order-type view
of Goodman and Pollack: for each edge ab, one bit per point w that the
edge list touches, set iff w lies strictly left of ab, that is, iff the
exact integer det(b - a, w - a) is positive on a PointSet, and a < w < b
in convex position. With inc[w] the mask of the edges ending at w, the
XOR of inc[w] over the points left of ab keeps exactly the edges with one
end on each side of ab's line, once the edges at a and b are masked out:
an edge with both ends on the left cancels. On a PointSet that XOR is one
table lookup per byte of the side mask; in convex position the left
side is a range of the index order, so it is one difference of prefix
XORs. The side masks, transposed, give the edges each point lies left
of. Two edges properly cross iff each one's line separates the other's
ends; an edge that shares an endpoint with ab has that end on its line
and drops out. General position makes every other sign nonzero. Each
side mask's popcount gives its edge's depth, the fewer points on
either side of its line.

On a PointSet the side masks come from one angular sweep per apex, in
O(n^2 log n) for K_n instead of O(n^3) signs. Each edge a < b is swept
from its lower end a, so K_n costs n - 1 sorts. Around an apex the
other used points are sorted by an exact integer key: the half plane,
then floor(-dx * 2^64 / dy). Coordinates within COORD_LIMIT = 2^30 bound
|dx| and |dy| by 2^31, so two distinct slopes differ by at least 2^-62
and their keys by at least 3; one exact cross product per adjacent pair
certifies the order anyway. The points strictly left of a -> b are the
run that follows b in the cyclic order up to the first point at an
angle of pi or more. A two-pointer advance on exact cross products finds
every run around the apex, and a difference of prefix XORs over the
doubled order reads its mask.

`segments_cross`, `PointSet.edges_cross`, `convex_edges_cross` and
`check_pairwise_crossing` decide one pair at a time and stay independent
of this layer, so they can re-check it.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from operator import gt, mul, xor
from typing import Iterable, Iterator, Sequence

from .geometry import Edge, PointSet

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
    return sorted({canonical_edge(n, e) for e in edges})


def crossing_masks(instance: PointSet | int, edges: Sequence[Edge]) -> list[int]:
    """Bit j of masks[i] is set iff edges[i] and edges[j] properly cross.

    The edges keep the caller's order and must already be in `Edge.of`
    form and in range, as `canonical_edges` and `all_edges` give them.
    """
    if isinstance(instance, PointSet):
        return _mask_rows(edges, _side_masks(instance, edges))
    return _convex_rows(edges)


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
    side of edges[i]'s line, from its side mask. The side masks come from
    one sweep: the rows are assembled from them in the given order for the
    degrees, and again in the new order.
    """
    sides = _side_masks(points, edges)
    degree = [row.bit_count() for row in _mask_rows(edges, sides)]
    order = sorted(range(len(edges)), key=lambda i: -degree[i])
    edges, sides = [edges[i] for i in order], [sides[i] for i in order]
    touched = len({w for e in edges for w in e})
    depths = [min(c, touched - 2 - c) for c in (side.bit_count() for side in sides)]
    return edges, _mask_rows(edges, sides), depths


def _incidence(edges: Sequence[Edge]) -> tuple[dict[int, int], list[int]]:
    """(inc, used): inc[w] is the mask of the edges ending at point w; used is the sorted points."""
    inc: dict[int, int] = {}
    for i, e in enumerate(edges):
        for w in e:
            inc[w] = inc.get(w, 0) | 1 << i
    return inc, sorted(inc)


def _side_masks(points: PointSet, edges: Sequence[Edge]) -> list[int]:
    """One side mask per edge: bit j is set iff used[j] lies strictly left of it.

    `used` is the sorted points the edges touch. Each edge is swept from
    its lower end, and each such end once, for all its edges.
    """
    bit = {w: 1 << j for j, w in enumerate(sorted({w for e in edges for w in e}))}
    swept: dict[int, list[int]] = {}  # lower end -> the edges swept from it
    for i, e in enumerate(edges):
        swept.setdefault(e.u, []).append(i)
    used = [(points[w].x, points[w].y, w) for w in bit]
    sides = [0] * len(edges)
    for apex, ids in swept.items():
        ax, ay = points[apex].x, points[apex].y
        ring = [(x - ax, y - ay, bit[w]) for x, y, w in used if w != apex]
        lefts = _sweep(ring, {bit[edges[i].v] for i in ids})
        for i in ids:
            sides[i] = lefts[bit[edges[i].v]]
    return sides


def _sweep(ring: list[tuple[int, int, int]], ends: set[int]) -> dict[int, int]:
    """For each end b, by its bit, the mask of the ring points strictly left of the apex -> b.

    The ring holds (dx, dy, bit) of every used point but the apex, dx and
    dy taken from the apex.
    """
    # The half plane ((dy or dx) < 0 in the lower one), then floor(-dx * 2^64 / dy),
    # which rises with the angle.
    ring = sorted(
        [
            (((-dx << 64) // dy if dy else _ON_AXIS) + (_HALF if (dy or dx) < 0 else -_HALF), dx, dy, b)
            for dx, dy, b in ring
        ]
    )
    keys, xs, ys, bits = zip(*ring)
    m, upper = len(keys), bisect_left(keys, 0)
    for lo, hi in ((0, upper), (upper, m)):  # one half plane each: every step turns left
        if not all(map(gt, map(mul, xs[lo : hi - 1], ys[lo + 1 : hi]), map(mul, ys[lo : hi - 1], xs[lo + 1 : hi]))):
            raise AssertionError("angular order around a point fails its cross-product check")
    xs, ys = xs + xs, ys + ys
    prefix = list(accumulate(bits + bits, xor, initial=0))  # prefix[j] = XOR of the bits of the doubled ring[:j]
    lefts = {}
    j = 0  # end of the run left of the last end swept; it only moves forward
    for p, b in enumerate(bits):
        if b in ends:
            bx, by = xs[p], ys[p]
            if j <= p:
                j = p + 1
            while j < p + m and bx * ys[j] > by * xs[j]:
                j += 1
            lefts[b] = prefix[j] ^ prefix[p + 1]
    return lefts


def _mask_rows(edges: Sequence[Edge], sides: list[int]) -> list[int]:
    """`crossing_masks` from the edges' side masks.

    XOR tables over 8 used points at a time turn a side mask into the XOR
    of `inc` over the points on its left, one lookup per byte. Column j of
    the side masks written in binary, read over the edges in reverse, is
    `left_of` of used[-1 - j].
    """
    inc, used = _incidence(edges)
    tables = []
    for lo in range(0, len(used), 8):
        table = [0]  # table[m] = XOR of inc over the points of used[lo:lo + 8] at the bits of m
        for w in used[lo : lo + 8]:
            table += [x ^ inc[w] for x in table]
        tables.append(table)
    split = []
    for side, (a, b) in zip(sides, edges):
        x = 0
        for table, byte in zip(tables, side.to_bytes(len(tables), "little")):
            x ^= table[byte]
        split.append(x & ~(inc[a] | inc[b]))
    width = f"0{len(used)}b"
    columns = (int("".join(column), 2) for column in zip(*[format(side, width) for side in reversed(sides)]))
    left_of = dict(zip(reversed(used), columns))
    return _crossing_rows(edges, split, left_of)


def _convex_rows(edges: Sequence[Edge]) -> list[int]:
    """`crossing_masks` in convex index order, O(1) big-int steps per edge.

    The left of edge (a, b), a < b, is the used points strictly between a
    and b: a range of the used order. A prefix XOR of `inc` gives the XOR
    over that range, and XORing each edge's bit at both ends of its range
    into a difference list gives `left_of` in one running XOR.
    """
    inc, used = _incidence(edges)
    at = {w: j for j, w in enumerate(used)}
    prefix = [0]  # prefix[j] = XOR of inc over used[:j]
    for w in used:
        prefix.append(prefix[-1] ^ inc[w])
    diff = [0] * (len(used) + 1)
    split = []
    for i, (a, b) in enumerate(edges):
        ja, jb = at[a], at[b]
        split.append((prefix[jb] ^ prefix[ja + 1]) & ~(inc[a] | inc[b]))
        diff[ja + 1] ^= 1 << i
        diff[jb] ^= 1 << i
    left_of, acc = {}, 0
    for j, w in enumerate(used):
        acc ^= diff[j]
        left_of[w] = acc
    return _crossing_rows(edges, split, left_of)


def _crossing_rows(edges: Sequence[Edge], split: list[int], left_of: dict[int, int]) -> list[int]:
    """Row i: the edges split by edge i's line whose own line splits edge i.

    split[i] is the mask of the edges with one end on each side of edge
    i's line, and left_of[w] the mask of the edges point w lies left of.
    """
    return [row & (left_of[a] ^ left_of[b]) for row, (a, b) in zip(split, edges)]
