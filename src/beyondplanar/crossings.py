"""The crossing layer: which edges of a list properly cross.

An instance is a PointSet or an int n for n points in convex position in
index order. Every crossing graph, and every crossing count that is not
the closed form C(n, 4) of convex K_n, comes from `crossing_masks`.

It never tests a pair of edges. It uses side strings, the order-type
view of Goodman and Pollack: for each edge ab, one bit per point w that
the edge list touches, set iff w lies strictly left of ab. The bit is the
sign of the exact integer det(b - a, w - a) on a PointSet, and a < w < b
in convex position. With inc[w] the mask of the edges ending at w, the
XOR of inc[w] over the points left of ab keeps exactly the edges with one
end on each side of ab's line, once the edges at a and b are masked out:
an edge with both ends on the left cancels. On a PointSet that XOR is one
table lookup per byte of the side string; in convex position the left
side is a range of the index order, so it is one difference of prefix
XORs. The side strings, transposed, give the edges each point lies left
of. Two edges properly cross iff each one's line separates the other's
ends; an edge that shares an endpoint with ab has that end on its line
and drops out. General position makes every other sign nonzero. Each
side string's popcount gives its edge's depth, the fewer points on
either side of its line.
`segments_cross`, `PointSet.edges_cross`, `convex_edges_cross` and
`check_pairwise_crossing` decide one pair at a time and stay independent
of this layer, so they can re-check it.
"""

from __future__ import annotations

from operator import itemgetter
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
    # split[i]: mask of the edges whose ends lie on both sides of edge i;
    # left_of[w]: mask of the edges point w lies left of; on_left[i]: how
    # many used points lie left of edge i.
    if isinstance(instance, PointSet):
        split, left_of, on_left = _point_set_sides(instance, edges, used, inc)
    else:
        split, left_of, on_left = _convex_sides(edges, used, inc)
    if depths is not None:
        depths.extend(min(c, len(used) - 2 - c) for c in on_left)
    return [row & (left_of[a] ^ left_of[b]) for row, (a, b) in zip(split, edges)]


def _point_set_sides(
    points: PointSet, edges: Sequence[Edge], used: list[int], inc: dict[int, int]
) -> tuple[list[int], dict[int, int], list[int]]:
    """(split, left_of, on_left) from one side string per edge.

    Character j of edge i's string is "1" iff used[-1 - j] lies strictly
    left of it, so bit j of the string read as an int is used[j]. XOR
    tables over 8 used points at a time turn that int into the XOR of
    `inc` over the points on the left, one lookup per byte. The columns
    of the strings, read over the edges in reverse, are `left_of`.
    """
    xy = [(p.x, p.y) for p in points.points]
    rev_xy = [xy[w] for w in reversed(used)]
    strings = []
    for a, b in edges:
        (ax, ay), (bx, by) = xy[a], xy[b]
        dx, dy = bx - ax, by - ay
        c = dx * ay - dy * ax  # w is left of ab iff dx * wy - dy * wx > c
        strings.append("".join(["1" if dx * y - dy * x > c else "0" for x, y in rev_xy]))
    tables = []
    for lo in range(0, len(used), 8):
        table = [0]  # table[m] = XOR of inc over the points of used[lo:lo + 8] at the bits of m
        for w in used[lo : lo + 8]:
            table += [x ^ inc[w] for x in table]
        tables.append(table)
    split = []
    for s, (a, b) in zip(strings, edges):
        x = 0
        for table, byte in zip(tables, int(s, 2).to_bytes(len(tables), "little")):
            x ^= table[byte]
        split.append(x & ~(inc[a] | inc[b]))
    rows = strings[::-1]
    last = len(used) - 1
    left_of = {w: int("".join(map(itemgetter(last - j), rows)), 2) for j, w in enumerate(used)}
    return split, left_of, [s.count("1") for s in strings]


def _convex_sides(
    edges: Sequence[Edge], used: list[int], inc: dict[int, int]
) -> tuple[list[int], dict[int, int], list[int]]:
    """(split, left_of, on_left) in convex index order, O(1) big-int steps per edge.

    The left of edge (a, b), a < b, is the used points strictly between a
    and b: a range of the used order. A prefix XOR of `inc` gives the XOR
    over that range, and XORing each edge's bit at both ends of its range
    into a difference list gives `left_of` in one running XOR.
    """
    at = {w: j for j, w in enumerate(used)}
    prefix = [0]  # prefix[j] = XOR of inc over used[:j]
    for w in used:
        prefix.append(prefix[-1] ^ inc[w])
    diff = [0] * (len(used) + 1)
    split, on_left = [], []
    for i, (a, b) in enumerate(edges):
        ja, jb = at[a], at[b]
        split.append((prefix[jb] ^ prefix[ja + 1]) & ~(inc[a] | inc[b]))
        diff[ja + 1] ^= 1 << i
        diff[jb] ^= 1 << i
        on_left.append(jb - ja - 1)
    left_of, acc = {}, 0
    for j, w in enumerate(used):
        acc ^= diff[j]
        left_of[w] = acc
    return split, left_of, on_left
