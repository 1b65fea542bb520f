"""The crossing layer: which edges of a list properly cross.

An instance is a PointSet or an int n for n points in convex position in
index order. Every crossing graph, and every crossing count that is not
the closed form C(n, 4) of convex K_n, comes from `crossing_masks`, or
from `crossings_in_degree_order` when the edges are to be reordered by
their crossing counts.

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
    if isinstance(instance, PointSet):
        return _string_rows(edges, _side_strings(instance, edges))
    return _convex_rows(edges)


def crossings_in_degree_order(points: PointSet, edges: Sequence[Edge]) -> tuple[list[Edge], list[int], list[int]]:
    """(edges, masks, depths), the edges reordered by descending crossing degree.

    Ties keep the given order. masks is `crossing_masks` of the reordered
    edges, and depths[i] is the smaller number of touched points on either
    side of edges[i]'s line. The side strings are computed once: the rows
    are assembled from them in the given order for the degrees, and again
    in the new order.
    """
    strings = _side_strings(points, edges)
    degree = [row.bit_count() for row in _string_rows(edges, strings)]
    order = sorted(range(len(edges)), key=lambda i: -degree[i])
    edges, strings = [edges[i] for i in order], [strings[i] for i in order]
    touched = len(strings[0]) if strings else 0
    depths = [min(c, touched - 2 - c) for c in (s.count("1") for s in strings)]
    return edges, _string_rows(edges, strings), depths


def _incidence(edges: Sequence[Edge]) -> tuple[dict[int, int], list[int]]:
    """(inc, used): inc[w] is the mask of the edges ending at point w; used is the sorted points."""
    inc: dict[int, int] = {}
    for i, e in enumerate(edges):
        for w in e:
            inc[w] = inc.get(w, 0) | 1 << i
    return inc, sorted(inc)


def _side_strings(points: PointSet, edges: Sequence[Edge]) -> list[str]:
    """One side string per edge: character j is "1" iff used[-1 - j] lies strictly left of it.

    `used` is the sorted points the edges touch, so bit j of the string
    read as an int is used[j].
    """
    xy = [(p.x, p.y) for p in points.points]
    rev_xy = [xy[w] for w in sorted({w for e in edges for w in e}, reverse=True)]
    strings = []
    for a, b in edges:
        (ax, ay), (bx, by) = xy[a], xy[b]
        dx, dy = bx - ax, by - ay
        c = dx * ay - dy * ax  # w is left of ab iff dx * wy - dy * wx > c
        strings.append("".join(["1" if dx * y - dy * x > c else "0" for x, y in rev_xy]))
    return strings


def _string_rows(edges: Sequence[Edge], strings: list[str]) -> list[int]:
    """`crossing_masks` from the edges' side strings.

    XOR tables over 8 used points at a time turn a string read as an int
    into the XOR of `inc` over the points on its left, one lookup per
    byte. Column j of the strings, read over the edges in reverse, is
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
    for s, (a, b) in zip(strings, edges):
        x = 0
        for table, byte in zip(tables, int(s, 2).to_bytes(len(tables), "little")):
            x ^= table[byte]
        split.append(x & ~(inc[a] | inc[b]))
    columns = (int("".join(column), 2) for column in zip(*strings[::-1]))
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
