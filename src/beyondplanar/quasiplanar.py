"""Crossing graphs, crossing families, and k-quasi-planar partitions.

Three constructions on point sets in general position:

* a decomposition of K(P), |P| = 2n, into n spanning double stars, each of
  which is 3-quasi-planar (two edges of a star share an endpoint, so any
  pairwise-crossing set picks at most one edge per star center);
* a partition of K(P) into ceil(n/(k-1)) k-quasi-planar classes when P
  carries a perfect crossing family of n pairwise crossing edges, built
  from the family's halving lines;
* a partition of an arbitrary K(P) guided by an exact maximum crossing
  family of size m, using ceil(m/(k-1)) halving classes on the family's
  endpoints plus one class per group of at most k-1 leftover points.

All verifiers are independent of the constructions: they recheck crossing
properties with the exact segment predicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cmp_to_key
from typing import Iterable, Sequence

from . import _native
from .coloring import Coloring
from .crossings import canonical_edges, crossing_masks
from .geometry import Edge, Point, PointSet, all_edges

DEFAULT_BUDGET = 10**8


class SearchBudgetError(RuntimeError):
    """An exact search gave up before proving optimality."""


@dataclass(frozen=True)
class CrossingGraph:
    """Graph whose vertices are the edges of K(P), adjacent iff they cross."""

    n: int
    edge_list: tuple[Edge, ...]
    masks: tuple[int, ...]  # masks[i] = bitmask of edge indices crossing edge i

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.masks[i] >> j & 1)

    @property
    def num_vertices(self) -> int:
        return len(self.edge_list)

    @property
    def num_adjacencies(self) -> int:
        return sum(m.bit_count() for m in self.masks) // 2


def build_crossing_graph(points: PointSet) -> CrossingGraph:
    edges = all_edges(points.n)
    return CrossingGraph(points.n, tuple(edges), tuple(crossing_masks(points, edges)))


@dataclass(frozen=True)
class CrossingFamily:
    """Set of pairwise properly crossing edges (necessarily a matching)."""

    edges: tuple[Edge, ...]
    proven_maximum: bool = False

    @property
    def size(self) -> int:
        return len(self.edges)

    def vertices(self) -> set[int]:
        return {v for e in self.edges for v in e}


def _family_edges(family) -> tuple[Edge, ...]:
    edges = family.edges if isinstance(family, CrossingFamily) else tuple(family)
    return tuple(Edge.of(e[0], e[1]) for e in edges)


def check_pairwise_crossing(points: PointSet, edges: Sequence[Edge]) -> bool:
    return all(
        points.edges_cross(edges[i], edges[j]) for i in range(len(edges)) for j in range(i + 1, len(edges))
    )


def max_crossing_family(
    graph: CrossingGraph, points: PointSet | None = None, budget: int = DEFAULT_BUDGET
) -> CrossingFamily:
    """Exact maximum crossing family via branch-and-bound clique search.

    Pairwise crossing edges are vertex-disjoint, so floor(n/2) is a sound
    size target: reaching it ends the search with a proven optimum. When
    `points` is given, the certificate is re-verified with the exact
    segment predicate instead of being trusted from the graph.
    """
    target = graph.n // 2
    size, members, proven, _nodes = _native.max_clique(list(graph.masks), budget=budget, target=target)
    edges = tuple(graph.edge_list[i] for i in members)
    if len(edges) != size:
        raise AssertionError("clique kernel returned inconsistent certificate")
    chosen = sum(1 << i for i in set(members))
    if chosen.bit_count() != size or any((graph.masks[i] | 1 << i) & chosen != chosen for i in members):
        raise AssertionError("clique certificate is not a crossing family")
    if points is not None and not check_pairwise_crossing(points, edges):
        raise AssertionError("crossing family certificate fails exact re-verification")
    return CrossingFamily(edges, proven_maximum=proven)


@dataclass(frozen=True)
class QuasiPlanarResult:
    ok: bool
    witness: tuple[Edge, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_k_quasi_planar(
    points: PointSet, edges: Iterable[Edge], k: int, budget: int = DEFAULT_BUDGET
) -> QuasiPlanarResult:
    """True iff the edge set contains no k pairwise crossing edges.

    On failure the witness is a crossing family of exactly k edges,
    re-verified with the exact segment predicate.
    """
    if k < 2:
        raise ValueError(f"k >= 2 required, got {k}")
    es = canonical_edges(points, edges)
    masks = crossing_masks(points, es)
    size, members, proven, _nodes = _native.max_clique(masks, budget=budget, target=k, floor_size=k - 1)
    if size >= k:
        witness = tuple(es[i] for i in members[:k])
        if not check_pairwise_crossing(points, witness):
            raise AssertionError("quasi-planarity witness fails exact re-verification")
        return QuasiPlanarResult(False, witness)
    if not proven:
        raise SearchBudgetError(f"existence search for {k} pairwise crossing edges exceeded budget {budget}")
    return QuasiPlanarResult(True)


@dataclass(frozen=True)
class TreeDecomposition:
    """Edge-disjoint spanning trees covering all of K(P), |P| = 2n."""

    n: int  # number of trees; |P| = 2n
    trees: tuple[tuple[Edge, ...], ...]
    lex_order: tuple[int, ...]  # original indices sorted by (x, y)


def double_star_partition(points: PointSet) -> TreeDecomposition:
    """Decompose K(P), |P| = 2n, into n spanning double stars.

    Points are ranked lexicographically by (x, y) as r = 0..2n-1. Tree i
    (0-based) has adjacent centers at ranks 2i and 2i+1: the lower center
    picks up every even rank before it and every odd rank after it, the
    upper center the rest. Consecutive trees tilt the split so the n trees
    are edge-disjoint and exhaustive.
    """
    if points.n % 2 != 0 or points.n < 2:
        raise ValueError(f"an even number of points >= 2 is required, got {points.n}")
    n = points.n // 2
    order = sorted(range(points.n), key=lambda i: (points[i].x, points[i].y))
    trees = []
    for i in range(1, n + 1):  # 1-based tree index; ranks below are 1-based
        a, b = order[2 * i - 2], order[2 * i - 1]  # ranks 2i-1 and 2i
        tree = []
        for j in range(1, n + 1):
            if j < i:
                tree.append(Edge.of(a, order[2 * j - 1]))  # a -- rank 2j
            elif j > i:
                tree.append(Edge.of(a, order[2 * j - 2]))  # a -- rank 2j-1
            if j <= i:
                tree.append(Edge.of(b, order[2 * j - 2]))  # b -- rank 2j-1
            else:
                tree.append(Edge.of(b, order[2 * j - 1]))  # b -- rank 2j
        trees.append(tuple(sorted(tree)))
    return TreeDecomposition(n, tuple(trees), tuple(order))


def verify_spanning_tree(points: PointSet, edges: Iterable[Edge]) -> bool:
    """True iff the edges form a spanning tree of all points."""
    es = {Edge.of(e[0], e[1]) for e in edges}
    if len(es) != points.n - 1:
        return False
    parent = list(range(points.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = points.n
    for u, v in es:
        if not 0 <= u < v < points.n:
            return False
        ru, rv = find(u), find(v)
        if ru == rv:
            return False  # cycle
        parent[ru] = rv
        comps -= 1
    return comps == 1


def verify_partition(points: PointSet, coloring: Coloring) -> bool:
    """True iff the coloring assigns exactly one in-range color per edge of K(P)."""
    if coloring.n != points.n:
        return False
    try:
        for e in all_edges(points.n):
            if not 0 <= coloring.color_of(e) < coloring.num_colors:
                return False
    except KeyError:
        return False
    return True


def _cross2(o: tuple[int, int], a: Point, b: Point) -> int:
    return o[0] * (b.y - a.y) - o[1] * (b.x - a.x)


@dataclass(frozen=True)
class HalvingLine:
    """A family edge's supporting line with the point set split around it.

    The direction is normalized to the upper half plane (angle in [0, pi)).
    The forward endpoint p (larger projection on the direction) counts as
    left of the line, the rear endpoint q as right; all other points lie
    strictly on one side. Both sides then have exactly n of the 2n points.
    """

    edge: Edge
    p: int
    q: int
    direction: tuple[int, int]
    left: frozenset[int]
    right: frozenset[int]


@dataclass(frozen=True)
class HalvingLineSystem:
    points: PointSet
    lines: tuple[HalvingLine, ...]  # sorted by ascending direction angle

    @property
    def size(self) -> int:
        return len(self.lines)


def halving_line_system(points: PointSet, family) -> HalvingLineSystem:
    """Halving lines of a perfect crossing family, sorted by direction angle.

    The family must cover every point exactly once and cross pairwise;
    each supporting line then has exactly n-1 other family edges with one
    endpoint per side, so the sides split the 2n points evenly.
    """
    edges = _family_edges(family)
    n = len(edges)
    if points.n != 2 * n:
        raise ValueError(f"family of size {n} cannot be perfect on {points.n} points")
    covered = sorted(v for e in edges for v in e)
    if covered != list(range(points.n)):
        raise ValueError("family does not cover every point exactly once")
    if not check_pairwise_crossing(points, edges):
        raise ValueError("family edges do not pairwise cross")

    lines = []
    for e in edges:
        d = (points[e.v].x - points[e.u].x, points[e.v].y - points[e.u].y)
        fwd, rear = e.v, e.u
        if d[1] < 0 or (d[1] == 0 and d[0] < 0):
            d = (-d[0], -d[1])
            fwd, rear = e.u, e.v
        base = points[e.u]
        left = {fwd}
        right = {rear}
        for w in range(points.n):
            if w in e:
                continue
            side = _cross2(d, base, points[w])
            if side > 0:
                left.add(w)
            elif side < 0:
                right.add(w)
            else:
                raise ValueError(f"point {w} lies on the supporting line of {tuple(e)}")
        if len(left) != n or len(right) != n:
            raise AssertionError(f"line of {tuple(e)} does not halve the point set")
        lines.append(HalvingLine(e, fwd, rear, d, frozenset(left), frozenset(right)))

    # Two crossing segments are never parallel, so cross products give a
    # strict angular order on [0, pi).
    def angle_cmp(a: HalvingLine, b: HalvingLine) -> int:
        cross = a.direction[0] * b.direction[1] - a.direction[1] * b.direction[0]
        return -1 if cross > 0 else 1

    ordered = sorted(lines, key=cmp_to_key(angle_cmp))
    return HalvingLineSystem(points, tuple(ordered))


def halving_line_partition(points: PointSet, family, k: int) -> Coloring:
    """Partition K(P) into ceil(n/(k-1)) k-quasi-planar classes.

    Consecutive halving lines are grouped k-1 at a time. Group l covers
    the complete graph on its 2(k-1) endpoints X_l plus the two complete
    bipartite graphs joining X_l to the rest of P on each side of the
    group's first line. Every edge is covered by some group; assigning
    each edge to its first covering group turns coverage into a partition,
    and subsets of k-quasi-planar edge sets stay k-quasi-planar.
    """
    if k < 3:
        raise ValueError(f"k >= 3 required, got {k}")
    system = halving_line_system(points, family)
    n = system.size
    c = -(-n // (k - 1))
    groups = [system.lines[l * (k - 1) : (l + 1) * (k - 1)] for l in range(c)]

    assignment: dict[Edge, int] = {}
    for l, group in enumerate(groups):
        members = {v for ln in group for v in ln.edge}
        first = group[0]
        for e in all_edges(points.n):
            if e in assignment:
                continue
            in_u, in_v = e.u in members, e.v in members
            if in_u and in_v:
                assignment[e] = l
            elif in_u or in_v:
                same_left = e.u in first.left and e.v in first.left
                same_right = e.u in first.right and e.v in first.right
                if same_left or same_right:
                    assignment[e] = l
    missing = [e for e in all_edges(points.n) if e not in assignment]
    if missing:
        raise AssertionError(f"halving groups left {len(missing)} edges uncovered, e.g. {tuple(missing[0])}")
    return Coloring(points.n, c, assignment)


@dataclass(frozen=True)
class FamilyPartitionReport:
    m: int
    colors_used: int
    family: CrossingFamily
    note: str | None = None
    leftover_groups: tuple[tuple[int, ...], ...] = field(default=())


def crossing_family_partition(
    points: PointSet, k: int, budget: int = DEFAULT_BUDGET
) -> tuple[Coloring, FamilyPartitionReport]:
    """Partition K(P) into k-quasi-planar classes guided by a maximum family.

    With m the exact maximum crossing family size: if m < k one color
    suffices outright. Otherwise the family's 2m endpoints P' get
    ceil(m/(k-1)) halving classes, and the remaining points are split into
    groups of at most k-1; each remaining edge is colored by the first
    group that contains one of its endpoints (a union of at most k-1 stars
    has no k pairwise crossing edges). Total colors:
    ceil(m/(k-1)) + ceil((|P|-2m)/(k-1)).
    """
    if k < 3:
        raise ValueError(f"k >= 3 required, got {k}")
    graph = build_crossing_graph(points)
    family = max_crossing_family(graph, points=points, budget=budget)
    if not family.proven_maximum:
        raise SearchBudgetError(
            f"maximum crossing family not proven within budget {budget}; color guarantee would be unsound"
        )
    m = family.size

    if m < k:
        coloring = Coloring(points.n, 1, {e: 0 for e in all_edges(points.n)})
        report = FamilyPartitionReport(m, 1, family, note=f"m={m} < k={k}: one color suffices")
        return coloring, report

    prime = sorted(family.vertices())
    sub_index = {orig: i for i, orig in enumerate(prime)}
    sub_points = PointSet([points[i] for i in prime])
    sub_family = [Edge.of(sub_index[e.u], sub_index[e.v]) for e in family.edges]
    sub_coloring = halving_line_partition(sub_points, sub_family, k)
    c1 = sub_coloring.num_colors

    rest = [i for i in range(points.n) if i not in sub_index]
    width = k - 1
    groups = [tuple(rest[a : a + width]) for a in range(0, len(rest), width)]
    group_of = {v: g for g, grp in enumerate(groups) for v in grp}

    assignment: dict[Edge, int] = {}
    for e in all_edges(points.n):
        gu, gv = group_of.get(e.u), group_of.get(e.v)
        if gu is None and gv is None:
            assignment[e] = sub_coloring.get(sub_index[e.u], sub_index[e.v])
        elif gu is None:
            assignment[e] = c1 + gv
        elif gv is None:
            assignment[e] = c1 + gu
        else:
            assignment[e] = c1 + min(gu, gv)
    coloring = Coloring(points.n, c1 + len(groups), assignment)
    report = FamilyPartitionReport(m, coloring.num_colors, family, leftover_groups=tuple(groups))
    return coloring, report
