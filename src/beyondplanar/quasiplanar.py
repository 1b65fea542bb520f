"""Crossing graphs, crossing families, and k-quasi-planar partitions.

Two constructions on point sets in general position:

* a decomposition of K(P), |P| = 2n, into n spanning double stars, each of
  which is 3-quasi-planar (two edges of a star share an endpoint, so any
  pairwise-crossing set picks at most one edge per star center);
* a partition of K(P) around any crossing family of m pairwise crossing
  edges into ceil(m/(k-1)) halving classes on the family's endpoints
  plus one class per group of at most k-1 other points, k-quasi-planar
  each; with an exact maximum family it is the family partition.

All verifiers are independent of the constructions: they recheck crossing
properties with the exact segment predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Iterable

from . import _kernels_py, _native
from .coloring import Coloring
from .crossings import _crossing_pass, canonical_edge, canonical_edges, crossing_masks
from .geometry import Edge, PointSet, all_edges, check_pairwise_crossing, orientation

DEFAULT_BUDGET = 10**8


class SearchBudgetError(RuntimeError):
    """An exact search gave up before proving optimality."""


@dataclass(frozen=True)
class CrossingGraph:
    """Graph whose vertices are the edges of K(P), adjacent iff they cross."""

    edge_list: tuple[Edge, ...]
    masks: tuple[int, ...]  # masks[i] = bitmask of edge indices crossing edge i
    depths: tuple[int, ...]  # depths[i] = fewer points on either side of edge i's line


def build_crossing_graph(points: PointSet) -> CrossingGraph:
    edges = all_edges(points.n)
    depths: list[int] = []
    masks = _crossing_pass(points, edges, depths)
    return CrossingGraph(tuple(edges), tuple(masks), tuple(depths))


@dataclass(frozen=True)
class CrossingFamily:
    """Set of pairwise properly crossing edges (necessarily a matching)."""

    edges: tuple[Edge, ...]
    proven_maximum: bool = False
    nodes: int = 0  # search nodes of all the clique searches that found it

    @property
    def size(self) -> int:
        return len(self.edges)


def max_crossing_family(points: PointSet, budget: int = DEFAULT_BUDGET) -> CrossingFamily:
    """Exact maximum crossing family via clique search on the crossing graph.

    Each of t pairwise crossing edges has the other t-1 crossing its line,
    one endpoint on each side, so it has depth at least t-1. The optimum m
    is therefore proven on small subgraphs: for t from floor(n/2) down,
    the clique search runs on the edges of depth >= t-1 until it finds t
    edges or the largest family found so far has t. Every t above m was
    then searched to exhaustion. A last search on the whole graph, for m
    edges with every smaller family ignored, returns the first family of m
    edges in the full search's branch order, so the family depends only
    on the point set. Nodes of all searches count against `budget`; when
    it runs out, the largest family found so far comes back unproven.

    The certificate is re-verified on `points` with the exact segment
    predicate instead of being trusted from the graph.
    """
    graph = build_crossing_graph(points)
    best: list[int] = []  # edge indices of the largest family found so far
    nodes = 0

    def search(masks: list[int], target: int, floor_size: int) -> tuple[list[int], bool]:
        nonlocal nodes
        if nodes >= budget:
            return [], False
        size, members, proven, spent = _native.max_clique(
            masks, budget=budget - nodes, target=target, floor_size=floor_size
        )
        nodes += spent
        if len(members) != (size if size > floor_size else 0):
            raise AssertionError("clique kernel returned inconsistent certificate")
        return members, proven

    # Every search gets its rows already in the kernel's degree order, so
    # the kernel searches the same relabelled graph without relabelling it.
    t = points.n // 2
    while t > len(best):
        keep = [i for i, depth in enumerate(graph.depths) if depth >= t - 1]
        if len(keep) >= t:  # fewer edges than t hold no family of t
            kept = sum(1 << i for i in keep)
            keep.sort(key=lambda i: (-(graph.masks[i] & kept).bit_count(), i))
            members, proven = search(_kernels_py.induced(graph.masks, keep), t, len(best))
            if members:
                best = [keep[i] for i in members]
            if not proven:
                return _certified(graph, points, best, False, nodes)
        t -= 1
    if best:
        # The whole graph, rebuilt in degree order: cheaper than relabelling its rows.
        order = sorted(range(len(graph.masks)), key=lambda i: (-graph.masks[i].bit_count(), i))
        rows = crossing_masks(points, [graph.edge_list[i] for i in order])
        members, proven = search(rows, len(best), len(best) - 1)
        if not proven:
            return _certified(graph, points, best, False, nodes)
        best = [order[i] for i in members]
    return _certified(graph, points, best, True, nodes)


def _certified(graph: CrossingGraph, points: PointSet, members: list[int], proven: bool, nodes: int) -> CrossingFamily:
    """The family on edge indices `members`, after re-checking that its edges cross pairwise."""
    chosen = sum(1 << i for i in set(members))
    if chosen.bit_count() != len(members) or any((graph.masks[i] | 1 << i) & chosen != chosen for i in members):
        raise AssertionError("clique certificate is not a crossing family")
    edges = tuple(graph.edge_list[i] for i in sorted(members))
    if not check_pairwise_crossing(points, edges):
        raise AssertionError("crossing family certificate fails exact re-verification")
    return CrossingFamily(edges, proven_maximum=proven, nodes=nodes)


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
    size, members, proven, nodes = _native.max_clique(masks, budget=budget, target=k, floor_size=k - 1)
    if size >= k:
        witness = tuple(es[i] for i in members[:k])
        if not check_pairwise_crossing(points, witness):
            raise AssertionError("quasi-planarity witness fails exact re-verification")
        return QuasiPlanarResult(False, witness)
    if not proven:
        raise SearchBudgetError(
            f"existence search for {k} pairwise crossing edges exceeded budget {budget}"
            f" after {nodes} nodes; the largest crossing family found has fewer than {k} edges"
        )
    return QuasiPlanarResult(True)


def double_star_partition(points: PointSet) -> Coloring:
    """Decompose K(P), |P| = 2n, into n spanning double stars; color i is tree i.

    Points are ranked lexicographically by (x, y) as r = 0..2n-1. Tree i
    (0-based) has adjacent centers at ranks 2i and 2i+1: the lower center
    picks up every even rank before it and every odd rank after it, the
    upper center the rest. Consecutive trees tilt the split so the n trees
    are edge-disjoint and exhaustive.
    """
    if points.n % 2 != 0:
        raise ValueError(f"double-star partition requires an even point count, got {points.n}")
    n = points.n // 2
    order = sorted(range(points.n), key=lambda i: (points[i].x, points[i].y))
    assignment: dict[Edge, int] = {}
    for i in range(1, n + 1):  # 1-based tree index; ranks below are 1-based
        a, b = order[2 * i - 2], order[2 * i - 1]  # ranks 2i-1 and 2i
        for j in range(1, n + 1):
            if j < i:
                assignment[Edge.of(a, order[2 * j - 1])] = i - 1  # a -- rank 2j
            elif j > i:
                assignment[Edge.of(a, order[2 * j - 2])] = i - 1  # a -- rank 2j-1
            if j <= i:
                assignment[Edge.of(b, order[2 * j - 2])] = i - 1  # b -- rank 2j-1
            else:
                assignment[Edge.of(b, order[2 * j - 1])] = i - 1  # b -- rank 2j
    return Coloring(points.n, n, assignment)


@dataclass(frozen=True)
class HalvingLine:
    """A family edge's supporting line with the family's endpoints split around it.

    The direction is normalized to the upper half plane (angle in [0, pi)).
    The forward endpoint (larger projection on the direction) counts as
    left of the line, the rear endpoint as right; every other endpoint
    lies strictly on one side. Both sides then hold exactly m of the 2m
    endpoints of an m-edge family, and the right side is the endpoints
    outside `left`.
    """

    edge: Edge
    direction: tuple[int, int]
    left: frozenset[int]


def halving_line_system(points: PointSet, family) -> tuple[HalvingLine, ...]:
    """Halving lines of a crossing family, sorted by direction angle.

    The family's edges must cross pairwise, which also makes them a
    matching. Each supporting line then has the other m-1 family edges
    crossing it, one endpoint per side, so it halves the 2m endpoints.
    Points outside the family are not counted on either side.
    """
    edges = tuple(canonical_edge(points.n, e) for e in family)
    if not check_pairwise_crossing(points, edges):
        raise ValueError("family edges do not pairwise cross")
    ends = {v for e in edges for v in e}

    lines = []
    for e in edges:
        d = (points[e.v].x - points[e.u].x, points[e.v].y - points[e.u].y)
        fwd, rear = e.v, e.u
        if d[1] < 0 or (d[1] == 0 and d[0] < 0):
            d = (-d[0], -d[1])
            fwd, rear = e.u, e.v
        left = {fwd}
        for w in ends:
            # Never 0 off the edge: a PointSet has no collinear triple.
            if w not in e and orientation(points[rear], points[fwd], points[w]) > 0:
                left.add(w)
        if len(left) != len(edges):
            raise AssertionError(f"line of {tuple(e)} does not halve the family's endpoints")
        lines.append(HalvingLine(e, d, frozenset(left)))

    # Two crossing segments are never parallel, so cross products give a
    # strict angular order on [0, pi).
    def angle_cmp(a: HalvingLine, b: HalvingLine) -> int:
        cross = a.direction[0] * b.direction[1] - a.direction[1] * b.direction[0]
        return -1 if cross > 0 else 1

    return tuple(sorted(lines, key=cmp_to_key(angle_cmp)))


def halving_line_partition(points: PointSet, family, k: int) -> Coloring:
    """Partition K(P) into ceil(m/(k-1)) + ceil((n-2m)/(k-1)) k-quasi-planar classes.

    The family has m pairwise crossing edges; X is its 2m endpoints.
    Consecutive halving lines are grouped k-1 at a time. Group l covers
    the complete graph on its 2(k-1) endpoints X_l plus the two complete
    bipartite graphs joining X_l to the rest of X on each side of the
    group's first line. Every edge of K(X) is covered by some group;
    assigning each edge to its first covering group turns coverage into a
    partition, and subsets of k-quasi-planar edge sets stay
    k-quasi-planar.

    Every edge a group covers has an endpoint in X_l, and the X_l
    partition X, so only the groups a <= b of an edge's two endpoints can
    cover it. The first covering group is therefore a when a == b or both
    endpoints lie on one side of group a's first line, and otherwise b,
    which then needs both endpoints on one side of its own first line.

    The points outside X follow in index order, k-1 to a star group, each
    group with the next color. An edge with an endpoint there takes the
    first star group of its endpoints: a union of at most k-1 stars has
    no k pairwise crossing edges. Every class is nonempty, except the
    last when m = 0 and its group is a single point.
    """
    if k < 3:
        raise ValueError(f"k >= 3 required, got {k}")
    lines = halving_line_system(points, family)
    c = -(-len(lines) // (k - 1))
    group_of = {v: i // (k - 1) for i, ln in enumerate(lines) for v in ln.edge}
    rest = [v for v in range(points.n) if v not in group_of]
    group_of.update({v: c + i // (k - 1) for i, v in enumerate(rest)})
    left = [lines[l * (k - 1)].left for l in range(c)]  # each halving group's first line

    assignment: dict[Edge, int] = {}
    for e in all_edges(points.n):
        a, b = sorted((group_of[e.u], group_of[e.v]))
        if b >= c:  # a star group: the first one among the endpoints
            assignment[e] = a if a >= c else b
        elif a == b or (e.u in left[a]) == (e.v in left[a]):
            assignment[e] = a
        elif (e.u in left[b]) == (e.v in left[b]):
            assignment[e] = b
        else:
            raise AssertionError(f"halving groups leave edge {tuple(e)} uncovered")
    return Coloring(points.n, c + -(-len(rest) // (k - 1)), assignment)


def crossing_family_partition(
    points: PointSet, k: int, budget: int = DEFAULT_BUDGET
) -> tuple[Coloring, CrossingFamily]:
    """Partition K(P) into k-quasi-planar classes guided by a maximum family.

    With m the exact maximum crossing family size: if m < k one color
    suffices outright. Otherwise `halving_line_partition` on the family
    gives ceil(m/(k-1)) + ceil((|P|-2m)/(k-1)) colors. The proven family
    comes back with the coloring.
    """
    if k < 3:
        raise ValueError(f"k >= 3 required, got {k}")
    family = max_crossing_family(points, budget=budget)
    if not family.proven_maximum:
        raise SearchBudgetError(
            f"maximum crossing family not proven within budget {budget} after {family.nodes} nodes"
            f" (largest found: {family.size} edges); color guarantee would be unsound"
        )
    if family.size < k:
        return Coloring(points.n, 1, {e: 0 for e in all_edges(points.n)}), family
    return halving_line_partition(points, family.edges, k), family
