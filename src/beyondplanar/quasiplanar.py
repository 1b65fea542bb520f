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
properties with the exact segment predicate. The one exception is a class
whose edges all touch at most k-1 vertices, such as a double star for
k = 3: it is decided by its incidences alone, since pairwise crossing
edges share no endpoint and so need k distinct cover vertices.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from . import _kernels_py, _native
from ._kernels_py import DEFAULT_BUDGET
from .coloring import Coloring
from .crossings import build_crossing_graph, canonical_edge, canonical_edges, class_crossing_masks
from .geometry import Edge, PointSet, check_pairwise_crossing, direction_key, orientation


class SearchBudgetError(RuntimeError):
    """An exact search gave up before proving optimality."""


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
    on the point set. It branches only on the edges of depth >= m-1,
    which hold every family of m, so it finds the family that the
    unrestricted search finds. Nodes of all searches count against
    `budget`; when it runs out, the largest family found so far comes
    back unproven.

    The certificate is re-verified on `points` with the exact segment
    predicate instead of being trusted from the graph.
    """
    edges, masks, depths = build_crossing_graph(points)
    best: list[int] = []  # edge indices of the largest family found so far
    nodes = 0

    def search(rows: list[int], target: int, floor_size: int, allowed: int | None = None) -> tuple[list[int], bool]:
        nonlocal nodes
        if nodes >= budget:
            return [], False
        size, members, proven, spent = _native.max_clique(
            rows, budget=budget - nodes, target=target, floor_size=floor_size, allowed=allowed
        )
        nodes += spent
        if len(members) != (size if size > floor_size else 0):
            raise AssertionError("clique kernel returned inconsistent certificate")
        return members, proven

    # Every search gets its rows already in the kernel's degree order, so
    # the kernel searches the same relabelled graph without relabelling it.
    proven = True
    t = points.n // 2
    while proven and t > len(best):
        keep = [i for i, depth in enumerate(depths) if depth >= t - 1]
        if len(keep) >= t:  # fewer edges than t hold no family of t
            kept = sum(1 << i for i in keep)
            keep.sort(key=lambda i: (-(masks[i] & kept).bit_count(), edges[i]))
            members, proven = search(_kernels_py.induced(masks, keep), t, len(best))
            if members:
                best = [keep[i] for i in members]
        t -= 1
    if proven and best:
        m = len(best)
        deep = sum(1 << i for i, depth in enumerate(depths) if depth >= m - 1)
        members, proven = search(masks, m, m - 1, allowed=deep)
        if proven:
            best = members
    chosen = sum(1 << i for i in set(best))
    if chosen.bit_count() != len(best) or any((masks[i] | 1 << i) & chosen != chosen for i in best):
        raise AssertionError("clique certificate is not a crossing family")
    family = tuple(sorted(edges[i] for i in best))
    if not check_pairwise_crossing(points, family):
        raise AssertionError("crossing family certificate fails exact re-verification")
    return CrossingFamily(family, proven_maximum=proven, nodes=nodes)


@dataclass(frozen=True)
class QuasiPlanarResult:
    ok: bool
    witness: tuple[Edge, ...] | None = None
    index: int | None = None  # position of the first failing class

    def __bool__(self) -> bool:
        return self.ok


def _small_cover(edges: list[Edge], size: int) -> bool:
    """True if at most `size` vertices touch every edge, by a greedy test.

    Pairwise crossing edges share no endpoint, so such a class holds no
    size + 1 of them. The test is sound but may miss a cover. One scan
    keeps pairwise-disjoint edges: size + 1 of them need size + 1 cover
    vertices, so the class fails there. Otherwise the vertex touching the
    most edges left goes into the cover, at most `size` times.
    """
    used: set[int] = set()
    for u, v in edges:
        if u not in used and v not in used:
            if len(used) == 2 * size:
                return False
            used.add(u)
            used.add(v)
    for _ in range(size):
        if not edges:
            break
        w = Counter(chain.from_iterable(edges)).most_common(1)[0][0]
        edges = [e for e in edges if w not in e]
    return not edges


def is_k_quasi_planar(
    points: PointSet, classes: Iterable[Iterable[Edge]], k: int, budget: int = DEFAULT_BUDGET
) -> QuasiPlanarResult:
    """True iff no class contains k pairwise crossing edges.

    classes is a sequence of edge lists, such as
    `coloring.classes().values()`. Every class is range-checked before any
    is decided, so an out-of-range edge in any class raises ValueError.
    k pairwise crossing edges form a matching, which no k - 1 vertices
    cover, so a class that a greedy search covers with at most k - 1
    vertices passes without crossing rows or search. The other classes are
    checked in one crossing pass and then one clique search per class,
    each within `budget` nodes. On failure, index is the position of the
    first failing class and the witness a crossing family of exactly k of
    its edges, re-verified with the exact segment predicate.
    """
    if k < 2:
        raise ValueError(f"quasiplanar verification requires k >= 2, got {k}")
    groups = [canonical_edges(points, edges) for edges in classes]
    searched = [index for index, edges in enumerate(groups) if not _small_cover(edges, k - 1)]
    if not searched:
        return QuasiPlanarResult(True)
    for index, masks in zip(searched, class_crossing_masks(points, [groups[index] for index in searched])):
        size, members, proven, nodes = _native.max_clique(masks, budget=budget, target=k, floor_size=k - 1)
        if size >= k:
            witness = tuple(groups[index][i] for i in members[:k])
            if not check_pairwise_crossing(points, witness):
                raise AssertionError("quasi-planarity witness fails exact re-verification")
            return QuasiPlanarResult(False, witness, index)
        if not proven:
            raise SearchBudgetError(
                f"existence search for {k} pairwise crossing edges exceeded budget {budget}"
                f" after {nodes} nodes; the largest crossing family found has fewer than {k} edges"
            )
    return QuasiPlanarResult(True)


def double_star_partition(points: PointSet) -> Coloring:
    """Decompose K(P), |P| = 2n, into n spanning double stars; color i is tree i.

    Points are ranked by (x, y) as r = 0..2n-1, and tree i has the
    adjacent centers at ranks 2i and 2i+1. The edge between ranks p < q
    goes to the tree of q when p + q is odd and to the tree of p when it
    is even: each center takes the other parity below it and its own
    parity above it, so the n trees are edge-disjoint and exhaustive.
    """
    if points.n % 2 != 0:
        raise ValueError(f"double-star partition requires an even point count, got {points.n}")
    at = [0] * points.n  # at[v] = the rank of v
    for r, v in enumerate(sorted(range(points.n), key=lambda i: (points[i].x, points[i].y))):
        at[v] = r
    colors = []  # in `all_edges` order: the larger rank's tree when the sum is odd, else the smaller's
    for u in range(points.n):
        p = at[u]
        colors += [((p if p > q else q) if (p + q) % 2 else (p if p < q else q)) // 2 for q in at[u + 1 :]]
    return Coloring(points.n, points.n // 2, colors)


def halving_line_partition(points: PointSet, family, k: int) -> Coloring:
    """Partition K(P) into ceil(m/(k-1)) + ceil((n-2m)/(k-1)) k-quasi-planar classes.

    The family has m pairwise crossing edges, which also makes them a
    matching; X is its 2m endpoints. Each family edge runs from its rear
    to its forward endpoint, the one with the larger (y, x), so its
    direction lies in [0, pi), where `direction_key` orders it by angle.
    The other m-1 family edges cross its line, one endpoint per side, so
    the line halves X once the forward endpoint counts as left and the
    rear one as right. Points outside X are not counted on either side.

    Consecutive lines in angle order are grouped k-1 at a time. Group l
    covers the complete graph on its 2(k-1) endpoints X_l plus the two
    complete bipartite graphs joining X_l to the rest of X on each side of
    the group's first line. Every edge of K(X) is covered by some group;
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
    if points.n < 2:
        raise ValueError(f"n >= 2 required, got {points.n}")
    edges = [canonical_edge(points.n, e) for e in family]
    if not check_pairwise_crossing(points, edges):
        raise ValueError("family edges do not pairwise cross")
    ends = {v for e in edges for v in e}
    lines = []  # (dx, dy, rear, forward) of each family edge
    for e in edges:
        rear, fwd = sorted(e, key=lambda v: (points[v].y, points[v].x))
        lines.append((points[fwd].x - points[rear].x, points[fwd].y - points[rear].y, rear, fwd))
    # Two crossing segments are never parallel, so the key orders the lines strictly.
    lines = [line[2:] for line in sorted(lines, key=direction_key)]
    c = -(-len(lines) // (k - 1))
    group_of = {v: i // (k - 1) for i, line in enumerate(lines) for v in line}
    rest = [v for v in range(points.n) if v not in group_of]
    group_of.update({v: c + i // (k - 1) for i, v in enumerate(rest)})

    left = []  # each halving group's first line: its forward endpoint and X strictly left of it
    for rear, fwd in lines[:: k - 1]:
        # Only the edge's own endpoints give 0: a PointSet has no collinear triple.
        side = {fwd} | {w for w in ends if orientation(points[rear], points[fwd], points[w]) > 0}
        if len(side) != len(lines):
            raise AssertionError(f"line of {tuple(Edge.of(rear, fwd))} does not halve the family's endpoints")
        left.append(side)

    colors = []  # in `all_edges` order
    for u in range(points.n):
        for v in range(u + 1, points.n):
            a, b = sorted((group_of[u], group_of[v]))
            if b >= c:  # a star group: the first one among the endpoints
                colors.append(a if a >= c else b)
            elif a == b or (u in left[a]) == (v in left[a]):
                colors.append(a)
            elif (u in left[b]) == (v in left[b]):
                colors.append(b)
            else:
                raise AssertionError(f"halving groups leave edge {(u, v)} uncovered")
    return Coloring(points.n, c + -(-len(rest) // (k - 1)), colors)


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
    if points.n < 2:
        raise ValueError(f"n >= 2 required, got {points.n}")
    family = max_crossing_family(points, budget=budget)
    if not family.proven_maximum:
        raise SearchBudgetError(
            f"maximum crossing family not proven within budget {budget} after {family.nodes} nodes"
            f" (largest found: {family.size} edges); color guarantee would be unsound"
        )
    if family.size < k:
        return Coloring(points.n, 1, [0] * (points.n * (points.n - 1) // 2)), family
    return halving_line_partition(points, family.edges, k), family
