"""Closed-form edge/crossing/color bounds and the exact extremal oracle.

Formulas are evaluated exactly (Fraction for half-integral or rational
values, pure integer arithmetic for ceilings) so that tightness questions
are never blurred by rounding. The one deliberately floating-point value
is the edge bound for k >= 5, whose constant is irrational.

The extremal oracle searches convex position only: hull edges cross
nothing, so some maximum k-plane edge set contains all of them, and one
subset search runs over all the diagonals. It branches on the
most-crossed diagonals first (longest skip first, ties in descending
edge order), as the clique kernel colors dense vertices first: including
one fills the crossing capacity of many others early, so the subset
kernel's spare-capacity bound closes subtrees near the root. The order
changes which maximum witness comes back, never its size.

Most of the search proves the optimum rather than finding it, and much
of that proof re-searches images under the polygon's dihedral symmetry.
The rotations and reflections map the diagonals of one skip onto each
other and crossing pairs onto crossing pairs, so each skip's run of the
branch order is an orbit, and the search takes the runs as its `orbits`
(orbital branching): where it backtracks with nothing chosen, the
exclude branch bars the rest of that skip. Every subset so barred has a
rotated image of the same size in the include branch searched just
before, so the witness, the size and `proven` stay the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterable

from . import _native
from ._kernels_py import DEFAULT_BUDGET
from .convex import choose_block_size, count_convex_crossings, verify_k_planar
from .crossings import canonical_edges, crossing_masks
from .geometry import Edge, PointSet, all_edges


def kplanar_edge_bound(n: int, k: int) -> Fraction | float:
    """Edge bound of a convex k-plane graph on n points, for n >= 2 and k >= 0.

    (k+4)n/2 - (k+3), exact, for k <= 4; sqrt(243k/40) * n in double
    precision for k >= 5.
    """
    if n < 2:
        raise ValueError(f"n >= 2 required, got {n}")
    if k < 0:
        raise ValueError(f"k >= 0 required, got {k}")
    if k <= 4:
        return Fraction(k + 4, 2) * n - (k + 3)
    return math.sqrt(243 * k / 40) * n


def count_crossings(instance: PointSet | int, edges: Iterable[Edge] | None = None) -> int:
    """Crossing pairs among the edges; all of K_n when edges is None.

    An integer instance means n points in convex position, where all of
    K_n has C(n, 4) crossings in closed form. Every other count sums the
    rows of the crossing layer's masks.
    """
    if edges is None:
        if not isinstance(instance, PointSet):
            return count_convex_crossings(instance)
        es = all_edges(instance.n)
    else:
        es = canonical_edges(instance, edges)
    return sum(mask.bit_count() for mask in crossing_masks(instance, es)) // 2


def crossing_lemma_bound(n: int, e: int) -> Fraction:
    """Convex crossing lower bound (20/243) e^3 / n^2, requiring e >= 9n/2."""
    if n < 1 or e < 0:
        raise ValueError(f"invalid instance n={n}, e={e}")
    if 2 * e < 9 * n:
        raise ValueError(f"crossing bound needs e >= 9n/2: e={e} < {Fraction(9 * n, 2)}")
    return Fraction(20 * e**3, 243 * n**2)


def peeling_bound(n: int, e: int) -> int:
    """Crossing lower bound 5e - 15n + 25 from five-tier edge peeling.

    Meaningful in the regime e >= 4n - 7 where all peeling tiers apply;
    the value is returned unconditionally and callers gate on the regime.
    """
    return 5 * e - 15 * n + 25


@dataclass(frozen=True)
class SubgraphSearchResult:
    size: int
    edges: tuple[Edge, ...]
    proven: bool
    nodes: int


def _skip(n: int, e: Edge) -> int:
    return min(e.v - e.u, n - (e.v - e.u))


def _diagonals(n: int) -> list[Edge]:
    """The diagonals of convex K_n in the oracle's branch order: most crossed first.

    A diagonal of skip s crosses (s - 1)(n - s - 1) others, which grows
    with s up to n / 2, so this is the longest skip first, ties in
    descending edge order.
    """
    return sorted((e for e in all_edges(n) if _skip(n, e) >= 2), key=lambda e: (_skip(n, e), e), reverse=True)


def max_k_plane_subgraph(n: int, k: int, budget: int = DEFAULT_BUDGET) -> SubgraphSearchResult:
    """Exact max edge count of a k-plane subgraph of convex K_n, with witness.

    Hull edges are always included. Diagonal subsets are searched by
    branch and bound with crossing-count propagation, most-crossed
    diagonals first (`_diagonals`), capped by the closed formula when
    k <= 4. The witness is the first largest set in that branch order,
    and it is re-verified independently before returning. A budget below
    1 searches nothing: the hull comes back unproven, with 0 nodes.

    Each skip's run of diagonals goes to the search as one orbit. Where
    the search backtracks to a node with nothing chosen, deciding the
    first diagonal e of a skip with every longer skip excluded, its
    exclude branch also bars e's skip. A barred subset W holds some
    diagonal f of e's skip and no longer one; the rotation taking f to e
    keeps skips and crossings, so it maps W to a k-plane set of the same
    size with e and no longer diagonal, in the include branch searched
    first. So the first largest set is never barred, and the witness, the
    size and `proven` are those of the search without orbits.
    """
    if n < 3:
        raise ValueError(f"n >= 3 required, got {n}")
    if k < 0:
        raise ValueError(f"k >= 0 required, got {k}")
    hull = tuple(Edge.of(i, (i + 1) % n) for i in range(n))
    if budget < 1:  # the kernel would count its root as one node
        return SubgraphSearchResult(n, hull, False, 0)
    diagonals = _diagonals(n)
    cap = int(kplanar_edge_bound(n, k)) - n if k <= 4 else None  # rounded down: a sound pruning cap
    skips = [len(list(run)) for _, run in groupby(diagonals, key=lambda e: _skip(n, e))]
    _, members, proven, nodes = _native.max_conflict_bounded_set(
        crossing_masks(n, diagonals), k, cap=cap, budget=budget, orbits=skips
    )
    edges = hull + tuple(diagonals[i] for i in members)

    result = verify_k_planar(n, [edges], k)
    if not result:
        raise AssertionError(
            f"witness re-verification failed: edge {tuple(result.witness)} crosses {result.crossings} > {k}"
        )
    if len(set(edges)) != len(edges):
        raise AssertionError("witness contains duplicate edges")
    return SubgraphSearchResult(len(edges), edges, proven, nodes)


def one_planar_lower_bound(n: int) -> int:
    """Min colors of any 1-planar partition of convex K_n: ceil(n(n-3)/(3n-8)).

    The n hull edges are crossing-free, so joined to any color class they
    keep it 1-planar; the per-class interior-edge budget then forces the
    ceiling, which equals ceil(n/3) for every n >= 5.
    """
    if n < 5:
        raise ValueError(f"n >= 5 required, got {n}")
    return -(-(n * (n - 3)) // (3 * n - 8))


def kplanar_color_bounds(n: int, k: int) -> tuple[int, int]:
    """(lower, upper) on colors needed to partition convex K_n into k-planar parts.

    Lower: any class has at most sqrt(243k/40) n edges, so at least
    (n-1) / sqrt(243k/10) classes are needed; computed as the least t with
    243 k t^2 >= 10 (n-1)^2, never below 1. Upper: the slope partition
    with the widest feasible interval, ceil(n / s).
    """
    if n < 3:
        raise ValueError(f"n >= 3 required, got {n}")
    if k < 1:
        raise ValueError(f"k >= 1 required, got {k}")
    rhs = 10 * (n - 1) ** 2
    t = max(1, math.isqrt(-(-rhs // (243 * k)) - 1) + 1)  # ceil(sqrt(ceil(rhs / 243k)))
    upper = -(-n // choose_block_size(k))
    return t, upper


def quasi_color_bounds(n: int, m: int, k: int) -> tuple[int, int]:
    """(lower, upper) on colors for k-quasi-planar partitions given max family size m.

    For 3 <= k <= m: (ceil(m/(k-1)), ceil(m/(k-1)) + ceil((n-2m)/(k-1))).
    For k > m a single color suffices outright.
    """
    if k < 3:
        raise ValueError(f"k >= 3 required, got {k}")
    if 2 * m > n:
        raise ValueError(f"a crossing family of size {m} is impossible on {n} points")
    if k > m:
        return 1, 1
    lower = -(-m // (k - 1))
    return lower, lower + -(-(n - 2 * m) // (k - 1))

