"""Closed-form edge/crossing/color bounds and the exact extremal oracle.

Formulas are evaluated exactly (Fraction for half-integral or rational
values, pure integer arithmetic for ceilings) so that tightness questions
are never blurred by rounding. The one deliberately floating-point value
is the general edge bound, whose constant is irrational.

The extremal oracle searches convex position only: hull edges cross
nothing, so some maximum k-plane edge set contains all of them and the
search runs over diagonal subsets. A rotation of the polygon maps
solutions to solutions, which allows casework on the smallest chord skip
present: the representative case forces one canonical diagonal and drops
all shorter skips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import _native
from .convex import choose_block_size, count_convex_crossings, verify_k_planar
from .crossings import canonical_edges, crossing_masks
from .geometry import Edge, PointSet, all_edges

DEFAULT_BUDGET = 10**8


def edge_bound_small_k(n: int, k: int) -> Fraction:
    """Max edges of a convex k-plane graph on n points, k <= 4: (k+4)n/2 - (k+3)."""
    if n < 2:
        raise ValueError(f"n >= 2 required, got {n}")
    if not 0 <= k <= 4:
        raise ValueError(f"k must be in 0..4, got {k} (use edge_bound_general for k >= 5)")
    return Fraction(k + 4, 2) * n - (k + 3)


def edge_bound_general(n: int, k: int) -> float:
    """Edge bound sqrt(243k/40) * n for k >= 5 (double precision)."""
    if k < 5:
        raise ValueError(f"k must be >= 5, got {k} (use edge_bound_small_k)")
    return math.sqrt(243 * k / 40) * n


def count_crossings(instance: PointSet | int, edges: Iterable[Edge] | None = None) -> int:
    """Crossing pairs among the edges; all of K_n when edges is None.

    An integer instance means n points in convex position: C(n, 4) in
    closed form for all of K_n, the interleaving test for a subset. A
    PointSet uses the exact segment predicate.
    """
    if not isinstance(instance, PointSet):
        return count_convex_crossings(instance, edges)
    es = all_edges(instance.n) if edges is None else canonical_edges(instance, edges)
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


def max_k_plane_subgraph(n: int, k: int, budget: int = DEFAULT_BUDGET) -> SubgraphSearchResult:
    """Exact max edge count of a k-plane subgraph of convex K_n, with witness.

    Hull edges are always included. Diagonal subsets are searched by
    branch and bound with crossing-count propagation, capped by the closed
    formula when k <= 4, one rotation-symmetry case per smallest forced
    skip. The witness is re-verified independently before returning.
    """
    if n < 3:
        raise ValueError(f"n >= 3 required, got {n}")
    if k < 0:
        raise ValueError(f"k >= 0 required, got {k}")
    hull = [Edge.of(i, (i + 1) % n) for i in range(n)]
    diagonals = sorted((e for e in all_edges(n) if _skip(n, e) >= 2), key=lambda e: (_skip(n, e), e))
    cap_total = int(edge_bound_small_k(n, k)) if k <= 4 else None  # floor; sound pruning cap

    best_size = len(hull)
    best_edges = tuple(hull)
    proven = True
    total_nodes = 0
    for smallest in range(2, n // 2 + 1):
        allowed = [e for e in diagonals if _skip(n, e) >= smallest]
        canonical = Edge(0, smallest)
        forced_mask = 1 << allowed.index(canonical)
        conflicts = crossing_masks(n, allowed)
        cap = None if cap_total is None else cap_total - len(hull)
        size, members, case_proven, nodes = _native.max_conflict_bounded_set(
            conflicts, k, cap=cap, budget=budget, forced_mask=forced_mask
        )
        total_nodes += nodes
        proven = proven and case_proven
        if size >= 0 and len(hull) + size > best_size:
            best_size = len(hull) + size
            best_edges = tuple(hull) + tuple(allowed[i] for i in members)

    result = verify_k_planar(n, best_edges, k)
    if not result:
        raise AssertionError(
            f"witness re-verification failed: edge {tuple(result.witness)} crosses {result.crossings} > {k}"
        )
    if len(set(best_edges)) != best_size:
        raise AssertionError("witness contains duplicate edges")
    return SubgraphSearchResult(best_size, best_edges, proven, total_nodes)


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
    t = max(1, math.isqrt(rhs // (243 * k)))
    while 243 * k * t * t < rhs:
        t += 1
    while t > 1 and 243 * k * (t - 1) * (t - 1) >= rhs:
        t -= 1
    upper = -(-n // choose_block_size(k))
    return t, upper


@dataclass(frozen=True)
class QuasiColorBounds:
    lower: int
    upper: int
    note: str | None = None

    def __iter__(self):
        return iter((self.lower, self.upper))


def quasi_color_bounds(n: int, m: int, k: int) -> QuasiColorBounds:
    """Color bounds for k-quasi-planar partitions given max family size m.

    For 3 <= k <= m: (ceil(m/(k-1)), ceil(m/(k-1)) + ceil((n-2m)/(k-1))).
    For k > m a single color suffices outright.
    """
    if k < 3:
        raise ValueError(f"k >= 3 required, got {k}")
    if 2 * m > n:
        raise ValueError(f"a crossing family of size {m} is impossible on {n} points")
    if k > m:
        return QuasiColorBounds(1, 1, note=f"m={m} < k={k}: one color suffices")
    lower = -(-m // (k - 1))
    return QuasiColorBounds(lower, lower + -(-(n - 2 * m) // (k - 1)))


@dataclass(frozen=True)
class BoundReport:
    name: str
    instance: str
    formula_value: str
    observed_value: str
    satisfied: bool | None

    def line(self) -> str:
        status = "-" if self.satisfied is None else ("ok" if self.satisfied else "VIOLATED")
        return f"{self.name:<24} {self.instance:<22} {self.formula_value:>14} {self.observed_value:>14} {status}"
