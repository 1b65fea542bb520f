"""The crossing layer against the per-pair predicates it replaces.

`crossing_masks` is compared with `naive_crossing_masks`, which decides
every pair with `segments_cross` or `convex_edges_cross`, on random and
convex point sets and on convex index order: complete graphs up to the
benchmark's n = 40, random edge subsets, the extremal oracle's diagonal
lists in its branch order, reversed and shuffled caller orders,
subsets that leave most points unused, and coordinates at the limit.
Masks are also checked on edge lists that touch 7, 8, 9, 16, 17 and 25
of 40 points, and on lists that avoid the first eight points; the
crossing graph of the sub-PointSet on those points, lifted back, has the
masks and depths of the same edges among the 40.

On a convex ring each edge's left side is a run, cut at two points; on
any other point set it is read from the rotational sweep, the points
before the edge's pair when the pair swaps, or the rest. Side masks
rebuilt from those cuts and swaps are compared with `naive_side_masks`,
one determinant per edge and used point, on random, convex and
crossing-family sets, the smallest sets, single edges, stars at every
center, matchings, and directions at the coordinate limit whose
determinant is 1, where the sweep's integer key is closest to its
exactness bound; in convex index order they are compared with the rule
a < w < b. Runs that wrap past the end of the ring, and swaps whose
prefix is the right side of the edge, give the same rows.

Point sets (x, x^2 mod p) have many parallel pairs, whose swaps share a
sort key, and horizontal pairs; one more set has horizontal and vertical
pairs. Their masks, depths, side masks and class rows are checked
against the same oracles.

Convex point sets whose index order is not their clockwise order give
`crossing_masks` one ring in hull order: their masks and side masks (the
literal left side, not the mirror one) are checked against the same
oracles. `build_crossing_graph` sweeps every point set, convex or not,
so on convex sets in clockwise, counter-clockwise and shuffled index
order, n = 3..40, its masks are checked against `crossing_masks` of its
own edges, the two assemblies against each other, and its depths
against `naive_edge_depths`; `max_crossing_family` is checked against
families, proven flags and node counts pinned from the angular sweep.

`direction_key`, which orders the sweep's pairs, is compared with one
cross product per pair of directions: random ones, horizontal and
vertical ones, and neighbours of determinant 1 at the coordinate limit.
Parallel directions share a key.

The class-list verifiers, which take every class in one crossing pass,
are compared with a loop of one-class calls: the same first failing
class, witness, crossing count and budget stop. `is_k_quasi_planar`,
which certifies a class that k - 1 vertices cover without a search, is
compared with one pair-by-pair clique search per class on unions of up
to k stars, with single edges and empty classes, on random, convex and
crossing-family sets; an out-of-range edge in a covered class still
raises.
"""

import hashlib
import math
import random

import pytest
from oracles import naive_crossing_masks, naive_edge_depths, naive_max_clique_enum, naive_side_masks

from beyondplanar import _native
from beyondplanar.bounds import _diagonals
from beyondplanar.coloring import Coloring
from beyondplanar.convex import verify_k_planar
from beyondplanar.crossings import (
    _convex_cuts,
    _swaps,
    build_crossing_graph,
    canonical_edges,
    class_crossing_masks,
    crossing_masks,
    direction_key,
)
from beyondplanar.geometry import (
    COORD_LIMIT,
    Edge,
    PointSet,
    all_edges,
    gen_convex_polygon,
    gen_perfect_crossing_family_pointset,
    gen_random_pointset,
    validate_pointset,
)
from beyondplanar.quasiplanar import SearchBudgetError, is_k_quasi_planar, max_crossing_family


def random_subset(n, seed):
    rng = random.Random(f"crossings:{n}:{seed}")
    edges = all_edges(n)
    return rng.sample(edges, rng.randrange(len(edges) + 1))


def extreme_pointset(n, seed):
    """n points in general position, each coordinate within 3 of +/-COORD_LIMIT or random."""
    rng = random.Random(f"extreme:{n}:{seed}")

    def coord():
        if rng.random() < 0.8:
            return rng.choice((-1, 1)) * (COORD_LIMIT - rng.randrange(4))
        return rng.randint(-COORD_LIMIT, COORD_LIMIT)

    while True:
        try:
            return PointSet([(coord(), coord()) for _ in range(n)])
        except ValueError:
            continue


def replayed_swaps(points, edges):
    """(p, q, lo, prefix) per swap of the sweep, replayed on a list: p and q sit at lo and lo + 1, after order[:lo]."""
    order, swaps = _swaps(points, edges)
    for p, q in swaps:
        lo = order.index(p)
        assert order[lo + 1] == q
        yield p, q, lo, order[:lo]
        order[lo : lo + 2] = q, p


def side_masks(instance, edges):
    """Left sides from the crossing layer: bit j of masks[i] is set iff the j-th smallest used point is left of edges[i].

    On a convex ring the left side is the run of the edge's cut. Any other
    point set replays the sweep: the prefix before p and q at their swap
    lies right of p -> q, so it is the left side of q -> p, and the other
    used points are the left side of p -> q.
    """
    used = sorted({w for e in edges for w in e})
    bit = {w: 1 << j for j, w in enumerate(used)}
    convex = _convex_cuts(instance, edges)
    if convex is not None:
        ring, cuts = convex
        return [sum(bit[ring[k % len(ring)]] for k in range(lo, hi)) for lo, hi in cuts]
    left = {}
    for p, q, _, prefix in replayed_swaps(instance, edges):
        right = sum(bit[w] for w in prefix)
        left[q, p] = right
        left[p, q] = ((1 << len(used)) - 1) ^ right ^ bit[p] ^ bit[q]
    return [left[e] for e in edges]


def naive_convex_side_masks(edges):
    """Side masks in convex index order: the used points w with a < w < b for edge (a, b)."""
    used = sorted({w for e in edges for w in e})
    return [sum(1 << j for j, w in enumerate(used) if a < w < b) for a, b in edges]


class TestCrossingMasks:
    @pytest.mark.parametrize("n", [3, 5, 9, 14])
    @pytest.mark.parametrize("make", [gen_random_pointset, gen_convex_polygon])
    def test_pointset_matches_segments_cross(self, make, n):
        points = make(n, seed=n)
        for edges in (all_edges(n), random_subset(n, 0), random_subset(n, 1), _diagonals(n)):
            assert crossing_masks(points, edges) == naive_crossing_masks(points, edges)

    @pytest.mark.parametrize("n", range(0, 13))
    def test_convex_matches_convex_edges_cross(self, n):
        for edges in (all_edges(n), random_subset(n, 0), random_subset(n, 1), _diagonals(n)):
            assert crossing_masks(n, edges) == naive_crossing_masks(n, edges)

    @pytest.mark.parametrize("n", [24, 32, 40])
    def test_complete_graph_at_benchmark_sizes(self, n):
        points = gen_random_pointset(n, seed=n)
        edges = all_edges(n)
        assert crossing_masks(points, edges) == naive_crossing_masks(points, edges)

    @pytest.mark.parametrize("seed", range(3))
    def test_coordinates_at_the_limit(self, seed):
        points = extreme_pointset(12, seed)
        assert max(abs(c) for p in points for c in (p.x, p.y)) >= COORD_LIMIT - 3
        for edges in (all_edges(12), random_subset(12, seed)):
            assert crossing_masks(points, edges) == naive_crossing_masks(points, edges)

    @pytest.mark.parametrize("n", [9, 14])
    def test_reversed_and_shuffled_caller_order(self, n):
        points = gen_random_pointset(n, seed=n + 1)
        shuffled = all_edges(n)
        random.Random(n).shuffle(shuffled)
        for edges in (all_edges(n)[::-1], shuffled):
            assert crossing_masks(points, edges) == naive_crossing_masks(points, edges)
            assert crossing_masks(n, edges) == naive_crossing_masks(n, edges)

    @pytest.mark.parametrize("seed", range(4))
    def test_subsets_that_leave_most_points_unused(self, seed):
        n = 40
        rng = random.Random(f"sparse:{seed}")
        points = gen_random_pointset(n, seed=seed)
        few = sorted(rng.sample(range(n), 6))
        among_few = [Edge(u, v) for u in few for v in few if u < v]
        scattered = rng.sample(all_edges(n), 8)
        for edges in (among_few, scattered, among_few[:1], []):
            assert crossing_masks(points, edges) == naive_crossing_masks(points, edges)
            assert crossing_masks(n, edges) == naive_crossing_masks(n, edges)

    @pytest.mark.parametrize("n", range(3, 17))
    def test_convex_index_order_matches_a_convex_polygon(self, n):
        polygon = gen_convex_polygon(n, seed=n)
        for edges in (all_edges(n), random_subset(n, 2), _diagonals(n)):
            assert crossing_masks(n, edges) == crossing_masks(polygon, edges)


def near_parallel_pointset():
    """Points at the coordinate limit L.

    Seen from point 0 = (-L, -L), points 1 and 2, and points 3 and 4, lie
    in directions whose determinant is -1 and 1, with every |dx| and |dy|
    within 2 of 2^31: their slopes differ by about 2^-62, the bound the
    sweep's integer key is exact to. Point 5 lies straight right of point
    0, a horizontal pair, whose direction the sweep meets first, and
    point 6 straight above point 0, a vertical one, with key 0.
    """
    lim = COORD_LIMIT
    near = [(lim, lim - 1), (lim - 1, lim - 2), (lim - 1, lim), (lim - 2, lim - 1)]
    return PointSet([(-lim, -lim)] + near + [(lim, -lim), (-lim, lim), (2, 3 - lim)])


def parabola_mod(p):
    """The points (x, x^2 mod p), x < p, for a prime p.

    No three are collinear: three points collinear over the integers
    would be collinear mod p, and a line meets the parabola mod p at most
    twice. x and p - x give a horizontal pair, and many pairs are
    parallel, so their swaps share a sort key.
    """
    return PointSet([(x, x * x % p) for x in range(p)])


# 11 points in general position with 5 horizontal and 5 vertical pairs.
AXIS_PAIRS = PointSet([(1, 2), (1, 4), (2, 4), (2, 5), (3, 0), (3, 7), (5, 3), (5, 5), (6, 2), (6, 7), (7, 0)])

PARALLEL_SETS = [parabola_mod(7), parabola_mod(13), parabola_mod(31), AXIS_PAIRS]
PARALLEL_IDS = ["mod7", "mod13", "mod31", "axis"]


def directions(points):
    """The direction of every pair, reduced to lowest terms and oriented into [0, pi)."""
    found = []
    for a, b in all_edges(points.n):
        dx, dy = points[b].x - points[a].x, points[b].y - points[a].y
        if dy < 0 or (dy == 0 and dx < 0):
            dx, dy = -dx, -dy
        g = math.gcd(dx, dy)
        found.append((dx // g, dy // g))
    return found


class TestAngularSweep:
    """Sides from the rotational sweep, or from the convex ring, against one determinant per point."""

    @pytest.mark.parametrize("n", [4, 9, 17, 40])
    @pytest.mark.parametrize("make", [gen_random_pointset, gen_convex_polygon])
    def test_random_and_convex_sets(self, make, n):
        points = make(n, seed=n)
        for edges in (all_edges(n), all_edges(n)[::-1], random_subset(n, 0), random_subset(n, 1), _diagonals(n)):
            assert side_masks(points, edges) == naive_side_masks(points, edges)

    @pytest.mark.parametrize("m", [1, 2, 5, 12])
    def test_crossing_family_sets(self, m):
        points, family = gen_perfect_crossing_family_pointset(m, seed=m)
        for edges in (family, family[::-1], all_edges(2 * m), random_subset(2 * m, 2)):
            assert side_masks(points, edges) == naive_side_masks(points, edges)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_smallest_sets(self, n):
        points = gen_random_pointset(n, seed=n)
        for edges in (all_edges(n), all_edges(n)[::-1], all_edges(n)[:1], []):
            assert side_masks(points, edges) == naive_side_masks(points, edges)

    @pytest.mark.parametrize("seed", range(3))
    def test_single_edges(self, seed):
        points = gen_random_pointset(9, seed=seed)
        for e in all_edges(9):
            assert side_masks(points, [e]) == naive_side_masks(points, [e]) == [0]
        assert side_masks(points, [Edge(0, 8), Edge(3, 5)]) == naive_side_masks(points, [Edge(0, 8), Edge(3, 5)])

    @pytest.mark.parametrize("n", [5, 12])
    def test_stars_at_every_center(self, n):
        # The center is one end of every swap that finds an edge.
        points = gen_random_pointset(n, seed=n)
        for center in range(n):
            star = [Edge.of(center, w) for w in range(n) if w != center]
            for edges in (star, star[::-1], star[:2], [star[-1]] + star[:1]):
                assert side_masks(points, edges) == naive_side_masks(points, edges)
                assert crossing_masks(points, edges) == naive_crossing_masks(points, edges)

    @pytest.mark.parametrize("n", [6, 13, 40])
    def test_matchings(self, n):
        # Every end has one edge, so most swaps find no edge.
        rng = random.Random(f"matching:{n}")
        order = list(range(n))
        rng.shuffle(order)
        matching = [Edge.of(a, b) for a, b in zip(order[::2], order[1::2])]
        points = gen_random_pointset(n, seed=n)
        for edges in (matching, matching[: len(matching) // 2]):
            assert side_masks(points, edges) == naive_side_masks(points, edges)
            assert crossing_masks(points, edges) == naive_crossing_masks(points, edges)

    def test_near_parallel_directions_at_the_coordinate_limit(self):
        points = near_parallel_pointset()
        d = [(p.x - points[0].x, p.y - points[0].y) for p in points[1:]]
        assert [d[0][0] * d[1][1] - d[0][1] * d[1][0], d[2][0] * d[3][1] - d[2][1] * d[3][0]] == [-1, 1]
        assert min(c for v in d[:4] for c in v) >= 2**31 - 2
        assert d[4][1] == d[5][0] == 0
        n = points.n
        for edges in (all_edges(n), all_edges(n)[::-1], [Edge(0, w) for w in range(1, n)], [Edge(1, 2), Edge(3, 4)]):
            assert side_masks(points, edges) == naive_side_masks(points, edges)
            assert crossing_masks(points, edges) == naive_crossing_masks(points, edges)

    @pytest.mark.parametrize("seed", range(3))
    def test_coordinates_within_three_of_the_limit(self, seed):
        points = extreme_pointset(14, seed)
        for edges in (all_edges(14), random_subset(14, seed)):
            assert side_masks(points, edges) == naive_side_masks(points, edges)

    @pytest.mark.parametrize(
        "points",
        [gen_random_pointset(13, seed=2), gen_convex_polygon(10, seed=1), gen_perfect_crossing_family_pointset(6)[0]]
        + PARALLEL_SETS,
        ids=["random", "convex", "family"] + PARALLEL_IDS,
    )
    def test_depths_match_the_pointwise_oracle(self, points):
        edges, masks, depths = build_crossing_graph(points)
        assert dict(zip(edges, depths)) == dict(zip(all_edges(points.n), naive_edge_depths(points)))
        assert masks == naive_crossing_masks(points, edges)


class TestCuts:
    """Runs in convex index order, and rows read from the other side of an edge."""

    @pytest.mark.parametrize("n", range(0, 13))
    def test_convex_index_order(self, n):
        for edges in (all_edges(n), all_edges(n)[::-1], random_subset(n, 0), random_subset(n, 1), _diagonals(n)):
            assert side_masks(n, edges) == naive_convex_side_masks(edges)

    @pytest.mark.parametrize("n", [5, 9, 14])
    def test_either_side_gives_the_same_rows(self, n):
        # A swap reads the points before its pair, the right side of edge
        # (a, b) when a comes first by (y, x), and an empty side at either
        # end of the order. A convex ring reads a run that wraps past its
        # end from the other side; a hull edge has an empty side there too.
        random_set, convex_set = gen_random_pointset(n, seed=3), shuffled_convex_polygon(n, seed=3)
        edges = all_edges(n)
        swapped = {(p, q): lo for p, q, lo, _ in replayed_swaps(random_set, edges)}
        right_side = [e for e in edges if e in swapped]
        at_the_end = [e for e in edges if swapped.get(e, swapped.get(e[::-1])) in (0, n - 2)]
        _, cuts = _convex_cuts(convex_set, edges)
        wrapping = [e for e, (lo, hi) in zip(edges, cuts) if hi > n]
        empty_side = [e for e, (lo, hi) in zip(edges, cuts) if n in (lo, hi) or hi - lo in (0, n - 2)]
        for points, other, ends in ((random_set, right_side, at_the_end), (convex_set, wrapping, empty_side)):
            assert other and ends
            assert crossing_masks(points, edges) == naive_crossing_masks(points, edges)
            for sub in (other, other[::-1], ends, other[:1] + ends[:1]):
                assert side_masks(points, sub) == naive_side_masks(points, sub)
                assert crossing_masks(points, sub) == naive_crossing_masks(points, sub)


def shuffled_convex_polygon(n, seed):
    """A convex polygon whose index order is a random permutation of its clockwise order."""
    points = list(gen_convex_polygon(n, seed=seed))
    random.Random(f"shuffle:{n}:{seed}").shuffle(points)
    return PointSet(points)


# (family, proven, nodes) of `max_crossing_family` on a random, a convex and
# a shuffled convex set for each n = 2..60, as the angular sweep gave them
# before convex point sets took the one-ring path.
FAMILIES_SHA256 = "b1ecb293f268913b9def3cdb8488cb086687019d022058ebd86c3d5f677eed97"


class TestConvexRing:
    """Convex point sets in any index order: ring rows in clockwise hull order, and the swept crossing graph."""

    @pytest.mark.parametrize("n", [3, 4, 7, 12, 29])
    def test_index_order_is_not_clockwise(self, n):
        points = shuffled_convex_polygon(n, seed=n)
        order = validate_pointset(points)
        assert order is not None and sorted(order) == list(range(n))
        assert n == 3 or order != tuple(range(n))

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 13, 21, 29])
    @pytest.mark.parametrize("seed", range(2))
    def test_masks_and_left_sides(self, n, seed):
        points = shuffled_convex_polygon(n, seed=seed)
        shuffled = all_edges(n)
        random.Random(seed).shuffle(shuffled)
        for edges in (all_edges(n), shuffled, random_subset(n, seed), _diagonals(n), all_edges(n)[:1]):
            assert crossing_masks(points, edges) == naive_crossing_masks(points, edges)
            assert side_masks(points, edges) == naive_side_masks(points, edges)

    @pytest.mark.parametrize("step", [1, -1], ids=["clockwise", "counter-clockwise"])
    def test_both_orientations_of_index_order(self, step):
        points = PointSet(list(gen_convex_polygon(9, seed=4))[::step])
        for edges in (all_edges(9), random_subset(9, 5)):
            assert crossing_masks(points, edges) == naive_crossing_masks(points, edges)
            assert side_masks(points, edges) == naive_side_masks(points, edges)

    @pytest.mark.parametrize("used", [2, 3, 4, 7, 16])
    def test_few_used_points(self, used):
        n = 30
        rng = random.Random(f"convex-few:{used}")
        points = shuffled_convex_polygon(n, seed=used)
        chosen = sorted(rng.sample(range(n), used))
        among = [Edge(a, b) for a in chosen for b in chosen if a < b]
        scattered = rng.sample(all_edges(n), used)
        for edges in (among, among[::-1], scattered):
            assert crossing_masks(points, edges) == naive_crossing_masks(points, edges)
            assert side_masks(points, edges) == naive_side_masks(points, edges)
        # The sub-PointSet keeps the chosen points in order, so its edges
        # lifted back are among, in the same lexicographic order.
        sub = PointSet([points[w] for w in chosen])
        edges, masks, depths = build_crossing_graph(sub)
        lifted = [Edge(chosen[a], chosen[b]) for a, b in edges]
        assert masks == naive_crossing_masks(points, lifted)
        assert dict(zip(lifted, depths)) == dict(zip(among, naive_edge_depths(sub)))

    @pytest.mark.parametrize("n", [3, 4, 6, 11, 20, 29])
    def test_depths_match_the_pointwise_oracle(self, n):
        points = shuffled_convex_polygon(n, seed=n + 1)
        edges, masks, depths = build_crossing_graph(points)
        assert dict(zip(edges, depths)) == dict(zip(all_edges(n), naive_edge_depths(points)))
        assert masks == naive_crossing_masks(points, edges)

    @pytest.mark.parametrize("order", ["clockwise", "counter-clockwise", "shuffled"])
    def test_crossing_graph_agrees_with_the_ring(self, order):
        # The crossing graph sweeps and `crossing_masks` cuts the ring, so
        # each assembly checks the other.
        for n in range(3, 41):
            if order == "shuffled":
                points = shuffled_convex_polygon(n, seed=n)
            else:
                points = PointSet(list(gen_convex_polygon(n, seed=n))[:: 1 if order == "clockwise" else -1])
            edges, masks, depths = build_crossing_graph(points)
            assert masks == crossing_masks(points, edges)
            assert dict(zip(edges, depths)) == dict(zip(all_edges(n), naive_edge_depths(points)))

    @pytest.mark.parametrize("n", [5, 8, 17])
    def test_one_ring_for_convex_sets_and_sweeps_otherwise(self, n):
        points = shuffled_convex_polygon(n, seed=n)
        edges = all_edges(n)
        ring, cuts = _convex_cuts(points, edges)
        assert tuple(ring) == validate_pointset(points)
        assert len(cuts) == len(edges)
        sub = [e for e in edges if 0 not in e]  # point 0 is left off the ring
        ring, _ = _convex_cuts(points, sub)
        assert list(ring) == [w for w in validate_pointset(points) if w != 0]
        ring, _ = _convex_cuts(n, edges[::-1])
        assert list(ring) == list(range(n))
        random_set = gen_random_pointset(n, seed=1)
        assert validate_pointset(random_set) is None
        assert _convex_cuts(random_set, edges) is None
        order, swaps = _swaps(random_set, edges)
        assert order == sorted(range(n), key=lambda w: (random_set[w].y, random_set[w].x))
        assert sorted(Edge.of(p, q) for p, q in swaps) == edges  # one sweep: every pair swaps once

    def test_max_crossing_family_is_unchanged(self):
        rows = []
        for n in range(2, 61):
            sets = [gen_random_pointset(n, seed=n)]
            if n >= 3:
                sets += [gen_convex_polygon(n, seed=n), shuffled_convex_polygon(n, n)]
            for points in sets:
                family = max_crossing_family(points)
                rows.append((n, [tuple(e) for e in family.edges], family.proven_maximum, family.nodes))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == FAMILIES_SHA256


class TestFewUsedPoints:
    """Edge lists that touch only some of the points: rings hold the used points alone."""

    @pytest.mark.parametrize("used", [7, 8, 9, 16, 17, 25])
    def test_masks_and_depths_on_the_used_points(self, used):
        n = 40
        rng = random.Random(f"tables:{used}")
        points = gen_random_pointset(n, seed=used)
        chosen = sorted(rng.sample(range(n), used))
        among = [Edge(a, b) for a in chosen for b in chosen if a < b]
        path = [Edge.of(a, b) for a, b in zip(chosen, chosen[1:])]  # touches every chosen point
        sparse = sorted(set(path) | set(rng.sample(among, len(among) // 4)))
        rng.shuffle(sparse)
        for instance in (points, n):
            assert crossing_masks(instance, among) == naive_crossing_masks(instance, among)
            assert crossing_masks(instance, sparse) == naive_crossing_masks(instance, sparse)
        # The sub-PointSet keeps the chosen points in order, so its edges
        # lifted back are among, in the same lexicographic order.
        sub = PointSet([points[w] for w in chosen])
        edges, masks, depths = build_crossing_graph(sub)
        lifted = [Edge(chosen[a], chosen[b]) for a, b in edges]
        assert masks == naive_crossing_masks(points, lifted)
        assert dict(zip(lifted, depths)) == dict(zip(among, naive_edge_depths(sub)))

    @pytest.mark.parametrize("seed", range(3))
    def test_no_edge_at_the_first_eight_points(self, seed):
        # Rings are indexed by used point, not by point index: edges that
        # avoid points 0..7 start their rings at point 8.
        n = 40
        rng = random.Random(f"first-byte:{seed}")
        points = gen_random_pointset(n, seed=seed)
        nine = [Edge(a, b) for a in range(8, 17) for b in range(a + 1, 17)]
        late = rng.sample([e for e in all_edges(n) if e.u >= 8], 60)
        for edges in (nine, late, late[::-1]):
            assert crossing_masks(points, edges) == naive_crossing_masks(points, edges)
            assert crossing_masks(n, edges) == naive_crossing_masks(n, edges)


class TestParallelPairs:
    """Sets whose pairs fall in parallel groups, or lie on the axes, against the pair-by-pair oracles.

    `TestAngularSweep.test_depths_match_the_pointwise_oracle` checks their
    degree-order rows and depths.
    """

    @pytest.mark.parametrize("points", PARALLEL_SETS, ids=PARALLEL_IDS)
    def test_the_sets_sweep_with_parallel_and_axis_pairs(self, points):
        assert validate_pointset(points) is None
        found = directions(points)
        shared = [d for d in found if found.count(d) > 1]
        assert len(shared) >= len(found) // 3
        assert (1, 0) in found
        assert points is not AXIS_PAIRS or found.count((1, 0)) == found.count((0, 1)) == 5

    @pytest.mark.parametrize("points", PARALLEL_SETS, ids=PARALLEL_IDS)
    def test_masks_and_left_sides(self, points):
        n = points.n
        shuffled = all_edges(n)
        random.Random(n).shuffle(shuffled)
        for edges in (all_edges(n), all_edges(n)[::-1], shuffled, random_subset(n, 0), _diagonals(n)):
            assert crossing_masks(points, edges) == naive_crossing_masks(points, edges)
            assert side_masks(points, edges) == naive_side_masks(points, edges)

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("points", PARALLEL_SETS, ids=PARALLEL_IDS)
    def test_class_rows_with_an_edge_in_two_classes(self, points, seed):
        classes = random_classes(points.n, seed)
        groups = [canonical_edges(points, edges) for edges in classes]
        assert len({e for edges in groups for e in edges}) < sum(map(len, groups))  # an edge in two classes
        got = list(class_crossing_masks(points, groups))
        assert got == [naive_crossing_masks(points, edges) for edges in groups]


def star_union(rng, n, centres, extra=0):
    """Stars at the centres with random leaves, plus `extra` single edges, shuffled and partly written backwards."""
    edges = {Edge.of(c, w) for c in centres for w in rng.sample([w for w in range(n) if w != c], rng.randrange(1, n))}
    edges |= set(rng.sample(all_edges(n), extra))
    return [e if rng.random() < 0.7 else (e.v, e.u) for e in rng.sample(sorted(edges), len(edges))]


def star_classes(points, k, seed, family):
    """(classes, crossing): unions of j = 0..k stars, some with single edges, and empty classes, in random order.

    With a family, the crossing classes hold k family edges, which
    pairwise cross: k stars centred on one end of each; k - 1 of them,
    the k-th edge single and one star edge at it; and the first k family
    edges with the edge 01. When 0 and 1 lie on two family edges, 01
    comes first, so the scan for disjoint edges keeps fewer than k of
    them, and k - 1 greedy cover vertices leave one edge. The crossing
    classes are among the classes too.
    """
    rng = random.Random(f"stars:{points.n}:{k}:{seed}")
    n = points.n
    classes = [[], []]
    for j in range(k + 1):
        for extra in (0, 0, 1, 2):
            classes.append(star_union(rng, n, rng.sample(range(n), j), extra))
    crossing = []
    if len(family) >= k:
        chosen = rng.sample(family, k)
        ends = [rng.choice(e) for e in chosen]
        bridge = (ends[1], rng.choice(chosen[0]))
        crossing = [star_union(rng, n, ends) + chosen, star_union(rng, n, ends[1:]) + chosen + [bridge]]
        crossing.append(family[:k] + [Edge(0, 1)])
    classes += crossing
    rng.shuffle(classes)
    return classes, crossing


def reference_quasi_planar(points, classes, k):
    """(ok, witness, index) from each class's pair-by-pair rows and one clique search per class."""
    for index, edges in enumerate([canonical_edges(points, c) for c in classes]):
        size, members, _, _ = _native.max_clique(naive_crossing_masks(points, edges), target=k, floor_size=k - 1)
        if size >= k:
            return False, tuple(edges[i] for i in members[:k]), index
    return True, None, None


def swapped_family_set(m, seed):
    """`gen_perfect_crossing_family_pointset(m)` with points 1 and 2 swapped: its family starts (0, 2), (1, 3)."""
    points, family = gen_perfect_crossing_family_pointset(m, seed=seed)
    points = PointSet([points[0], points[2], points[1], *points[3:]])
    return points, [Edge(0, 2), Edge(1, 3), *family[2:]]


STAR_SETS = {  # (points, a perfect crossing family or none)
    **{f"random{n}": (gen_random_pointset(n, seed=n), []) for n in (9, 14)},
    **{f"convex{n}": (gen_convex_polygon(n, seed=n), []) for n in (9, 14)},
    "family5": gen_perfect_crossing_family_pointset(5, seed=5),
    "family7-swapped": swapped_family_set(7, 7),
}


class TestSmallCovers:
    """Classes that at most k - 1 vertices touch pass without a search; every verdict matches the reference."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("name", STAR_SETS)
    def test_star_unions_match_the_per_class_reference(self, name, k, seed):
        points, family = STAR_SETS[name]
        classes, crossing = star_classes(points, k, seed, family)
        for end in range(1, len(classes) + 1):  # every prefix, so each class is first to fail in one of them
            result = is_k_quasi_planar(points, classes[:end], k)
            assert (result.ok, result.witness, result.index) == reference_quasi_planar(points, classes[:end], k)
        for edges in crossing:
            result = is_k_quasi_planar(points, [[], edges], k)
            assert (result.ok, result.index) == (False, 1)
            assert (result.ok, result.witness, result.index) == reference_quasi_planar(points, [[], edges], k)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_a_covered_class_is_range_checked_first(self, k):
        points = gen_random_pointset(10, seed=3)
        star = [(0, w) for w in range(1, 11)]  # (0, 10) is out of range
        for classes in ([star], [all_edges(10), star], [[], star, all_edges(10)]):
            with pytest.raises(ValueError, match=r"edge \(0, 10\) out of range for n=10"):
                is_k_quasi_planar(points, classes, k, budget=1)


def cross_cmp(a, b):
    """-1, 0 or 1 as direction a's angle in [0, pi) is below, equal to or above b's, by one cross product."""
    det = a[0] * b[1] - a[1] * b[0]
    return (det < 0) - (det > 0)


def oriented(dx, dy):
    """The direction (dx, dy), or its opposite, in [0, pi)."""
    return (dx, dy) if dy > 0 or (dy == 0 and dx > 0) else (-dx, -dy)


# The largest |dx| and |dy| between two points within COORD_LIMIT.
SPAN = 2 * COORD_LIMIT


class TestDirectionKey:
    """`direction_key`, which orders the sweep's pairs and the halving lines, against one cross product per pair."""

    def assert_orders_like_the_cross_product(self, found):
        assert all(0 <= dy <= SPAN and abs(dx) <= SPAN and (dy or dx > 0) for dx, dy in found)
        keys = [direction_key(d) for d in found]
        for a, ka in zip(found, keys):
            for b, kb in zip(found, keys):
                assert (ka > kb) - (ka < kb) == cross_cmp(a, b), (a, b)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_directions(self, seed):
        rng = random.Random(f"directions:{seed}")
        found = [(1, 0), (0, 1)]
        for limit in [SPAN] * 150 + [9] * 60:  # wide directions, then small ones with many parallels
            dx, dy = rng.randint(-limit, limit), rng.randint(-limit, limit)
            if dx or dy:
                found.append(oriented(dx, dy))
        self.assert_orders_like_the_cross_product(found)

    def test_horizontal_and_vertical_directions(self):
        found = [(1, 0), (2, 0), (SPAN, 0), (0, 1), (0, SPAN), (SPAN, 1), (-SPAN, 1), (1, SPAN), (-1, SPAN)]
        self.assert_orders_like_the_cross_product(found)
        assert direction_key((1, 0)) == direction_key((SPAN, 0)) < min(direction_key(d) for d in found[3:])

    def test_near_parallel_directions_at_the_coordinate_limit(self):
        # Neighbours of determinant 1 with components at SPAN: their
        # directions are about 2^-62 apart, the bound the key is exact to.
        m = SPAN
        pairs = [
            ((m, m - 1), (m - 1, m - 2)),
            ((-m, m - 1), (-(m - 1), m - 2)),
            ((m - 1, m), (m - 2, m - 1)),
            ((-(m - 1), m), (-(m - 2), m - 1)),
            ((m, 1), (m - 1, 1)),
            ((-m, 1), (-(m - 1), 1)),
            ((1, m), (1, m - 1)),
            ((-1, m), (-1, m - 1)),
        ]
        for a, b in pairs:
            assert abs(a[0] * b[1] - a[1] * b[0]) == 1
        self.assert_orders_like_the_cross_product([d for pair in pairs for d in pair])

    @pytest.mark.parametrize("seed", range(3))
    def test_parallel_directions_share_a_key(self, seed):
        rng = random.Random(f"parallel:{seed}")
        for _ in range(200):
            dx, dy = oriented(rng.randint(-999, 999), rng.randint(-999, 999))
            if (dx, dy) == (0, 0):
                continue
            scale = rng.randint(1, SPAN // max(abs(dx), dy))
            assert direction_key((dx, dy)) == direction_key((dx * scale, dy * scale))
            assert cross_cmp((dx, dy), (dx * scale, dy * scale)) == 0


def random_classes(n, seed):
    """Random classes of K_n: some empty, one edge in two classes, edges written backwards."""
    rng = random.Random(f"classes:{n}:{seed}")
    classes = [[] for _ in range(rng.randrange(2, 6))]
    for e in all_edges(n):
        classes[rng.randrange(len(classes))].append(e if rng.random() < 0.8 else (e.v, e.u))
    classes.insert(rng.randrange(len(classes) + 1), [])
    shared = rng.choice(all_edges(n))
    for edges in rng.sample(classes, 2):
        edges.append(shared)
    return classes


def one_class_at_a_time(verify, instance, classes, *args, **kwargs):
    """The first failing class by one-class calls: (index, witness, crossings), or (index, message) of a budget stop."""
    for index, edges in enumerate(classes):
        try:
            result = verify(instance, [edges], *args, **kwargs)
        except SearchBudgetError as err:
            return index, str(err)
        if not result.ok:
            assert result.index == 0
            return index, result.witness, getattr(result, "crossings", None)
    return None


def all_classes_at_once(verify, instance, classes, *args, **kwargs):
    """(index, witness, crossings) of the first failing class by one class-list call, or a budget stop's message."""
    try:
        result = verify(instance, classes, *args, **kwargs)
    except SearchBudgetError as err:
        return str(err)
    return None if result.ok else (result.index, result.witness, getattr(result, "crossings", None))


class TestClassLists:
    """One crossing pass over every class against one call per class."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [5, 9, 14])
    def test_rows_are_those_of_each_class_alone(self, n, seed):
        classes = random_classes(n, seed)
        for instance in (gen_random_pointset(n, seed=seed), n):
            groups = [canonical_edges(instance, edges) for edges in classes]
            got = list(class_crossing_masks(instance, groups))
            assert got == [naive_crossing_masks(instance, edges) for edges in groups]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [6, 10, 16])
    def test_k_planar_first_failing_class(self, n, seed):
        classes = random_classes(n, seed)
        for instance in (gen_random_pointset(n, seed=seed), gen_convex_polygon(n, seed=seed), n):
            for k in (0, 1, 2, 4, 40):
                want = one_class_at_a_time(verify_k_planar, instance, classes, k)
                assert all_classes_at_once(verify_k_planar, instance, classes, k) == want
                naive = [
                    any(m.bit_count() > k for m in naive_crossing_masks(instance, canonical_edges(instance, c)))
                    for c in classes
                ]
                assert (want is None) == (True not in naive)
                assert want is None or want[0] == naive.index(True)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [7, 10, 12])
    def test_quasi_planar_first_failing_class(self, n, seed):
        classes = random_classes(n, seed)
        points = gen_random_pointset(n, seed=seed)
        for k in (3, 4, 5):
            want = one_class_at_a_time(is_k_quasi_planar, points, classes, k)
            assert all_classes_at_once(is_k_quasi_planar, points, classes, k) == want
            naive = []
            for c in classes:
                edges = canonical_edges(points, c)
                masks = naive_crossing_masks(points, edges)
                naive.append(naive_max_clique_enum(lambda i, j: bool(masks[i] >> j & 1), len(edges)) >= k)
            assert (want is None) == (True not in naive)
            assert want is None or want[0] == naive.index(True)

    def test_budget_stops_where_the_class_loop_stops(self):
        n = 16
        stops = set()
        for seed in range(4):
            classes = random_classes(n, seed)
            points = gen_random_pointset(n, seed=seed)
            for k in (3, 4, 5):
                for budget in (1, 2, 3, 5, 8, 13, 21, 55, 10**8):
                    want = one_class_at_a_time(is_k_quasi_planar, points, classes, k, budget=budget)
                    got = all_classes_at_once(is_k_quasi_planar, points, classes, k, budget=budget)
                    if want is not None and len(want) == 2:  # the loop stopped at class want[0]
                        assert got == want[1]
                        stops.add(want[0])
                    else:
                        assert got == want
        assert {0, 2, 3, 4} <= stops  # in the first class, and after classes that passed

    def test_every_class_is_range_checked_before_any_is_verified(self):
        # Class 0 fails on its own, but class 1 holds an edge out of range:
        # the class-list call raises rather than report index 0.
        n = 6
        failing = all_edges(n)
        points = gen_convex_polygon(n, seed=0)
        assert verify_k_planar(n, [failing], 0).index == 0
        assert is_k_quasi_planar(points, [failing], 3).index == 0
        classes = [failing, [Edge(0, 1), (2, n)]]
        with pytest.raises(ValueError, match="out of range"):
            verify_k_planar(n, classes, 0)
        with pytest.raises(ValueError, match="out of range"):
            verify_k_planar(points, classes, 0)
        with pytest.raises(ValueError, match="out of range"):
            is_k_quasi_planar(points, classes, 3)

    def test_empty_class_lists_and_classes(self):
        points = gen_random_pointset(6, seed=0)
        for verify, k in ((verify_k_planar, 0), (is_k_quasi_planar, 2)):
            assert verify(points, [], k).ok
            assert verify(points, [[], []], k).ok
            result = verify(points, [[], [], all_edges(6)], k)
            assert not result.ok and result.index == 2


class TestCanonicalEdges:
    def test_reverses_dedups_and_sorts(self):
        edges = [(3, 0), (1, 4), (0, 3), Edge(1, 4)]
        want = [Edge(0, 3), Edge(1, 4)]
        assert canonical_edges(6, edges) == canonical_edges(gen_convex_polygon(6), edges) == want

    @pytest.mark.parametrize("edge", [(-1, 2), (2, -1), (0, 6), (6, 0)])
    def test_out_of_range(self, edge):
        with pytest.raises(ValueError, match="out of range"):
            canonical_edges(6, [edge])
        with pytest.raises(ValueError, match="out of range"):
            canonical_edges(gen_convex_polygon(6), [edge])

    def test_degenerate_edge(self):
        with pytest.raises(ValueError, match="degenerate"):
            canonical_edges(6, [(2, 2)])

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 9), (2, 2)], "edge (0, 9) out of range for n=6"),
            ([(2, 2), (0, 9)], "degenerate edge (2, 2)"),
            ([(1, 2), (7, 3), (-1, 0), (4, 4)], "edge (3, 7) out of range for n=6"),
            ([(5, 5), (0, 1), (-2, -2)], "degenerate edge (5, 5)"),
            ([(3, 4), (0, 1), (4, 3), (6, 0)], "edge (0, 6) out of range for n=6"),
        ],
    )
    def test_first_bad_edge_in_caller_order_is_named(self, edges, message):
        for instance in (6, gen_convex_polygon(6)):
            for given in (edges, iter(edges), tuple(edges)):
                with pytest.raises(ValueError) as err:
                    canonical_edges(instance, given)
                assert str(err.value) == message

    def test_class_lists_come_back_as_they_are(self):
        # `Coloring.classes()` gives in-range `Edge`s in increasing order:
        # a new list of the same objects, none rebuilt.
        classes = Coloring(9, 4, [(e.u * e.v) % 4 for e in all_edges(9)]).classes()
        for instance in (9, gen_convex_polygon(9)):
            for edges in classes.values():
                got = canonical_edges(instance, edges)
                assert got == edges and got is not edges
                assert all(g is e for g, e in zip(got, edges))

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (0, 2), (3, 5)],
            [Edge(0, 1), Edge(4, 2)],
            [Edge(0, 1), Edge(0, 1), Edge(2, 3)],
            [Edge(0, 2), Edge(0, 1)],
            [Edge(1, 2), (0, 3)],
        ],
        ids=["plain-tuples", "reversed-pair", "duplicate", "decreasing", "mixed"],
    )
    def test_other_lists_come_back_as_new_sorted_edges(self, edges):
        got = canonical_edges(6, edges)
        assert got == sorted({Edge.of(*e) for e in edges})
        assert all(type(g) is Edge and g.u < g.v for g in got)
        assert not any(g is e for g in got for e in edges)

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([Edge(-1, 2), Edge(0, 1)], "edge (-1, 2) out of range for n=6"),
            ([Edge(0, 1), Edge(0, 6)], "edge (0, 6) out of range for n=6"),
            ([Edge(0, 1), Edge(6, 3)], "edge (3, 6) out of range for n=6"),
        ],
    )
    def test_increasing_edges_out_of_range_are_named(self, edges, message):
        with pytest.raises(ValueError) as err:
            canonical_edges(6, edges)
        assert str(err.value) == message

    def test_iterators_are_read_once(self):
        edges = [(3, 0), (1, 4), (0, 3), (5, 2)]
        assert canonical_edges(6, iter(edges)) == canonical_edges(6, edges) == [Edge(0, 3), Edge(1, 4), Edge(2, 5)]
        assert canonical_edges(6, (e for e in edges)) == [Edge(0, 3), Edge(1, 4), Edge(2, 5)]
        assert all(type(e) is Edge for e in canonical_edges(6, edges))
