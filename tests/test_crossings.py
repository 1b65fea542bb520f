"""The crossing layer against the per-pair predicates it replaces.

`crossing_masks` is compared with `naive_crossing_masks`, which decides
every pair with `segments_cross` or `convex_edges_cross`, on random and
convex point sets and on convex index order: complete graphs up to the
benchmark's n = 40, random edge subsets, the (skip, edge) order of the
extremal oracle's diagonal lists, reversed and shuffled caller orders,
subsets that leave most points unused, and coordinates at the limit.
Masks and depths are also checked where the side strings' XOR tables
change byte: 7, 8, 9, 16, 17 and 25 used points.
"""

import random

import pytest
from oracles import naive_crossing_masks, naive_edge_depths

from beyondplanar.crossings import canonical_edges, crossing_masks, crossings_in_degree_order
from beyondplanar.geometry import COORD_LIMIT, Edge, PointSet, all_edges, gen_convex_polygon, gen_random_pointset


def skip_order(n):
    def skip(e):
        return min(e.v - e.u, n - (e.v - e.u))

    return sorted((e for e in all_edges(n) if skip(e) >= 2), key=lambda e: (skip(e), e))


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


class TestCrossingMasks:
    @pytest.mark.parametrize("n", [3, 5, 9, 14])
    @pytest.mark.parametrize("make", [gen_random_pointset, gen_convex_polygon])
    def test_pointset_matches_segments_cross(self, make, n):
        points = make(n, seed=n)
        for edges in (all_edges(n), random_subset(n, 0), random_subset(n, 1), skip_order(n)):
            assert crossing_masks(points, edges) == naive_crossing_masks(points, edges)

    @pytest.mark.parametrize("n", range(0, 13))
    def test_convex_matches_convex_edges_cross(self, n):
        for edges in (all_edges(n), random_subset(n, 0), random_subset(n, 1), skip_order(n)):
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
        for edges in (all_edges(n), random_subset(n, 2), skip_order(n)):
            assert crossing_masks(n, edges) == crossing_masks(polygon, edges)


class TestSideStringTables:
    """Side strings are XORed through tables over 8 used points at a time."""

    @pytest.mark.parametrize("used", [7, 8, 9, 16, 17, 25])
    def test_masks_and_depths_at_table_boundaries(self, used):
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
        # The chosen points keep their order, so depths among them are those
        # of the sub-PointSet.
        edges, masks, depths = crossings_in_degree_order(points, among)
        assert masks == naive_crossing_masks(points, edges)
        assert dict(zip(edges, depths)) == dict(zip(among, naive_edge_depths(PointSet([points[w] for w in chosen]))))

    @pytest.mark.parametrize("seed", range(3))
    def test_no_edge_at_the_first_eight_points(self, seed):
        # Tables are indexed by used point, not by point index: edges that
        # avoid points 0..7 still fill the first table.
        n = 40
        rng = random.Random(f"first-byte:{seed}")
        points = gen_random_pointset(n, seed=seed)
        nine = [Edge(a, b) for a in range(8, 17) for b in range(a + 1, 17)]
        late = rng.sample([e for e in all_edges(n) if e.u >= 8], 60)
        for edges in (nine, late, late[::-1]):
            assert crossing_masks(points, edges) == naive_crossing_masks(points, edges)
            assert crossing_masks(n, edges) == naive_crossing_masks(n, edges)


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
