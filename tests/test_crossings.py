"""The crossing layer against the per-pair predicates it replaces.

`crossing_masks` is compared pair by pair with `segments_cross` on random
and convex point sets and with `convex_edges_cross` on convex index order,
for complete graphs, random edge subsets and the (skip, edge) order of the
extremal oracle's diagonal lists.
"""

import random

import pytest

from beyondplanar.convex import convex_edges_cross
from beyondplanar.crossings import canonical_edges, crossing_masks
from beyondplanar.geometry import Edge, all_edges, gen_convex_polygon, gen_random_pointset, segments_cross


def pairwise_masks(edges, cross):
    return [sum(1 << j for j, f in enumerate(edges) if j != i and cross(e, f)) for i, e in enumerate(edges)]


def segment_predicate(points):
    return lambda e, f: segments_cross(points[e.u], points[e.v], points[f.u], points[f.v])


def skip_order(n):
    def skip(e):
        return min(e.v - e.u, n - (e.v - e.u))

    return sorted((e for e in all_edges(n) if skip(e) >= 2), key=lambda e: (skip(e), e))


def random_subset(n, seed):
    rng = random.Random(f"crossings:{n}:{seed}")
    edges = all_edges(n)
    return rng.sample(edges, rng.randrange(len(edges) + 1))


class TestCrossingMasks:
    @pytest.mark.parametrize("n", [3, 5, 9, 14])
    @pytest.mark.parametrize("make", [gen_random_pointset, gen_convex_polygon])
    def test_pointset_matches_segments_cross(self, make, n):
        points = make(n, seed=n)
        cross = segment_predicate(points)
        for edges in (all_edges(n), random_subset(n, 0), random_subset(n, 1), skip_order(n)):
            assert crossing_masks(points, edges) == pairwise_masks(edges, cross)

    @pytest.mark.parametrize("n", range(0, 13))
    def test_convex_matches_convex_edges_cross(self, n):
        def cross(e, f):
            return convex_edges_cross(n, e, f)

        for edges in (all_edges(n), random_subset(n, 0), random_subset(n, 1), skip_order(n)):
            assert crossing_masks(n, edges) == pairwise_masks(edges, cross)


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
