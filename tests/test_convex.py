"""Slope classes, interval partitions, and convex k-planarity checks.

The combinatorial layer is anchored to geometry twice: chord crossing is
compared against the exact segment predicate on realized convex polygons,
and slope-class parallelism is compared against direction vectors on an
affine-regular hexagon (affine maps preserve parallelism, and n = 6 admits
an exact integer affine-regular realization).
"""

from itertools import combinations
from math import comb

import pytest
from oracles import naive_convex_crossings

from beyondplanar.convex import (
    choose_block_size,
    convex_edges_cross,
    count_convex_crossings,
    position_crossing_cap,
    slope_class,
    slope_partition,
    slope_position,
    verify_k_planar,
)
from beyondplanar.crossings import crossing_masks
from beyondplanar.geometry import Edge, Point, all_edges, gen_convex_polygon, segments_cross

AFFINE_REGULAR_HEXAGON = [Point(2, 0), Point(1, 1), Point(-1, 1), Point(-2, 0), Point(-1, -1), Point(1, -1)]


def parallel(p, q, r, s):
    return (q.x - p.x) * (s.y - r.y) == (q.y - p.y) * (s.x - r.x)


class TestSlopeClass:
    def test_examples(self):
        assert slope_class(12, Edge(0, 5)) == 5
        assert slope_class(6, Edge(1, 4)) == 5
        assert slope_class(6, Edge(2, 3)) == 5
        assert slope_class(6, Edge(0, 5)) == 5

    def test_parallelism_on_regular_hexagon(self):
        # Two chords of the regular n-gon are parallel iff their slope
        # classes agree; checked against exact directions on an integer
        # affine-regular realization.
        pts = AFFINE_REGULAR_HEXAGON
        for e, f in combinations(all_edges(6), 2):
            same_dir = parallel(pts[e.u], pts[e.v], pts[f.u], pts[f.v])
            assert same_dir == (slope_class(6, e) == slope_class(6, f)), (e, f)

    def test_class_sizes_cover_all_edges(self):
        for n in (5, 6, 9, 12):
            by_class = {}
            for e in all_edges(n):
                by_class.setdefault(slope_class(n, e), []).append(e)
            assert set(by_class) == set(range(n))
            assert sum(len(v) for v in by_class.values()) == n * (n - 1) // 2

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError):
            slope_class(6, Edge(0, 6))


class TestConvexEdgesCross:
    def test_examples(self):
        assert convex_edges_cross(6, Edge(0, 3), Edge(1, 4))
        assert not convex_edges_cross(6, Edge(0, 1), Edge(2, 3))
        assert not convex_edges_cross(6, Edge(0, 2), Edge(2, 4))

    def test_symmetric(self):
        for e, f in combinations(all_edges(7), 2):
            assert convex_edges_cross(7, e, f) == convex_edges_cross(7, f, e)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_matches_exact_segments_on_realizations(self, n):
        # gen_convex_polygon returns clockwise cyclic order equal to index
        # order, so the interleaving test must agree with the exact segment
        # predicate on every edge pair.
        ps = gen_convex_polygon(n, seed=n)
        for e, f in combinations(all_edges(n), 2):
            assert convex_edges_cross(n, e, f) == segments_cross(ps[e.u], ps[e.v], ps[f.u], ps[f.v]), (n, e, f)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_same_or_adjacent_slope_never_cross(self, n):
        for e, f in combinations(all_edges(n), 2):
            d = (slope_class(n, e) - slope_class(n, f)) % n
            if d == 0 or d == 1 or d == n - 1:
                assert not convex_edges_cross(n, e, f), (n, e, f)


class TestSlopePartition:
    def test_hexagon_two_colors(self):
        col = slope_partition(6, 3)
        assert col.num_colors == 2
        for e, c in col.items():
            assert c == (0 if slope_class(6, e) < 3 else 1)

    def test_n12_s4_three_colors_each_3planar(self):
        col = slope_partition(12, 4)
        assert col.num_colors == 3
        for edges in col.classes():
            assert verify_k_planar(12, edges, 3)

    def test_single_interval_is_whole_graph(self):
        col = slope_partition(5, 5)
        assert col.num_colors == 1
        assert len(col.class_edges(0)) == 10

    def test_color_count_formula(self):
        for n in range(3, 16):
            for s in range(1, n + 1):
                col = slope_partition(n, s)
                assert col.num_colors == -(-n // s)
                assert all(len(c) > 0 for c in col.classes())

    @pytest.mark.parametrize("n", range(5, 13))
    def test_all_widths_meet_planarity_guarantee(self, n):
        for s in range(3, n + 1):
            k = (s - 1) * (s - 2) // 2
            for edges in slope_partition(n, s).classes():
                res = verify_k_planar(n, edges, k)
                assert res, (n, s, res.witness, res.crossings)

    @pytest.mark.parametrize("n", range(5, 13))
    def test_position_refinement_bound(self, n):
        for s in range(3, n + 1):
            col = slope_partition(n, s)
            for edges in col.classes():
                for e, mask in zip(edges, crossing_masks(n, edges)):
                    cap = position_crossing_cap(s, slope_position(n, s, e))
                    assert mask.bit_count() <= cap, (n, s, e)


class TestVerifyKPlanar:
    def test_k5_is_2_planar(self):
        assert verify_k_planar(5, all_edges(5), 2)

    def test_k5_not_1_planar_witness_is_diagonal(self):
        res = verify_k_planar(5, all_edges(5), 1)
        assert not res
        u, v = res.witness
        assert (v - u) % 5 not in (1, 4)  # a diagonal, not a hull edge
        assert res.crossings == 2

    def test_empty_set(self):
        assert verify_k_planar(9, [], 0)

    def test_witness_count_is_exact(self):
        res = verify_k_planar(6, all_edges(6), 3)
        assert not res and res.crossings == 4

    def test_reversed_duplicates_are_one_edge(self):
        assert verify_k_planar(6, [(0, 3), (3, 0), (1, 4)], 1)

    def test_pointset_instance_matches_convex_index_order(self):
        ps = gen_convex_polygon(6, seed=0)
        assert verify_k_planar(ps, all_edges(6), 4)
        res = verify_k_planar(ps, all_edges(6), 3)
        assert (res.ok, res.witness, res.crossings) == (False, Edge(0, 3), 4)
        assert verify_k_planar(6, all_edges(6), 3) == res

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError, match="out of range"):
            verify_k_planar(6, [(0, 6)], 1)
        with pytest.raises(ValueError, match="out of range"):
            verify_k_planar(gen_convex_polygon(6), [(-1, 2)], 1)


def max_crossings_in_class(n, coloring, color):
    """Most same-class crossings over the class's edges, with the first edge reaching it."""
    edges = coloring.class_edges(color)
    counts = [mask.bit_count() for mask in crossing_masks(n, edges)]
    best = max(counts)
    return best, edges[counts.index(best)]


class TestMaxCrossingsInClass:
    def test_prop1_classes_are_1_planar(self):
        col = slope_partition(6, 3)
        mx, _ = max_crossings_in_class(6, col, 0)
        assert mx <= 1

    def test_width4_classes_are_3_planar(self):
        col = slope_partition(12, 4)
        for c in range(col.num_colors):
            mx, _ = max_crossings_in_class(12, col, c)
            assert mx <= 3

    def test_all_edges_class_of_k6(self):
        # A main diagonal of convex K_6 separates 2 + 2 vertices and is
        # crossed by exactly the 2*2 edges between the sides.
        col = slope_partition(6, 6)
        mx, witness = max_crossings_in_class(6, col, 0)
        assert mx == 4
        assert sum(convex_edges_cross(6, witness, f) for f in all_edges(6)) == 4

    def test_all_edges_class_matches_exact_geometry(self):
        # Independent oracle: same quantity measured with exact segment
        # crossings on a realized convex hexagon.
        ps = gen_convex_polygon(6, seed=0)
        es = all_edges(6)
        geo_max = max(sum(1 for f in es if ps.edges_cross(e, f)) for e in es)
        col = slope_partition(6, 6)
        assert max_crossings_in_class(6, col, 0)[0] == geo_max == 4


class TestChooseBlockSize:
    def test_examples(self):
        assert choose_block_size(1) == 3
        assert choose_block_size(3) == 4
        assert choose_block_size(6) == 5

    def test_smallest_cases(self):
        assert choose_block_size(0) == 3
        assert choose_block_size(2) == 3

    def test_monotone_and_feasible(self):
        prev = 3
        for k in range(1, 200):
            s = choose_block_size(k)
            assert s >= prev
            assert (s - 1) * (s - 2) // 2 <= k or (s == 3 and k <= 1)
            assert s * (s - 1) // 2 > k
            assert s * s >= 2 * k
            prev = s


class TestCountConvexCrossings:
    def test_complete_graph_is_choose_4(self):
        for n in range(4, 13):
            assert count_convex_crossings(n) == comb(n, 4) == naive_convex_crossings(n)

    def test_subset(self):
        # K_5 minus one diagonal: C(5,4) = 5 crossings minus the removed
        # diagonal's 2.
        edges = [e for e in all_edges(5) if e != Edge(0, 2)]
        assert count_convex_crossings(5, edges) == 3 == naive_convex_crossings(5, edges)

    def test_reversed_duplicates_count_once(self):
        assert count_convex_crossings(6, [(0, 3), (3, 0), (1, 4)]) == 1
