"""Closed-form bounds, crossing counts, and the extremal subgraph oracle."""

from fractions import Fraction
from math import comb, isqrt

import pytest
from oracles import naive_convex_crossings, naive_max_k_plane_convex

from beyondplanar.bounds import (
    BoundReport,
    count_crossings,
    crossing_lemma_bound,
    edge_bound_general,
    edge_bound_small_k,
    kplanar_color_bounds,
    max_k_plane_subgraph,
    one_planar_lower_bound,
    peeling_bound,
    quasi_color_bounds,
)
from beyondplanar.convex import verify_k_planar
from beyondplanar.geometry import Edge, all_edges, gen_convex_polygon


class TestEdgeBoundSmallK:
    def test_examples(self):
        assert edge_bound_small_k(5, 0) == 7
        assert edge_bound_small_k(5, 1) == Fraction(17, 2)
        assert edge_bound_small_k(5, 2) == 10

    def test_k0_is_outerplanar_bound(self):
        for n in range(3, 30):
            assert edge_bound_small_k(n, 0) == 2 * n - 3

    def test_strictly_increasing_in_k(self):
        for n in range(3, 20):
            vals = [edge_bound_small_k(n, k) for k in range(5)]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            edge_bound_small_k(5, 5)
        with pytest.raises(ValueError):
            edge_bound_small_k(1, 0)


class TestEdgeBoundGeneral:
    def test_examples(self):
        assert edge_bound_general(100, 5) == pytest.approx(551.13, abs=0.01)
        assert edge_bound_general(1, 5) == pytest.approx(5.5113, abs=0.0001)
        assert edge_bound_general(100, 8) == pytest.approx(697.14, abs=0.01)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            edge_bound_general(10, 4)


class TestCountCrossings:
    def test_convex_k4(self):
        assert count_crossings(4) == 1

    def test_convex_k12_is_choose_4(self):
        assert count_crossings(12) == comb(12, 4) == naive_convex_crossings(12)

    def test_k5_minus_diagonal(self):
        edges = [e for e in all_edges(5) if e != Edge(0, 2)]
        assert count_crossings(5, edges) == 3

    @pytest.mark.parametrize("n", range(4, 11))
    def test_pointset_dispatch_matches_convex(self, n):
        ps = gen_convex_polygon(n, seed=3)
        assert count_crossings(ps) == count_crossings(n) == comb(n, 4) == naive_convex_crossings(n)
        diagonals = [e for e in all_edges(n) if (e.v - e.u) % n not in (1, n - 1)]
        assert count_crossings(ps, diagonals) == count_crossings(n, diagonals) == naive_convex_crossings(n, diagonals)

    def test_reversed_duplicates_count_once(self):
        edges = [(0, 3), (3, 0), (1, 4)]
        assert count_crossings(6, edges) == count_crossings(gen_convex_polygon(6), edges) == 1

    @pytest.mark.parametrize("edges", [[(-1, 2), (0, 3)], [(0, 9), (1, 3)]])
    def test_pointset_edges_out_of_range_raise(self, edges):
        with pytest.raises(ValueError, match="out of range"):
            count_crossings(gen_convex_polygon(6), edges)
        with pytest.raises(ValueError, match="out of range"):
            count_crossings(6, edges)


class TestCrossingLemmaBound:
    def test_convex_k12(self):
        b = crossing_lemma_bound(12, 66)
        assert b == Fraction(20 * 66**3, 243 * 144)
        assert float(b) == pytest.approx(164.32, abs=0.01)
        assert count_crossings(12) >= b

    def test_exact_rational_point(self):
        assert crossing_lemma_bound(2, 9) == 15

    def test_rejects_below_hypothesis(self):
        with pytest.raises(ValueError, match="9n/2"):
            crossing_lemma_bound(12, 53)
        crossing_lemma_bound(12, 54)


class TestPeelingBound:
    def test_convex_k12(self):
        assert peeling_bound(12, 66) == 175
        assert count_crossings(12) >= 175

    def test_convex_k7(self):
        assert peeling_bound(7, 21) == 25
        assert count_crossings(7) == comb(7, 4) == naive_convex_crossings(7) >= 25

    def test_small_values(self):
        # 5e - 15n + 25 at the degenerate end; negative values are
        # vacuously satisfied by crossings >= 0.
        assert peeling_bound(2, 1) == 0
        assert peeling_bound(2, 0) == -5


class TestMaxKPlaneSubgraph:
    def test_known_small_values(self):
        assert max_k_plane_subgraph(5, 0).size == 7
        assert max_k_plane_subgraph(5, 1).size == 8
        assert max_k_plane_subgraph(5, 2).size == 10

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_matches_full_subset_enumeration(self, n, k):
        # Enumerates every edge subset, so this also re-proves that fixing
        # the hull edges loses nothing.
        want = naive_max_k_plane_convex(n, k, diagonals_only=False)
        assert max_k_plane_subgraph(n, k).size == want

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_matches_diagonal_enumeration(self, n, k):
        want = naive_max_k_plane_convex(n, k, diagonals_only=True)
        assert max_k_plane_subgraph(n, k).size == want

    @pytest.mark.parametrize("n", range(4, 9))
    def test_k0_attains_triangulation_bound(self, n):
        r = max_k_plane_subgraph(n, 0)
        assert r.size == 2 * n - 3 and r.proven

    @pytest.mark.parametrize("n", range(4, 9))
    @pytest.mark.parametrize("k", range(5))
    def test_never_exceeds_formula(self, n, k):
        r = max_k_plane_subgraph(n, k)
        assert r.proven
        assert r.size <= edge_bound_small_k(n, k)

    def test_witness_is_k_planar_and_deterministic(self):
        a = max_k_plane_subgraph(7, 2)
        b = max_k_plane_subgraph(7, 2)
        assert a == b
        assert verify_k_planar(7, a.edges, 2)
        assert len(a.edges) == a.size

    def test_double_counting_on_witnesses(self):
        # k-plane with e edges implies crossings <= k*e/2.
        for n in range(4, 9):
            for k in range(5):
                r = max_k_plane_subgraph(n, k)
                assert 2 * count_crossings(n, r.edges) <= k * r.size

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            max_k_plane_subgraph(2, 0)
        with pytest.raises(ValueError):
            max_k_plane_subgraph(5, -1)


class TestOnePlanarLowerBound:
    def test_examples(self):
        assert one_planar_lower_bound(5) == 2
        assert one_planar_lower_bound(9) == 3
        assert one_planar_lower_bound(100) == 34

    def test_equals_ceil_n_over_3(self):
        for n in range(5, 300):
            assert one_planar_lower_bound(n) == -(-n // 3)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            one_planar_lower_bound(4)


class TestKPlanarColorBounds:
    def test_examples(self):
        assert kplanar_color_bounds(100, 1) == (21, 34)
        assert kplanar_color_bounds(100, 3)[1] == 25
        lower, upper = kplanar_color_bounds(5, 1)
        assert lower >= 1 and upper == 2

    def test_lower_is_exact_ceiling(self):
        # lower = ceil((n-1)/sqrt(243k/10)) via pure integer arithmetic.
        for n in range(3, 60):
            for k in range(1, 12):
                lower, _ = kplanar_color_bounds(n, k)
                rhs = 10 * (n - 1) ** 2
                assert 243 * k * lower**2 >= rhs
                assert lower == 1 or 243 * k * (lower - 1) ** 2 < rhs

    def test_lower_at_most_upper(self):
        for n in range(3, 60):
            for k in range(1, 12):
                lower, upper = kplanar_color_bounds(n, k)
                assert lower <= upper, (n, k)


class TestQuasiColorBounds:
    def test_examples(self):
        assert tuple(quasi_color_bounds(20, 6, 4)) == (2, 5)
        assert tuple(quasi_color_bounds(10, 3, 3)) == (2, 4)

    def test_perfect_family_collapses(self):
        for m in range(3, 12):
            for k in range(3, m + 1):
                b = quasi_color_bounds(2 * m, m, k)
                assert b.lower == b.upper == -(-m // (k - 1))

    def test_small_m_one_color(self):
        b = quasi_color_bounds(10, 2, 3)
        assert tuple(b) == (1, 1) and b.note

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            quasi_color_bounds(5, 3, 3)  # 2m > n
        with pytest.raises(ValueError):
            quasi_color_bounds(10, 3, 2)  # k < 3


def test_bound_report_line():
    rep = BoundReport("edges(k=2)", "convex n=5", "10", "10", True)
    line = rep.line()
    assert "edges(k=2)" in line and line.rstrip().endswith("ok")
