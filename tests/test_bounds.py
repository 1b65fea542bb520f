"""Closed-form bounds, crossing counts, and the extremal subgraph oracle."""

from fractions import Fraction
from math import comb

import pytest
from oracles import naive_color_lower, naive_convex_crossings, naive_max_k_plane_convex

from beyondplanar import _native
from beyondplanar.bounds import (
    _diagonals,
    _skip,
    count_crossings,
    crossing_lemma_bound,
    kplanar_color_bounds,
    kplanar_edge_bound,
    max_k_plane_subgraph,
    one_planar_lower_bound,
    peeling_bound,
    quasi_color_bounds,
)
from beyondplanar.convex import verify_k_planar
from beyondplanar.crossings import crossing_masks
from beyondplanar.geometry import Edge, all_edges, gen_convex_polygon


class TestEdgeBoundSmallK:
    def test_examples(self):
        assert kplanar_edge_bound(5, 0) == 7
        assert kplanar_edge_bound(5, 1) == Fraction(17, 2)
        assert kplanar_edge_bound(5, 2) == 10

    def test_k0_is_outerplanar_bound(self):
        for n in range(3, 30):
            assert kplanar_edge_bound(n, 0) == 2 * n - 3

    def test_strictly_increasing_in_k(self):
        for n in range(3, 20):
            vals = [kplanar_edge_bound(n, k) for k in range(5)]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_out_of_range(self):
        # n >= 2 in both regimes; k = 5 is the general bound's first k, not an error.
        for k in (0, 4, 5, 8):
            with pytest.raises(ValueError, match=r"^n >= 2 required, got 1$"):
                kplanar_edge_bound(1, k)
        assert type(kplanar_edge_bound(5, 4)) is Fraction
        assert type(kplanar_edge_bound(5, 5)) is float


class TestEdgeBoundGeneral:
    def test_examples(self):
        assert kplanar_edge_bound(100, 5) == pytest.approx(551.13, abs=0.01)
        assert kplanar_edge_bound(2, 5) == pytest.approx(11.0227, abs=0.0001)
        assert kplanar_edge_bound(100, 8) == pytest.approx(697.14, abs=0.01)

    def test_rejects_small_k(self):
        # Below k = 5 the bound is the exact small-k formula; only a negative k is refused.
        assert kplanar_edge_bound(10, 4) == 33
        for n in (2, 10):
            with pytest.raises(ValueError, match=r"^k >= 0 required, got -1$"):
                kplanar_edge_bound(n, -1)


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


# Max k-plane edge counts of convex K_n for k = 0..5, as proven by an
# independent search: one case per smallest diagonal skip s, with the
# diagonal 0-s forced in and every shorter skip left out.
PROVEN_SIZES = {
    4: (5, 6, 6, 6, 6, 6),
    5: (7, 8, 10, 10, 10, 10),
    6: (9, 11, 12, 14, 15, 15),
    7: (11, 13, 15, 16, 18, 19),
    8: (13, 16, 19, 19, 21, 22),
    9: (15, 18, 21, 23, 24, 26),
    10: (17, 21, 24, 27, 29, 29),
}


# Sizes for k = 0..6 that the compiled subset kernel proves at the default
# budget. (12, 6) takes 2,314,176 nodes, so a budget of 2*10^6 leaves it
# unproven at 39 edges.
COMPILED_PROVEN_SIZES = {
    11: (19, 23, 28, 29, 32, 33, 35),
    12: (21, 26, 30, 32, 35, 38, 41),
}


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
        assert r.size <= kplanar_edge_bound(n, k)

    def test_witness_is_k_planar_and_deterministic(self):
        a = max_k_plane_subgraph(7, 2)
        b = max_k_plane_subgraph(7, 2)
        assert a == b
        assert verify_k_planar(7, [a.edges], 2)
        assert len(a.edges) == a.size

    def test_double_counting_on_witnesses(self):
        # k-plane with e edges implies crossings <= k*e/2.
        for n in range(4, 9):
            for k in range(5):
                r = max_k_plane_subgraph(n, k)
                assert 2 * count_crossings(n, r.edges) <= k * r.size

    def test_closed_form_cap_ends_the_search(self):
        # The search meets the closed-form cap of 26 and 28 edges early, and
        # reaching the cap proves the optimum.
        r = max_k_plane_subgraph(12, 1)
        assert r.proven and r.size == 26 == kplanar_edge_bound(12, 1)
        assert r.nodes <= 55
        r = max_k_plane_subgraph(11, 2)
        assert r.proven and r.size == 28 == kplanar_edge_bound(11, 2) and r.nodes <= 45

    def test_most_crossed_first_proves_with_few_nodes(self):
        # Most-crossed diagonals first, the spare-capacity bound and the skip
        # orbits: (9, 4) and (10, 2) took 336,205 and 118,165 nodes in
        # ascending skip order with the free-index bound alone, and 6,324
        # and 10,599 without the orbits.
        r = max_k_plane_subgraph(9, 4)
        assert r.proven and r.size == 24 and r.nodes <= 2_690
        r = max_k_plane_subgraph(10, 2)
        assert r.proven and r.size == 24 and r.nodes <= 2_830
        r = max_k_plane_subgraph(11, 3)
        assert r.proven and r.size == 29 and r.nodes <= 36_999
        r = max_k_plane_subgraph(12, 2)
        assert r.proven and r.size == 30 and r.nodes <= 60_465

    @pytest.mark.parametrize("n, sizes", sorted(PROVEN_SIZES.items()))
    def test_pinned_sizes_are_proven(self, n, sizes):
        for k, size in enumerate(sizes):
            r = max_k_plane_subgraph(n, k)
            assert (r.size, r.proven) == (size, True), k

    @pytest.mark.parametrize("n, sizes", sorted(COMPILED_PROVEN_SIZES.items()))
    def test_compiled_kernel_proves_n11_and_n12(self, n, sizes, compiled_kernels, monkeypatch):
        monkeypatch.setattr(_native, "max_conflict_bounded_set", compiled_kernels.max_conflict_bounded_set)
        for k, size in enumerate(sizes):
            r = max_k_plane_subgraph(n, k)
            assert (r.size, r.proven) == (size, True), k

    @pytest.mark.parametrize("k, size", [(3, 27), (4, 29)])
    def test_n10_sizes(self, k, size):
        # Sizes proven by the ascending-skip search of the compiled kernel.
        r = max_k_plane_subgraph(10, k)
        assert r.proven and r.size == size
        assert verify_k_planar(10, [r.edges], k) and len(set(r.edges)) == size

    @pytest.mark.parametrize("n, k", [(10, 2), (12, 1)])
    def test_search_stays_within_the_budget(self, n, k):
        full = max_k_plane_subgraph(n, k)
        for budget in [0, 1, 2, 3, 5, 10, 50, 100, 500, 1000, full.nodes, full.nodes + 1]:
            r = max_k_plane_subgraph(n, k, budget=budget)
            assert r.nodes <= budget, budget
            assert r.proven == (budget > full.nodes), budget
            assert verify_k_planar(n, [r.edges], k) and r.size <= full.size

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            max_k_plane_subgraph(2, 0)
        with pytest.raises(ValueError):
            max_k_plane_subgraph(5, -1)


def dihedral_images(n):
    """The generators of the dihedral group on convex K_n: rotation v -> v+1 and reflection v -> -v, mod n."""
    return {"rotation": lambda v: (v + 1) % n, "reflection": lambda v: -v % n}


class TestSkipOrbits:
    """The symmetry that lets the oracle's search bar each skip's run on its empty-set spine."""

    @staticmethod
    def skip_runs(n):
        diagonals = _diagonals(n)
        runs = [[e for e in diagonals if _skip(n, e) == s] for s in range(n // 2, 1, -1)]
        assert sum(runs, []) == diagonals  # one consecutive run per skip, longest first
        return runs

    @pytest.mark.parametrize("n", range(4, 31))
    def test_rotation_and_reflection_map_each_skip_run_onto_itself(self, n):
        runs = self.skip_runs(n)
        for name, g in dihedral_images(n).items():
            for run in runs:
                assert {Edge.of(g(e.u), g(e.v)) for e in run} == set(run), (name, _skip(n, run[0]))

    @pytest.mark.parametrize("n", range(4, 31))
    def test_rotation_and_reflection_map_crossings_onto_crossings(self, n):
        diagonals = _diagonals(n)
        masks = crossing_masks(n, diagonals)
        index = {e: i for i, e in enumerate(diagonals)}
        for name, g in dihedral_images(n).items():
            image = [index[Edge.of(g(e.u), g(e.v))] for e in diagonals]
            for i, mask in enumerate(masks):
                mapped = sum(1 << image[j] for j in range(len(diagonals)) if mask >> j & 1)
                assert masks[image[i]] == mapped, (name, diagonals[i])

    @pytest.mark.parametrize("n", range(3, 13))
    def test_the_search_gets_the_skip_runs(self, n, monkeypatch):
        seen = []
        search = _native.max_conflict_bounded_set

        def spy(conflicts, k, **kwargs):
            seen.append(kwargs["orbits"])
            return search(conflicts, k, **kwargs)

        monkeypatch.setattr(_native, "max_conflict_bounded_set", spy)
        max_k_plane_subgraph(n, 1)
        assert seen == [[len(run) for run in self.skip_runs(n)]]


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

    def test_closed_form_matches_the_stepping_loop(self):
        for n in range(3, 400):
            for k in range(1, 60):
                assert kplanar_color_bounds(n, k)[0] == naive_color_lower(n, k), (n, k)

    def test_lower_at_most_upper(self):
        for n in range(3, 60):
            for k in range(1, 12):
                lower, upper = kplanar_color_bounds(n, k)
                assert lower <= upper, (n, k)


class TestQuasiColorBounds:
    def test_examples(self):
        assert quasi_color_bounds(20, 6, 4) == (2, 5)
        assert quasi_color_bounds(10, 3, 3) == (2, 4)

    def test_perfect_family_collapses(self):
        for m in range(3, 12):
            for k in range(3, m + 1):
                lower, upper = quasi_color_bounds(2 * m, m, k)
                assert lower == upper == -(-m // (k - 1))

    def test_small_m_one_color(self):
        assert quasi_color_bounds(10, 2, 3) == (1, 1)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            quasi_color_bounds(5, 3, 3)  # 2m > n
        with pytest.raises(ValueError):
            quasi_color_bounds(10, 3, 2)  # k < 3
