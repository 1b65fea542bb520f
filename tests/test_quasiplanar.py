"""Crossing families, double stars, halving-line and family-guided partitions."""

import random
from math import comb

import pytest
from oracles import (
    naive_double_star_partition,
    naive_edge_depths,
    naive_halving_cover,
    naive_halving_lines,
    naive_halving_partition,
    naive_max_clique_enum,
    verify_spanning_tree,
)

from beyondplanar import _native
from beyondplanar.crossings import build_crossing_graph, crossing_masks

from beyondplanar.geometry import (
    Edge,
    PointSet,
    all_edges,
    gen_convex_polygon,
    gen_perfect_crossing_family_pointset,
    gen_random_pointset,
)
from beyondplanar.quasiplanar import (
    CrossingFamily,
    SearchBudgetError,
    check_pairwise_crossing,
    crossing_family_partition,
    double_star_partition,
    halving_line_partition,
    is_k_quasi_planar,
    max_crossing_family,
)


def naive_max_crossing_family_size(masks):
    """Exhaustive clique enumeration over the crossing graph."""
    return naive_max_clique_enum(lambda i, j: bool(masks[i] >> j & 1), len(masks))


def crossing_pairs(masks):
    return sum(m.bit_count() for m in masks) // 2


class TestBuildCrossingGraph:
    def test_triangle_has_no_crossings(self):
        edges, masks, _ = build_crossing_graph(gen_convex_polygon(3, 0))
        assert len(edges) == 3 and crossing_pairs(masks) == 0

    def test_convex_quad_has_one(self):
        _, masks, _ = build_crossing_graph(gen_convex_polygon(4, 0))
        assert crossing_pairs(masks) == 1

    @pytest.mark.parametrize("n", range(4, 10))
    def test_convex_adjacency_count_is_choose4(self, n):
        _, masks, _ = build_crossing_graph(gen_convex_polygon(n, 1))
        assert crossing_pairs(masks) == comb(n, 4)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 20, 31])
    @pytest.mark.parametrize("seed", range(3))
    def test_depths_match_the_pointwise_oracle(self, n, seed):
        ps = gen_random_pointset(n, seed)
        edges, _, depths = build_crossing_graph(ps)
        assert dict(zip(edges, depths)) == dict(zip(all_edges(n), naive_edge_depths(ps)))

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_convex_depths_are_the_shorter_arc(self, n):
        ps = gen_convex_polygon(n, 0)
        edges, _, depths = build_crossing_graph(ps)
        assert dict(zip(edges, depths)) == dict(zip(all_edges(n), naive_edge_depths(ps)))
        # Index order is the convex order, so v-u-1 points lie on one side.
        assert depths == [min(e.v - e.u - 1, n - 1 - e.v + e.u) for e in edges]

    @pytest.mark.parametrize("n", [2, 5, 13, 31])
    def test_edges_in_degree_order(self, n):
        # Most crossings first, ties in lexicographic order: the order the
        # clique kernel relabels by, so it searches these rows as given.
        ps = gen_random_pointset(n, seed=n)
        edges, masks, _ = build_crossing_graph(ps)
        lex = dict(zip(all_edges(n), crossing_masks(ps, all_edges(n))))
        assert edges == sorted(lex, key=lambda e: (-lex[e].bit_count(), e))
        assert masks == crossing_masks(ps, edges)

    def test_perfect_family_edges_are_halving(self):
        ps, family = gen_perfect_crossing_family_pointset(5, 0)
        edges, _, depths = build_crossing_graph(ps)
        depth = dict(zip(edges, depths))
        assert all(depth[Edge.of(*e)] == 4 for e in family)


class TestMaxCrossingFamily:
    def test_convex_k6_is_3(self):
        ps = gen_convex_polygon(6, 0)
        fam = max_crossing_family(ps)
        assert fam.size == 3 and fam.proven_maximum

    def test_convex_k5_is_2(self):
        ps = gen_convex_polygon(5, 0)
        fam = max_crossing_family(ps)
        assert fam.size == 2 and fam.proven_maximum

    def test_generator_instance_attains_n(self):
        ps, _ = gen_perfect_crossing_family_pointset(4, 0)
        fam = max_crossing_family(ps)
        assert fam.size == 4 and fam.proven_maximum

    @pytest.mark.parametrize("n", range(4, 9))
    def test_matches_naive_enumeration_on_convex(self, n):
        ps = gen_convex_polygon(n, 2)
        _, masks, _ = build_crossing_graph(ps)
        fam = max_crossing_family(ps)
        assert fam.size == naive_max_crossing_family_size(masks) == n // 2

    @pytest.mark.parametrize("n", [6, 9, 12, 17, 24, 31, 40, 44, 48])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_family_as_the_unfiltered_search(self, n, seed):
        # The search on the whole graph, aimed at floor(n/2), returns the
        # first maximum family in its branch order; the depth searches and
        # the replay restricted to deep edges must return that same family.
        # Its floor of m-1 only skips families smaller than the one found:
        # a proven size of m still rules out every larger family.
        ps = gen_random_pointset(n, seed)
        edges, masks, _ = build_crossing_graph(ps)
        fam = max_crossing_family(ps)
        size, members, proven, _ = _native.max_clique(masks, target=n // 2, floor_size=fam.size - 1)
        assert proven and fam.proven_maximum and size == fam.size
        assert fam.edges == tuple(sorted(edges[i] for i in members))

    @pytest.mark.parametrize("n, seed, nodes", [(40, 0, 52), (40, 1, 86), (40, 2, 178), (40, 3, 833), (48, 0, 418)])
    def test_depth_searches_keep_their_node_counts(self, n, seed, nodes):
        # Each depth search relabels its subgraph by (-degree within it,
        # lexicographic edge), whatever order the crossing graph comes in,
        # so it takes the nodes it took on a graph in lexicographic order.
        # The other nodes are the replay's.
        ps = gen_random_pointset(n, seed)
        _, masks, depths = build_crossing_graph(ps)
        fam = max_crossing_family(ps)
        deep = sum(1 << i for i, depth in enumerate(depths) if depth >= fam.size - 1)
        replay = _native.max_clique(masks, target=fam.size, floor_size=fam.size - 1, allowed=deep)[3]
        assert fam.nodes - replay == nodes

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("seed", range(4))
    def test_size_matches_brute_force(self, n, seed):
        ps = gen_random_pointset(n, seed)
        fam = max_crossing_family(ps)
        assert fam.proven_maximum and fam.size == naive_max_crossing_family_size(build_crossing_graph(ps)[1])

    def test_works_without_points_and_on_tiny_sets(self):
        for n in range(1, 4):
            ps = gen_random_pointset(n, 0)
            fam = max_crossing_family(ps)
            assert fam.size == (n >= 2) and fam.proven_maximum

    def test_budget_stop_in_the_last_search_keeps_the_size_unproven(self):
        ps = gen_random_pointset(40, seed=0)
        _, masks, depths = build_crossing_graph(ps)
        full = max_crossing_family(ps)
        deep = sum(1 << i for i, depth in enumerate(depths) if depth >= full.size - 1)
        replay = _native.max_clique(masks, target=full.size, floor_size=full.size - 1, allowed=deep)[3]
        budget = full.nodes - replay // 2  # the depth searches finish, the last one does not
        fam = max_crossing_family(ps, budget=budget)
        assert not fam.proven_maximum and fam.nodes <= budget
        assert fam.size == full.size and check_pairwise_crossing(ps, fam.edges)
        with pytest.raises(SearchBudgetError, match=f"budget {budget} after {fam.nodes} nodes"):
            crossing_family_partition(ps, 3, budget=budget)

    @pytest.mark.parametrize("budget", [1, 2, 10, 20, 40])
    def test_budget_stop_in_the_depth_searches(self, budget):
        ps = gen_random_pointset(40, seed=3)
        fam = max_crossing_family(ps, budget=budget)
        assert not fam.proven_maximum and fam.nodes <= budget
        assert check_pairwise_crossing(ps, fam.edges)
        assert fam.size <= max_crossing_family(ps).size

    def test_certificate_is_a_matching(self):
        ps = gen_random_pointset(10, 4)
        fam = max_crossing_family(ps)
        vs = [v for e in fam.edges for v in e]
        assert len(vs) == len(set(vs))
        assert check_pairwise_crossing(ps, fam.edges)


class TestIsKQuasiPlanar:
    def test_convex_k6_has_3_pairwise_crossing(self):
        ps = gen_convex_polygon(6, 0)
        res = is_k_quasi_planar(ps, [all_edges(6)], 3)
        assert not res
        assert len(res.witness) == 3
        assert check_pairwise_crossing(ps, res.witness)

    def test_convex_k6_has_no_4_pairwise_crossing(self):
        ps = gen_convex_polygon(6, 0)
        assert is_k_quasi_planar(ps, [all_edges(6)], 4).ok

    def test_star_is_2_quasi_planar(self):
        ps = gen_random_pointset(8, 1)
        star = [Edge(0, v) for v in range(1, 8)]
        assert is_k_quasi_planar(ps, [star], 2).ok

    def test_rejects_k_below_2(self):
        ps = gen_convex_polygon(4, 0)
        with pytest.raises(ValueError):
            is_k_quasi_planar(ps, [all_edges(4)], 1)

    def test_budget_error_says_what_was_spent(self):
        ps = gen_random_pointset(20, seed=1)
        with pytest.raises(SearchBudgetError, match="exceeded budget 3 after 3 nodes;.* fewer than 3 edges"):
            is_k_quasi_planar(ps, [all_edges(20)], 3, budget=3)


class TestDoubleStarPartition:
    def test_four_points_matches_construction_rule(self):
        # On 4 lex-ranked points r0..r3 the two trees must be
        # {r0r1, r0r2, r1r3} and {r1r2, r0r3, r2r3}.
        ps = PointSet([(0, 0), (10, 1), (3, 7), (9, 9)])
        trees = double_star_partition(ps).classes()
        r = sorted(range(4), key=lambda i: (ps[i].x, ps[i].y))
        t1 = {Edge.of(r[0], r[1]), Edge.of(r[0], r[2]), Edge.of(r[1], r[3])}
        t2 = {Edge.of(r[1], r[2]), Edge.of(r[0], r[3]), Edge.of(r[2], r[3])}
        assert set(trees[0]) == t1
        assert set(trees[1]) == t2

    def test_two_points(self):
        ps = PointSet([(0, 0), (5, 3)])
        assert double_star_partition(ps).classes() == {0: [Edge(0, 1)]}

    def test_rejects_odd_size(self):
        with pytest.raises(ValueError, match="double-star partition requires an even point count, got 7"):
            double_star_partition(gen_random_pointset(7, 0))

    @pytest.mark.parametrize("n2", [4, 6, 10, 16, 20])
    def test_trees_are_spanning_disjoint_3quasiplanar(self, n2):
        ps = gen_random_pointset(n2, seed=n2)
        trees = double_star_partition(ps).classes()
        assert len(trees) == n2 // 2
        seen = set()
        for tree in trees.values():
            assert len(tree) == n2 - 1
            assert verify_spanning_tree(ps, tree)
            assert is_k_quasi_planar(ps, [tree], 3).ok
            assert not (seen & set(tree))
            seen.update(tree)
        assert len(seen) == n2 * (n2 - 1) // 2

    def test_every_tree_is_a_double_star(self):
        # All edges touch one of two adjacent centers.
        ps = gen_random_pointset(12, 77)
        order = sorted(range(12), key=lambda i: (ps[i].x, ps[i].y))
        for i, tree in double_star_partition(ps).classes().items():
            a, b = order[2 * i], order[2 * i + 1]
            assert Edge.of(a, b) in tree
            assert all(a in e or b in e for e in tree)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_tree_by_tree_oracle(self, seed):
        for n2 in range(2, 61, 2):
            ps = gen_random_pointset(n2, seed)
            assert double_star_partition(ps) == naive_double_star_partition(ps), n2

    @pytest.mark.parametrize("n2", [4, 10, 24])
    def test_shuffled_convex_set_matches_oracle(self, n2):
        # Convex position with the index order scrambled, so ranks and
        # indices disagree.
        pts = list(gen_convex_polygon(n2, n2))
        random.Random(n2).shuffle(pts)
        ps = PointSet(pts)
        assert double_star_partition(ps) == naive_double_star_partition(ps)


class TestHalvingLines:
    # Properties of the oracle's halving lines; the partition tests below
    # compare halving_line_partition with the partition built on them.
    def test_single_line(self):
        ps, fam = gen_perfect_crossing_family_pointset(1, 0)
        ((edge, (dx, dy), left),) = naive_halving_lines(ps, fam)
        # The forward endpoint, the larger projection on the direction, is left.
        fwd = max(edge, key=lambda v: ps[v].x * dx + ps[v].y * dy)
        assert left == {fwd}

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_sides_halve_the_points(self, n):
        ps, fam = gen_perfect_crossing_family_pointset(n, 1)
        for edge, _, left in naive_halving_lines(ps, fam):
            assert len(left) == n and left <= set(range(2 * n))
            assert len(left & set(edge)) == 1

    def test_lines_sorted_by_angle(self):
        ps, fam = gen_perfect_crossing_family_pointset(6, 2)
        dirs = [direction for _, direction, _ in naive_halving_lines(ps, fam)]
        for (ax, ay), (bx, by) in zip(dirs, dirs[1:]):
            assert ax * by - ay * bx > 0  # strictly increasing angle

    def test_directions_point_into_upper_half_plane(self):
        ps, fam = gen_perfect_crossing_family_pointset(5, 3)
        for edge, (dx, dy), left in naive_halving_lines(ps, fam):
            assert dy > 0 or (dy == 0 and dx > 0)
            # The forward endpoint, which counts as left, has the larger (y, x).
            (fwd,) = left & set(edge)
            assert fwd == max(edge, key=lambda v: (ps[v].y, ps[v].x))

    @pytest.mark.parametrize("seed", range(3))
    def test_partial_family_halves_its_own_endpoints(self, seed):
        ps = gen_random_pointset(14, seed)
        fam = max_crossing_family(ps).edges
        for part in (fam[:1], fam[:3], fam[1:]):
            ends = {v for e in part for v in e}
            for edge, _, left in naive_halving_lines(ps, part):
                assert len(left) == len(part) and left <= ends
                assert len(left & set(edge)) == 1


class TestHalvingLinePartition:
    def test_n5_k3_gives_3_colors(self):
        ps, fam = gen_perfect_crossing_family_pointset(5, 0)
        assert halving_line_partition(ps, fam, 3).num_colors == 3

    def test_n3_k4_single_color(self):
        ps, fam = gen_perfect_crossing_family_pointset(3, 0)
        col = halving_line_partition(ps, fam, 4)
        assert col.num_colors == 1
        assert is_k_quasi_planar(ps, [col.classes()[0]], 4).ok

    def test_n6_k4_two_verified_colors(self):
        ps, fam = gen_perfect_crossing_family_pointset(6, 0)
        col = halving_line_partition(ps, fam, 4)
        assert col.num_colors == 2
        for edges in col.classes().values():
            assert is_k_quasi_planar(ps, [edges], 4).ok
        assert col.n == ps.n

    def test_rejects_k_below_3(self):
        ps, fam = gen_perfect_crossing_family_pointset(3, 0)
        with pytest.raises(ValueError):
            halving_line_partition(ps, fam, 2)

    def test_rejects_one_point_after_k(self):
        ps = PointSet([(0, 0)])
        with pytest.raises(ValueError, match="k >= 3 required, got 2"):
            halving_line_partition(ps, [], 2)
        with pytest.raises(ValueError, match="n >= 2 required, got 1"):
            halving_line_partition(ps, [], 3)
        with pytest.raises(ValueError, match="n >= 2 required, got 1"):
            crossing_family_partition(ps, 3)

    def test_rejects_non_crossing_family(self):
        ps = gen_convex_polygon(4, 0)
        with pytest.raises(ValueError, match="family edges do not pairwise cross"):
            halving_line_partition(ps, [Edge(0, 1), Edge(2, 3)], 3)

    def test_rejects_repeated_edge(self):
        ps, fam = gen_perfect_crossing_family_pointset(4, 0)
        with pytest.raises(ValueError, match="family edges do not pairwise cross"):
            halving_line_partition(ps, [*fam, fam[0]], 3)
        with pytest.raises(ValueError, match="family edges do not pairwise cross"):
            halving_line_partition(ps, [fam[1], Edge(fam[1].v, fam[1].u)], 3)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_first_covering_group_oracle(self, n):
        # Every edge has exactly one covering group, so trying the larger
        # endpoint group first would give the same partition.
        for seed in range(4):
            ps, fam = gen_perfect_crossing_family_pointset(n, seed)
            for k in range(3, n + 3):
                cover = naive_halving_cover(ps, fam, k)
                assert all(len(covering) == 1 for covering in cover.values()), (seed, k)
                assert halving_line_partition(ps, fam, k) == naive_halving_partition(ps, fam, k), (seed, k)

    @pytest.mark.parametrize("n", range(4, 15))
    def test_partial_families_match_star_group_oracle(self, n):
        # Every prefix and suffix of a maximum family of a random set: the
        # formula's color count, the first covering group of the oracle,
        # and classes with no k pairwise crossing edges.
        for seed in range(2):
            ps = gen_random_pointset(n, seed)
            fam = max_crossing_family(ps).edges
            m0 = len(fam)
            for part in {fam[:j] for j in range(m0 + 1)} | {fam[j:] for j in range(m0)}:
                m = len(part)
                for k in range(3, max(m, 2) + 2):
                    col = halving_line_partition(ps, part, k)
                    assert col.num_colors == -(-m // (k - 1)) + -(-(n - 2 * m) // (k - 1)), (seed, part, k)
                    assert col == naive_halving_partition(ps, part, k), (seed, part, k)
                    # With no family edge, a last star group of one point
                    # sends every edge to an earlier group.
                    assert len(col.classes()) == col.num_colors or m == 0 == (n - 1) % (k - 1)
                    for edges in col.classes().values():
                        assert is_k_quasi_planar(ps, [edges], k).ok, (seed, part, k)

    def test_fewer_colors_on_family_edges_force_k_crossing(self):
        # Pigeonhole floor: crammed into fewer classes, some class holds at
        # least k of the n pairwise crossing family edges.
        n, k = 7, 3
        ps, fam = gen_perfect_crossing_family_pointset(n, 5)
        needed = -(-n // (k - 1))
        for fewer in range(1, needed):
            classes = [[] for _ in range(fewer)]
            for i, e in enumerate(fam):
                classes[i % fewer].append(e)
            assert any(not is_k_quasi_planar(ps, [c], k).ok for c in classes if c)


class TestCrossingFamilyPartition:
    def test_small_m_single_color(self):
        ps = gen_convex_polygon(5, 0)  # m = 2
        col, family = crossing_family_partition(ps, 3)
        assert family.size == 2 and col.num_colors == 1

    def test_convex_k12_k3(self):
        ps = gen_convex_polygon(12, 0)  # m = 6
        col, family = crossing_family_partition(ps, 3)
        assert family.size == 6
        lower = -(-family.size // 2)
        upper = lower + -(-(12 - 2 * family.size) // 2)
        assert lower <= col.num_colors <= upper
        for edges in col.classes().values():
            assert is_k_quasi_planar(ps, [edges], 3).ok
        assert col.n == ps.n

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [3, 4])
    def test_random_instances_meet_color_formula(self, seed, k):
        npts = 8 + 2 * (seed % 3)
        ps = gen_random_pointset(npts, seed=31 + seed)
        col, family = crossing_family_partition(ps, k)
        m = family.size
        if m < k:
            assert col.num_colors == 1
        else:
            lower = -(-m // (k - 1))
            upper = lower + -(-(npts - 2 * m) // (k - 1))
            assert lower <= col.num_colors <= upper
        for edges in col.classes().values():
            assert is_k_quasi_planar(ps, [edges], k).ok
        assert col.n == ps.n
        assert len(col.classes()) == col.num_colors

    def test_budget_error_says_what_was_spent(self):
        ps = gen_random_pointset(20, seed=1)
        family = max_crossing_family(ps, budget=3)
        assert not family.proven_maximum and family.nodes == 3 and family.size == 2
        with pytest.raises(SearchBudgetError, match=r"budget 3 after 3 nodes \(largest found: 2 edges\)"):
            crossing_family_partition(ps, 3, budget=3)

    def test_leftover_classes_are_star_unions(self):
        ps = gen_random_pointset(11, 9)
        col, family = crossing_family_partition(ps, 3)
        if family.size >= 3:
            c1 = -(-family.size // 2)
            ends = {v for e in family.edges for v in e}
            rest = [i for i in range(ps.n) if i not in ends]
            groups = [rest[a : a + 2] for a in range(0, len(rest), 2)]
            for g, grp in enumerate(groups):
                for e in col.classes()[c1 + g]:
                    assert e.u in grp or e.v in grp


class TestVerifiers:
    def test_spanning_tree_path(self):
        ps = PointSet([(0, 0), (5, 1), (9, 7)])
        assert verify_spanning_tree(ps, [Edge(0, 1), Edge(1, 2)])

    def test_spanning_tree_rejects_disconnected(self):
        ps = PointSet([(0, 0), (5, 1), (9, 7), (2, 9)])
        assert not verify_spanning_tree(ps, [Edge(0, 1), Edge(2, 3)])

    def test_spanning_tree_rejects_cycle_with_right_count(self):
        ps = PointSet([(0, 0), (5, 1), (9, 7), (2, 9)])
        assert not verify_spanning_tree(ps, [Edge(0, 1), Edge(1, 2), Edge(0, 2)])

    def test_spanning_tree_rejects_wrong_count(self):
        ps = PointSet([(0, 0), (5, 1), (9, 7)])
        assert not verify_spanning_tree(ps, [Edge(0, 1)])


def test_crossing_family_dataclass():
    fam = CrossingFamily((Edge(0, 2), Edge(1, 3)))
    assert fam.size == 2
    assert not fam.proven_maximum
