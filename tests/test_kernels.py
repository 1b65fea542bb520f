"""Search kernels against exhaustive subset-enumeration oracles."""

import random
from math import gcd

import pytest
from oracles import naive_max_clique_mask as naive_max_clique
from oracles import naive_first_conflict_bounded, naive_max_conflict_bounded

from beyondplanar import _kernels_py, _native
from beyondplanar.bounds import _diagonals, _skip
from beyondplanar.crossings import build_crossing_graph, class_crossing_masks, crossing_masks
from beyondplanar.geometry import all_edges, gen_random_pointset
from beyondplanar.quasiplanar import (
    QuasiPlanarResult,
    crossing_family_partition,
    double_star_partition,
    is_k_quasi_planar,
    max_crossing_family,
)


def random_graph(v, p, seed):
    rng = random.Random(seed)
    adj = [0] * v
    for i in range(v):
        for j in range(i + 1, v):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def block_circulant(blocks, p, seed):
    """Random conflicts on consecutive blocks of the given lengths, kept by rotating every block at once.

    Index x of block a conflicts with index y of block b iff (y - x) mod
    gcd(|a|, |b|) lies in a random set S(a, b), with S(b, a) = -S(a, b)
    and 0 never in S(a, a). So x -> x + 1 mod |a| in every block a maps
    conflicts to conflicts, and each block is one orbit of the rotations.
    """
    rng = random.Random(seed)
    starts = [sum(blocks[:a]) for a in range(len(blocks))]
    conflicts = [0] * sum(blocks)
    for a, la in enumerate(blocks):
        for b in range(a, len(blocks)):
            g = gcd(la, blocks[b])
            shifts = {t for t in range(g) if rng.random() < p and (a != b or t != 0)}
            if a == b:
                shifts &= {-t % g for t in shifts}
            for x in range(la):
                for y in range(blocks[b]):
                    if (y - x) % g in shifts:
                        conflicts[starts[a] + x] |= 1 << starts[b] + y
                        conflicts[starts[b] + y] |= 1 << starts[a] + x
    return conflicts


def random_blocks(rng, most):
    """Block lengths 1..5 summing to at most `most`."""
    blocks = []
    while True:
        length = rng.randint(1, 5)
        if sum(blocks) + length > most:
            return blocks
        blocks.append(length)


@pytest.fixture(params=["python", "compiled"])
def kernel(request):
    return _kernels_py if request.param == "python" else request.getfixturevalue("compiled_kernels")


class TestMaxClique:
    def test_empty_graph(self, kernel):
        size, members, proven, _ = kernel.max_clique([])
        assert (size, members, proven) == (0, [], True)

    def test_single_vertex(self, kernel):
        size, members, proven, _ = kernel.max_clique([0])
        assert (size, members, proven) == (1, [0], True)

    def test_triangle_plus_isolated_vertex(self, kernel):
        # vertices 0,1,2 mutually adjacent; 3 isolated
        adj = [0b0110, 0b0101, 0b0011, 0b0000]
        size, members, proven, _ = kernel.max_clique(adj)
        assert size == 3 and sorted(members) == [0, 1, 2] and proven

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_naive_on_random_graphs(self, kernel, seed):
        v = 6 + seed % 9  # 6..14 vertices
        adj = random_graph(v, 0.2 + 0.06 * seed, seed)
        want, _ = naive_max_clique(adj)
        size, members, proven, _ = kernel.max_clique(adj)
        assert proven and size == want
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                assert adj[members[a]] >> members[b] & 1

    @pytest.mark.parametrize("seed", [2, 40])
    def test_rows_in_degree_order_search_the_same_tree(self, kernel, seed):
        # The family search hands the kernel crossing rows rebuilt in its
        # degree order; the kernel must then search exactly what it
        # searched on the lexicographic rows.
        n = 40
        points, edges = gen_random_pointset(n, seed=seed), all_edges(n)
        lex = crossing_masks(points, edges)
        order = sorted(range(len(lex)), key=lambda i: (-lex[i].bit_count(), i))
        rows = crossing_masks(points, [edges[i] for i in order])
        size, members, proven, nodes = kernel.max_clique(lex)
        got_size, got_members, got_proven, got_nodes = kernel.max_clique(rows)
        assert (got_size, got_proven, got_nodes) == (size, proven, nodes)
        assert sorted(edges[order[j]] for j in got_members) == [edges[i] for i in members]
        # Unsorted rows, which a search that ends at its root never
        # relabels, against the search of the relabelled rows.
        rng = random.Random(f"degree-order:{seed}")
        for v in range(21):
            adj = random_graph(v, rng.random(), rng.randrange(10**6))
            order, rows = reference_relabel(adj)
            for floor in range(-1, 5):
                for target in (None, floor + 1):
                    for budget in (1, 2, 10**8):
                        size, members, proven, nodes = kernel.max_clique(rows, budget, target, floor)
                        want = size, sorted(order[j] for j in members), proven, nodes
                        assert kernel.max_clique(adj, budget, target, floor) == want, (v, floor, target, budget)

    @pytest.mark.parametrize("v", [63, 64, 65, 100, 140])
    def test_implementations_agree_beyond_64_vertices(self, compiled_kernels, v):
        # Masks wider than one machine word exercise the compiled kernel's
        # multi-word bitsets; it must match the pure kernel exactly.
        adj = random_graph(v, 0.25, v)
        result = compiled_kernels.max_clique(adj)
        assert result == _kernels_py.max_clique(adj)
        size, members, proven, _ = result
        assert proven and len(members) == size
        for a in range(size):
            for b in range(a + 1, size):
                assert adj[members[a]] >> members[b] & 1

    def test_complete_graph_deeper_than_the_recursion_limit(self, kernel):
        n = 1100
        size, members, proven, _ = kernel.max_clique([((1 << n) - 1) ^ (1 << v) for v in range(n)])
        assert (size, members, proven) == (n, list(range(n)), True)

    def test_floor_size_hides_small_cliques(self, kernel):
        adj = random_graph(10, 0.3, 42)
        want, _ = naive_max_clique(adj)
        size, members, proven, _ = kernel.max_clique(adj, floor_size=want)
        assert proven and size == want and members == []
        size, members, proven, _ = kernel.max_clique(adj, floor_size=want - 1)
        assert proven and size == want and len(members) == want

    @pytest.mark.parametrize("seed", range(6))
    def test_floor_at_or_above_the_optimum_finds_nothing(self, kernel, seed):
        adj = random_graph(12, 0.5, 200 + seed)
        want, _ = naive_max_clique(adj)
        for floor in (want, want + 2):
            assert kernel.max_clique(adj, floor_size=floor)[:3] == (floor, [], True)

    @pytest.mark.parametrize("seed", range(6))
    def test_floor_below_the_optimum_keeps_the_answer(self, kernel, seed):
        # Every subtree holding a clique above the floor is still searched,
        # in the same order, so the same first maximum clique comes back.
        adj = random_graph(12, 0.5, 200 + seed)
        size, members, proven, nodes = kernel.max_clique(adj)
        assert proven and size == naive_max_clique(adj)[0]
        for floor in range(size):
            got = kernel.max_clique(adj, floor_size=floor)
            assert got[:3] == (size, members, True) and got[3] <= nodes

    def test_target_stops_early(self, kernel):
        adj = random_graph(14, 0.8, 7)
        size, members, proven, _ = kernel.max_clique(adj, target=3)
        assert proven and size >= 3 and len(members) == size

    def test_budget_truncation_is_flagged(self, kernel):
        adj = random_graph(16, 0.7, 3)
        size, _, proven, nodes = kernel.max_clique(adj, budget=5)
        assert not proven and nodes <= 5

    def test_budget_stop_reports_the_clique_on_its_path(self, kernel):
        # The third node already holds two vertices of the triangle.
        assert kernel.max_clique([0b110, 0b101, 0b011], budget=3) == (2, [1, 2], False, 3)
        adj = crossing_masks(gen_random_pointset(20, seed=1), all_edges(20))
        size, members, proven, nodes = kernel.max_clique(adj, budget=3)
        assert (size, proven, nodes) == (2, False, 3)
        assert adj[members[0]] >> members[1] & 1
        # The path's clique is not reported when it does not beat the floor.
        assert kernel.max_clique(adj, budget=3, floor_size=2) == (2, [], False, 3)

    def test_rejects_self_adjacency(self, kernel):
        with pytest.raises(ValueError):
            kernel.max_clique([1])

    def test_rejects_out_of_range_bits(self, kernel):
        with pytest.raises(ValueError):
            kernel.max_clique([2, 1 | 4])


class TestExistenceAtTheRoot:
    """The class searches of `verify quasiplanar`: one existence test for k = 3 pairwise crossing edges."""

    @staticmethod
    def class_rows(n):
        points = gen_random_pointset(n, seed=0)
        colorings = double_star_partition(points), crossing_family_partition(points, 3)[0]
        return [rows for coloring in colorings for rows in class_crossing_masks(points, list(coloring.classes().values()))]

    @pytest.mark.parametrize("n", [24, 32, 40])
    def test_quasi_planar_classes_close_at_the_root_unrelabelled(self, kernel, monkeypatch, n):
        # Every class colors in two classes at the root, so its search ends
        # there; on rows not in degree order it ends before any relabelling.
        def no_relabel(masks, keep):
            raise AssertionError("a search that ends at its root relabelled its graph")

        classes = self.class_rows(n)
        monkeypatch.setattr(_kernels_py, "induced", no_relabel)
        for rows in classes:
            assert kernel.max_clique(rows, target=3, floor_size=2) == (2, [], True, 1)

    @pytest.mark.parametrize(
        "n, witness",
        [(24, ((3, 16), (5, 17), (13, 20))), (40, ((9, 38), (23, 29), (30, 32)))],
    )
    def test_a_class_with_k_crossing_edges_keeps_its_witness(self, kernel, monkeypatch, n, witness):
        # The family partition for k = 4 holds three pairwise crossing
        # edges in its first class; the witness is pinned from the search
        # that relabelled every class.
        points = gen_random_pointset(n, seed=0)
        classes = crossing_family_partition(points, 4)[0].classes().values()
        monkeypatch.setattr(_native, "max_clique", kernel.max_clique)
        assert is_k_quasi_planar(points, classes, 3) == QuasiPlanarResult(False, witness, 0)


def is_clique(adj, members):
    return all(adj[a] >> b & 1 for i, a in enumerate(members) for b in members[i + 1 :])


def maximum_clique_union(adj):
    """(size, union of the vertex sets of all maximum cliques), by scanning every subset."""
    best, union = 0, 0
    for mask in range(1 << len(adj)):
        members = [v for v in range(len(adj)) if mask >> v & 1]
        if len(members) >= best and is_clique(adj, members):
            best, union = len(members), (union if len(members) == best else 0) | mask
    return best, union


class TestMaxCliqueAllowed:
    """`allowed` restricts the vertices a clique may use; the rest are still colored."""

    @pytest.mark.parametrize("seed", range(12))
    def test_size_is_the_naive_maximum_inside_allowed(self, kernel, seed):
        rng = random.Random(f"allowed:{seed}")
        v = 6 + seed % 9
        adj = random_graph(v, 0.3 + 0.05 * seed, seed)
        allowed = rng.getrandbits(v) if seed else 0
        keep = [u for u in range(v) if allowed >> u & 1]
        want, _ = naive_max_clique(reference_induced(adj, keep))
        size, members, proven, _ = kernel.max_clique(adj, allowed=allowed)
        assert proven and size == want == len(members)
        assert set(members) <= set(keep) and is_clique(adj, members)

    @pytest.mark.parametrize("seed", range(12))
    def test_same_clique_when_every_large_clique_is_allowed(self, kernel, seed):
        # The family search's replay: aimed at the maximum m with floor
        # m-1, on vertices that hold every clique of m.
        rng = random.Random(f"allowed-superset:{seed}")
        adj = random_graph(8 + seed % 7, 0.4 + 0.04 * seed, seed)
        m, union = maximum_clique_union(adj)
        for allowed in (union, union | rng.getrandbits(len(adj))):
            for target in (m, None):
                full = kernel.max_clique(adj, target=target, floor_size=m - 1)
                got = kernel.max_clique(adj, target=target, floor_size=m - 1, allowed=allowed)
                assert got[:3] == full[:3] and got[3] <= full[3]

    @pytest.mark.parametrize("n, seed", [(24, 0), (32, 1), (40, 2)])
    def test_same_clique_on_deep_crossing_edges(self, kernel, n, seed):
        points = gen_random_pointset(n, seed=seed)
        _, masks, depths = build_crossing_graph(points)
        m = max_crossing_family(points).size
        deep = sum(1 << i for i, depth in enumerate(depths) if depth >= m - 1)
        full = kernel.max_clique(masks, target=m, floor_size=m - 1)
        got = kernel.max_clique(masks, target=m, floor_size=m - 1, allowed=deep)
        assert got[:3] == full[:3] and got[3] < full[3]

    @pytest.mark.parametrize("v", [20, 63, 64, 65, 100, 140])
    def test_implementations_agree(self, compiled_kernels, v):
        rng = random.Random(f"allowed-parity:{v}")
        adj = random_graph(v, 0.5, v)
        allowed = rng.getrandbits(v) | rng.getrandbits(v)  # about three quarters of the vertices
        result = _kernels_py.max_clique(adj, allowed=allowed)
        assert compiled_kernels.max_clique(adj, allowed=allowed) == result
        assert result[2] and set(result[1]) <= {u for u in range(v) if allowed >> u & 1}
        for budget in (2, result[3] // 3, result[3] // 2):
            stopped = _kernels_py.max_clique(adj, budget=budget, allowed=allowed)
            assert compiled_kernels.max_clique(adj, budget=budget, allowed=allowed) == stopped
            size, members, proven, nodes = stopped
            # Under a budget stop the path's clique counts as found: it
            # holds only allowed vertices.
            assert not proven and nodes == budget and size == len(members) >= 1
            assert all(allowed >> u & 1 for u in members) and is_clique(adj, members)


def reference_induced(adj, keep):
    """The subgraph on `keep` with keep[j] relabelled j, one bit at a time."""
    pos = {v: i for i, v in enumerate(keep)}
    return [sum(1 << pos[w] for w in range(len(adj)) if adj[v] >> w & 1 and w in pos) for v in keep]


def reference_relabel(adj):
    """Descending-degree relabelling, one bit at a time."""
    order = sorted(range(len(adj)), key=lambda v: (-adj[v].bit_count(), v))
    return order, reference_induced(adj, order)


def keep_list(form, v, rng):
    if form == "ascending":
        return sorted(rng.sample(range(v), v // 2))
    if form == "shuffled":
        return rng.sample(range(v), v - v // 3)
    if form == "single":
        return [rng.randrange(v)] if v else []
    return []


class TestInduced:
    @pytest.mark.parametrize("v", [0, 1, 2, 63, 64, 65, 130])
    @pytest.mark.parametrize("form", ["ascending", "shuffled", "single", "empty"])
    def test_matches_the_bitwise_relabel_on_random_graphs(self, v, form):
        adj = random_graph(v, 0.4, v)
        keep = keep_list(form, v, random.Random(v))
        assert _kernels_py.induced(adj, keep) == reference_induced(adj, keep)

    def test_matches_the_bitwise_relabel_on_a_crossing_graph(self):
        n = 40
        adj = crossing_masks(gen_random_pointset(n, seed=n), all_edges(n))
        rng = random.Random(n)
        for form in ("ascending", "shuffled", "single"):
            keep = keep_list(form, len(adj), rng)
            assert _kernels_py.induced(adj, keep) == reference_induced(adj, keep)

    @pytest.mark.parametrize("v", [0, 1, 65])
    def test_every_vertex_in_order_returns_the_rows(self, v):
        adj = random_graph(v, 0.4, v)
        assert _kernels_py.induced(adj, list(range(v))) == adj == reference_induced(adj, list(range(v)))


class TestDegreeOrder:
    """`clique_order`'s relabelling; a budget of 1 skips its coloring of the root."""

    @pytest.mark.parametrize("v", [0, 1, 2, 63, 64, 65, 130])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_matches_the_bitwise_relabel_on_random_graphs(self, v, p):
        adj = random_graph(v, p, v)
        assert _kernels_py.clique_order(adj, 1, 0) == (*reference_relabel(adj), (1 << v) - 1)

    def test_matches_the_bitwise_relabel_on_a_crossing_graph(self):
        n = 40
        adj = crossing_masks(gen_random_pointset(n, seed=n), all_edges(n))
        assert _kernels_py.clique_order(adj, 1, 0) == (*reference_relabel(adj), (1 << len(adj)) - 1)

    @pytest.mark.parametrize("v", [0, 1, 65, 130])
    def test_rows_already_in_degree_order_come_back_as_given(self, v):
        _, rows, _ = _kernels_py.clique_order(random_graph(v, 0.3, v), 1, 0)
        assert _kernels_py.clique_order(rows, 1, 0) == (list(range(v)), rows, (1 << v) - 1)

    def test_crossing_rows_already_in_degree_order(self):
        n = 40
        _, rows, _ = _kernels_py.clique_order(crossing_masks(gen_random_pointset(n, seed=n), all_edges(n)), 1, 0)
        assert _kernels_py.clique_order(rows, 1, 0) == (list(range(len(rows))), rows, (1 << len(rows)) - 1)

    @pytest.mark.parametrize("v", [0, 63, 64, 65, 130])
    def test_allowed_is_relabelled_bit_by_bit(self, v):
        # Random bits up to v + 8, so some lie past the last vertex and
        # are ignored; on unsorted rows and on rows already in order.
        rng = random.Random(f"allow:{v}")
        adj = random_graph(v, 0.3, v)
        for rows in (adj, reference_relabel(adj)[1]):
            order = reference_relabel(rows)[0]
            for allowed in (None, 0, rng.getrandbits(v + 8), rng.getrandbits(v + 8)):
                inside = set(range(v)) if allowed is None else {u for u in range(v) if allowed >> u & 1}
                want = sum(1 << i for i in range(v) if order[i] in inside)
                assert _kernels_py.clique_order(rows, 1, 0, allowed)[2] == want


class TestMaxConflictBoundedSet:
    def test_no_conflicts_takes_everything(self, kernel):
        size, members, proven, _ = kernel.max_conflict_bounded_set([0] * 5, 0)
        assert proven and size == 5 and members == [0, 1, 2, 3, 4]

    def test_k0_is_independent_set(self, kernel):
        # 5-cycle of conflicts: max independent set has 2 members.
        conflicts = [0] * 5
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]:
            conflicts[a] |= 1 << b
            conflicts[b] |= 1 << a
        size, _, proven, _ = kernel.max_conflict_bounded_set(conflicts, 0)
        assert proven and size == 2

    def test_k1_on_cycle(self, kernel):
        conflicts = [0] * 5
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]:
            conflicts[a] |= 1 << b
            conflicts[b] |= 1 << a
        size, _, proven, _ = kernel.max_conflict_bounded_set(conflicts, 1)
        assert proven and size == naive_max_conflict_bounded(conflicts, 1) == 3

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_matches_naive_on_random_graphs(self, kernel, seed, k):
        d = 7 + seed % 6  # 7..12 indices
        conflicts = random_graph(d, 0.25 + 0.05 * seed, 100 + seed)
        want = naive_max_conflict_bounded(conflicts, k)
        size, members, proven, _ = kernel.max_conflict_bounded_set(conflicts, k)
        assert proven and size == want
        chosen = 0
        for i in members:
            chosen |= 1 << i
        for i in members:
            assert (conflicts[i] & chosen).bit_count() <= k

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_returns_the_first_subset_in_branch_order(self, kernel, k):
        # Every bound prunes only subtrees without a subset of the target
        # size, so the search returns the first one in include-first order.
        rng = random.Random(300 + k)
        for trial in range(120):
            d = rng.randint(0, 12)
            conflicts = random_graph(d, rng.random(), 1000 * k + trial)
            kwargs = {}
            if rng.random() < 0.5:
                kwargs["cap"] = rng.randint(0, d + 1)
            size, members, proven, _ = kernel.max_conflict_bounded_set(conflicts, k, **kwargs)
            assert proven and (size, members) == naive_first_conflict_bounded(conflicts, k, **kwargs), (d, kwargs)

    def test_cap_allows_early_stop(self, kernel):
        conflicts = [0] * 8
        size, _, proven, _ = kernel.max_conflict_bounded_set(conflicts, 0, cap=8)
        assert proven and size == 8

    def test_sound_cap_does_not_change_answer(self, kernel):
        conflicts = random_graph(10, 0.4, 11)
        want = naive_max_conflict_bounded(conflicts, 1)
        size, _, proven, _ = kernel.max_conflict_bounded_set(conflicts, 1, cap=want)
        assert proven and size == want

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_cap_at_or_above_the_optimum_keeps_the_answer(self, kernel, seed, k):
        conflicts = random_graph(10, 0.4, 200 + seed)
        size, members, proven, nodes = kernel.max_conflict_bounded_set(conflicts, k)
        assert proven and size == naive_max_conflict_bounded(conflicts, k)
        for cap in (size, size + 1, size + 2, len(conflicts)):
            got = kernel.max_conflict_bounded_set(conflicts, k, cap=cap)
            assert got[:3] == (size, members, True) and got[3] <= nodes

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_cap_below_the_optimum_stops_at_the_first_subset_that_meets_it(self, kernel, seed, k):
        conflicts = random_graph(10, 0.4, 200 + seed)
        size, _, _, nodes = kernel.max_conflict_bounded_set(conflicts, k)
        for cap in range(size):
            got = kernel.max_conflict_bounded_set(conflicts, k, cap=cap)
            assert got[:2] == naive_first_conflict_bounded(conflicts, k, cap) and got[2]
            assert cap <= got[0] <= size and got[3] <= nodes

    def test_size_is_minus_one_when_no_leaf_is_reached(self, kernel):
        # A cap below 0 prunes the root, and a budget of 1 ends the search
        # there; only at d = 0 is the root itself a leaf.
        conflicts = [0b10, 0b01]
        assert kernel.max_conflict_bounded_set(conflicts, 0, cap=-1) == (-1, [], True, 1)
        assert kernel.max_conflict_bounded_set(conflicts, 0, budget=1) == (-1, [], False, 1)
        assert kernel.max_conflict_bounded_set([], 0, cap=-1) == (0, [], True, 1)

    def test_budget_truncation_is_flagged(self, kernel):
        conflicts = random_graph(16, 0.5, 5)
        _, _, proven, nodes = kernel.max_conflict_bounded_set(conflicts, 2, budget=10)
        assert not proven and nodes <= 10

    def test_many_indices_without_recursion(self, kernel):
        assert kernel.max_conflict_bounded_set([0] * 1200, 0) == (1200, list(range(1200)), True, 2401)

    @pytest.mark.parametrize("n", [13, 15])  # 65 and 90 diagonals: more than one 64-bit word
    @pytest.mark.parametrize("case", ["budget", "cap", "spine"])
    def test_implementations_agree_beyond_64_indices(self, compiled_kernels, n, case):
        diagonals = _diagonals(n)
        conflicts = crossing_masks(n, diagonals)
        skips = [sum(_skip(n, e) == s for e in diagonals) for s in range(n // 2, 1, -1)]
        k, kwargs = {
            "budget": (2, {"budget": 20000}),
            "cap": (0, {"cap": n - 3}),  # a triangulation's diagonal count
            # With the skip orbits n = 13 proves in 114,952 nodes, its last
            # spine jump barring indices 52..64, across the word boundary.
            "spine": (0, {"budget": 120_000}),
        }[case]
        for orbits in (None, skips):
            result = compiled_kernels.max_conflict_bounded_set(conflicts, k, orbits=orbits, **kwargs)
            assert result == _kernels_py.max_conflict_bounded_set(conflicts, k, orbits=orbits, **kwargs)
            size, members, _, _ = result
            chosen = sum(1 << i for i in members)
            assert len(members) == max(size, 0)
            assert all((conflicts[i] & chosen).bit_count() <= k for i in members)
        if case == "spine" and n == 13:
            assert result[2:] == (True, 114_952)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_orbits_keep_the_first_subset_in_branch_order(self, kernel, k):
        rng = random.Random(700 + k)
        for trial in range(30):
            blocks = random_blocks(rng, 14)
            conflicts = block_circulant(blocks, rng.random(), 1000 * k + trial)
            for kwargs in ({}, {"cap": rng.randint(0, len(conflicts) + 1)}):
                size, members, proven, _ = kernel.max_conflict_bounded_set(conflicts, k, orbits=blocks, **kwargs)
                assert proven and (size, members) == naive_first_conflict_bounded(conflicts, k, **kwargs), blocks

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_orbits_keep_the_answer_in_no_more_nodes(self, kernel, k):
        rng = random.Random(800 + k)
        for trial in range(100):
            blocks = random_blocks(rng, 14)
            conflicts = block_circulant(blocks, rng.random(), 1000 * k + trial)
            kwargs = {"cap": rng.randint(0, len(conflicts) + 1)} if rng.random() < 0.5 else {}
            plain = kernel.max_conflict_bounded_set(conflicts, k, **kwargs)
            got = kernel.max_conflict_bounded_set(conflicts, k, orbits=blocks, **kwargs)
            assert got[:3] == plain[:3] and got[3] <= plain[3], (blocks, kwargs)

    def test_singleton_orbits_are_the_plain_search(self, kernel):
        rng = random.Random(900)
        for trial in range(300):
            d = rng.randint(0, 16)
            conflicts = random_graph(d, rng.random(), trial)
            k = rng.choice([-1, 0, 1, 2, d])
            kwargs = {"cap": rng.randint(-1, d + 1)} if rng.random() < 0.5 else {}
            plain = kernel.max_conflict_bounded_set(conflicts, k, **kwargs)
            assert kernel.max_conflict_bounded_set(conflicts, k, orbits=None, **kwargs) == plain
            assert kernel.max_conflict_bounded_set(conflicts, k, orbits=[1] * d, **kwargs) == plain

    @pytest.mark.parametrize("n, k, nodes", [(9, 4, 6_324), (10, 2, 10_599)])
    def test_singleton_orbits_keep_the_oracle_node_counts(self, kernel, n, k, nodes):
        conflicts = crossing_masks(n, _diagonals(n))
        cap = (k + 4) * n // 2 - (k + 3) - n  # the oracle's closed-form cap
        for orbits in (None, [1] * len(conflicts)):
            size, _, proven, got = kernel.max_conflict_bounded_set(conflicts, k, cap=cap, orbits=orbits)
            assert (size + n, proven, got) == (24, True, nodes)

    @pytest.mark.parametrize("orbits", [[2, 2], [3, 3], [5, 0], [4, 2, -1], [0, 0, 5], [-1, 6], []])
    def test_rejects_bad_orbits(self, kernel, orbits):
        with pytest.raises(ValueError, match="orbit lengths"):
            kernel.max_conflict_bounded_set([0] * 5, 1, orbits=orbits)

    def test_implementations_agree_on_orbits(self, compiled_kernels):
        rng = random.Random(2025)
        for trial in range(1000):
            blocks = random_blocks(rng, 20)
            conflicts = block_circulant(blocks, rng.random(), trial)
            d, k = len(conflicts), rng.choice([-1, 0, 1, 2, 5])
            kwargs = {"orbits": blocks}
            if rng.random() < 0.5:
                kwargs["budget"] = rng.randint(0, 2000)
            if rng.random() < 0.5:
                kwargs["cap"] = rng.randint(-2, d + 2)
            want = _kernels_py.max_conflict_bounded_set(conflicts, k, **kwargs)
            assert compiled_kernels.max_conflict_bounded_set(conflicts, k, **kwargs) == want, (blocks, k, kwargs)

    def test_implementations_agree_on_random_arguments(self, compiled_kernels):
        # The pure kernel's counter masks against the compiled kernel's
        # per-index counters: every argument combined, node counts included.
        rng = random.Random(2024)
        for trial in range(2000):
            d = rng.randint(0, 20)
            conflicts = random_graph(d, rng.random(), trial)
            k = rng.choice([-1, 0, 1, 2, 5, d, d + 3])
            kwargs = {}
            if rng.random() < 0.5:
                kwargs["budget"] = rng.randint(0, 2000)
            if rng.random() < 0.5:
                kwargs["cap"] = rng.randint(-2, d + 2)
            want = _kernels_py.max_conflict_bounded_set(conflicts, k, **kwargs)
            assert compiled_kernels.max_conflict_bounded_set(conflicts, k, **kwargs) == want, (d, k, kwargs)
