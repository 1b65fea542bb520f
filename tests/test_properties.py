"""Cross-module properties: round trips, monotonicity, certificate soundness."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import naive_crossing_masks, naive_edge_depths

from beyondplanar.coloring import Coloring
from beyondplanar.convex import slope_partition, verify_k_planar
from beyondplanar.crossings import crossing_masks
from beyondplanar.fileio import parse_coloring, parse_instance, write_coloring, write_instance
from beyondplanar.geometry import Edge, PointSet, all_edges, gen_random_pointset
from beyondplanar.quasiplanar import (
    build_crossing_graph,
    check_pairwise_crossing,
    is_k_quasi_planar,
    max_crossing_family,
)

coords = st.integers(min_value=-50, max_value=50)


@st.composite
def point_sets(draw, min_n=3, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pts = draw(
        st.lists(st.tuples(coords, coords), min_size=n, max_size=n, unique=True)
    )
    try:
        return PointSet(pts)
    except ValueError:
        assume(False)


@st.composite
def colorings(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    c = draw(st.integers(min_value=1, max_value=4))
    assignment = {e: draw(st.integers(min_value=0, max_value=c - 1)) for e in all_edges(n)}
    return Coloring(n, c, assignment)


class TestFileRoundTrips:
    @given(point_sets())
    @settings(max_examples=60)
    def test_instance_round_trip(self, points):
        text = write_instance(points)
        back = parse_instance(text)
        assert back.points == points
        assert write_instance(back) == text

    @given(colorings())
    @settings(max_examples=60)
    def test_coloring_round_trip(self, coloring):
        text = write_coloring(coloring)
        back = parse_coloring(text)
        assert back == coloring
        assert write_coloring(back) == text


class TestCrossingMasks:
    @given(point_sets(min_n=3, max_n=10), st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_subsets_match_the_pairwise_oracle(self, points, data):
        edges = data.draw(st.lists(st.sampled_from(all_edges(points.n)), unique=True), label="edges")
        masks = crossing_masks(points, edges)
        assert masks == naive_crossing_masks(points, edges)
        assert all(masks[j] >> i & 1 == mask >> j & 1 for i, mask in enumerate(masks) for j in range(len(edges)))


class TestQuasiPlanarity:
    @given(point_sets(min_n=4, max_n=8), st.integers(min_value=3, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_k(self, points, k):
        edges = all_edges(points.n)
        if is_k_quasi_planar(points, edges, k).ok:
            assert is_k_quasi_planar(points, edges, k + 1).ok

    @given(point_sets(min_n=6, max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_witness_is_a_crossing_family_of_size_k(self, points):
        result = is_k_quasi_planar(points, all_edges(points.n), 3)
        if not result.ok:
            assert len(result.witness) == 3
            assert check_pairwise_crossing(points, result.witness)


class TestMaxCrossingFamily:
    @given(point_sets(min_n=4, max_n=9))
    @settings(max_examples=40, deadline=None)
    def test_certificate_is_a_proven_matching(self, points):
        family = max_crossing_family(build_crossing_graph(points), points=points)
        assert family.proven_maximum
        assert 2 * family.size <= points.n
        seen = [v for e in family.edges for v in e]
        assert len(seen) == len(set(seen))
        assert check_pairwise_crossing(points, family.edges)

    @given(point_sets(min_n=4, max_n=12))
    @settings(max_examples=40, deadline=None)
    def test_every_family_edge_is_deep_enough(self, points):
        # Each of m pairwise crossing edges has the other m-1 crossing its
        # line, so at least m-1 points lie on either side of it.
        family = max_crossing_family(build_crossing_graph(points))
        depth = dict(zip(all_edges(points.n), naive_edge_depths(points)))
        assert all(depth[e] >= family.size - 1 for e in family.edges)

    @given(st.integers(min_value=4, max_value=12), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_size_is_seed_independent_of_edge_order(self, n, seed):
        points = gen_random_pointset(n, seed=seed)
        graph = build_crossing_graph(points)
        family = max_crossing_family(graph, points=points)
        reversed_graph = build_crossing_graph(PointSet(list(points)[::-1]))
        assert max_crossing_family(reversed_graph).size == family.size


class TestSlopePartition:
    @given(st.integers(min_value=3, max_value=40), st.data())
    @settings(max_examples=40, deadline=None)
    def test_totality_color_count_and_planarity(self, n, data):
        s = data.draw(st.integers(min_value=3, max_value=n), label="s")
        coloring = slope_partition(n, s)
        assert coloring.num_colors == -(-n // s)
        k = (s - 1) * (s - 2) // 2
        for edges in coloring.classes():
            assert verify_k_planar(n, edges, k).ok

    @given(st.integers(min_value=5, max_value=40))
    @settings(max_examples=36)
    def test_classes_partition_all_edges(self, n):
        coloring = slope_partition(n, 3)
        union = [e for cls in coloring.classes() for e in cls]
        assert sorted(union) == list(all_edges(n))
