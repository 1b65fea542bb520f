"""Exact predicates, validation, and generator determinism."""

import copy
import pickle
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import naive_collinear_triple, naive_random_pointset

from beyondplanar import geometry
from beyondplanar.geometry import (
    COORD_LIMIT,
    Edge,
    GenerationError,
    Point,
    PointSet,
    all_edges,
    find_collinear_triple,
    gen_convex_polygon,
    gen_perfect_crossing_family_pointset,
    gen_random_pointset,
    orientation,
    quote_int,
    segments_cross,
    validate_pointset,
)

P = Point


def cyclic_variants(order):
    """All rotations of a cyclic order and of its reversal."""
    seq = list(order)
    out = []
    for base in (seq, seq[::-1]):
        for r in range(len(base)):
            out.append(tuple(base[r:] + base[:r]))
    return out


class TestPoint:
    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            Point(0.5, 1)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            Point(COORD_LIMIT + 1, 0)
        Point(COORD_LIMIT, -COORD_LIMIT)

    def test_frozen(self):
        p = Point(1, 2)
        with pytest.raises(AttributeError):
            p.x = 3


class TestQuoteInt:
    @pytest.mark.parametrize("x", [0, 7, -7, 10**20 - 1, -(10**20) + 1])
    def test_up_to_20_digits_in_full(self, x):
        assert quote_int(x) == str(x)

    @pytest.mark.parametrize("digits", [21, 22, 63, 64, 300, 4300, 4301, 6000, 20000])
    def test_past_20_digits_by_digit_count(self, digits):
        # Powers of ten and the numbers just below them are where an
        # estimate from the bit length goes wrong first.
        for x, want in ((10 ** (digits - 1), digits), (10**digits - 1, digits), (10**digits, digits + 1)):
            assert quote_int(x) == f"<{want} digits>"
            assert quote_int(-x) == f"-<{want} digits>"


class TestEdge:
    def test_of_normalizes(self):
        assert Edge.of(5, 2) == Edge(2, 5)
        assert Edge.of(2, 5) == Edge(2, 5)

    def test_of_rejects_loop(self):
        with pytest.raises(ValueError):
            Edge.of(3, 3)

    def test_all_edges_count_and_order(self):
        es = all_edges(4)
        assert es == [Edge(0, 1), Edge(0, 2), Edge(0, 3), Edge(1, 2), Edge(1, 3), Edge(2, 3)]


class TestOrientation:
    def test_counter_clockwise(self):
        assert orientation(P(0, 0), P(1, 0), P(0, 1)) == 1

    def test_collinear(self):
        assert orientation(P(0, 0), P(1, 1), P(2, 2)) == 0

    def test_clockwise(self):
        assert orientation(P(0, 0), P(0, 1), P(1, 0)) == -1

    def test_exact_at_coordinate_cap(self):
        m = COORD_LIMIT
        # Nearly collinear at the cap; any rounding would lose the sign.
        assert orientation(P(-m, -m), P(m, m), P(m - 1, m)) == 1
        assert orientation(P(-m, -m), P(m, m), P(m, m - 1)) == -1

    @given(
        st.tuples(*[st.integers(-1000, 1000)] * 6),
        st.integers(-10**6, 10**6),
        st.integers(-10**6, 10**6),
    )
    def test_antisymmetry_and_translation(self, coords, dx, dy):
        ax, ay, bx, by, cx, cy = coords
        a, b, c = P(ax, ay), P(bx, by), P(cx, cy)
        assert orientation(a, b, c) == -orientation(a, c, b)
        a2, b2, c2 = P(ax + dx, ay + dy), P(bx + dx, by + dy), P(cx + dx, cy + dy)
        assert orientation(a, b, c) == orientation(a2, b2, c2)


class TestSegmentsCross:
    def test_proper_crossing(self):
        assert segments_cross(P(0, 0), P(4, 0), P(2, 2), P(2, -2))

    def test_shared_endpoint(self):
        assert not segments_cross(P(0, 0), P(4, 0), P(0, 0), P(2, 2))

    def test_disjoint(self):
        assert not segments_cross(P(0, 0), P(1, 1), P(2, 0), P(3, 1))

    def test_touching_at_interior_of_one_only(self):
        # (2,0) lies on the interior of the first segment but is an endpoint
        # of the second: not a proper crossing.
        assert not segments_cross(P(0, 0), P(4, 0), P(2, 0), P(2, 2))

    @given(st.tuples(*[st.integers(-50, 50)] * 8))
    def test_symmetric(self, coords):
        a, b, c, d = P(coords[0], coords[1]), P(coords[2], coords[3]), P(coords[4], coords[5]), P(coords[6], coords[7])
        if len({a, b, c, d}) < 4 and not (a != b and c != d):
            return
        if a == b or c == d:
            return
        assert segments_cross(a, b, c, d) == segments_cross(c, d, a, b)


class TestPointSet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            PointSet([P(0, 0), P(1, 1), P(0, 0)])

    def test_rejects_collinear(self):
        with pytest.raises(ValueError, match="collinear"):
            PointSet([P(0, 0), P(1, 0), P(2, 0), P(0, 5)])

    def test_accepts_tuples(self):
        ps = PointSet([(0, 0), (4, 0), (1, 3)])
        assert ps.n == 3
        assert ps[1] == P(4, 0)

    @pytest.mark.parametrize(
        "pairs",
        [[(0.7, 0), (10, 5.9), (3, 2)], [("3", "4"), (0, 0), (1, 5)], [(True, False), (0, 5), (7, 2)]],
    )
    def test_rejects_non_integer_pairs(self, pairs):
        # Pairs are held to the same rule as Point: no truncation, no
        # parsing, and no bool, which the instance format cannot write.
        with pytest.raises(TypeError):
            PointSet(pairs)

    def test_edges_cross(self):
        ps = PointSet([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert ps.edges_cross(Edge(0, 2), Edge(1, 3))
        assert not ps.edges_cross(Edge(0, 1), Edge(2, 3))

    def test_pickle_and_deepcopy_round_trips(self):
        ps = gen_random_pointset(9, seed=4)
        for back in (pickle.loads(pickle.dumps(ps)), copy.deepcopy(ps)):
            assert type(back) is PointSet and back == ps and back.n == 9

    def test_equals_and_hashes_as_the_tuple_of_its_points(self):
        ps = PointSet([(0, 0), (4, 0), (1, 3)])
        points = (P(0, 0), P(4, 0), P(1, 3))
        assert ps == points and hash(ps) == hash(points)
        assert ps != points[::-1]
        assert repr(ps) == f"PointSet({list(points)!r})"

    def test_slice_is_a_plain_tuple(self):
        ps = PointSet([(0, 0), (4, 0), (1, 3), (5, 5)])
        assert type(ps[1:3]) is tuple and ps[1:3] == (P(4, 0), P(1, 3))

    def test_rebuilding_gives_an_equal_set(self):
        ps = gen_random_pointset(7, seed=1)
        assert PointSet(ps) == ps

    def test_items_cannot_be_assigned(self):
        ps = PointSet([(0, 0), (4, 0), (1, 3)])
        with pytest.raises(TypeError):
            ps[0] = P(1, 1)


class TestFindCollinearTriple:
    """`find_collinear_triple` against the gcd-reduced direction scan, witness included."""

    def assert_matches_the_oracle(self, points):
        points = [P(x, y) for x, y in points]
        assert find_collinear_triple(points) == naive_collinear_triple(points)

    @pytest.mark.parametrize("seed", range(40))
    def test_small_grids(self, seed):
        # Points of a 7 x 7 grid: most sets hold collinear triples, and
        # the rest many parallel pairs on distinct lines.
        rng = random.Random(f"grid:{seed}")
        cells = [(x, y) for x in range(7) for y in range(7)]
        self.assert_matches_the_oracle(rng.sample(cells, rng.randrange(1, 9)))

    @pytest.mark.parametrize("seed", range(20))
    def test_planted_triples(self, seed):
        rng = random.Random(f"planted:{seed}")
        points = [(p.x, p.y) for p in gen_random_pointset(12, seed=seed)]
        (ax, ay), (bx, by) = rng.sample(points, 2)
        t = rng.choice((-2, 2, 3))  # beyond b, or beyond a
        points.insert(rng.randrange(len(points) + 1), (ax + t * (bx - ax), ay + t * (by - ay)))
        assert find_collinear_triple([P(x, y) for x, y in points]) is not None
        self.assert_matches_the_oracle(points)

    @pytest.mark.parametrize(
        "points",
        [
            [(0, 0), (0, 5), (3, 1), (0, -7)],  # vertical
            [(2, 4), (9, 4), (1, 1), (-3, 4)],  # horizontal
            [(5, 5), (1, 2), (5, -1), (8, 2), (5, 0)],  # vertical from a later anchor
        ],
    )
    def test_axis_parallel_lines(self, points):
        self.assert_matches_the_oracle(points)
        assert find_collinear_triple([P(x, y) for x, y in points]) is not None

    @pytest.mark.parametrize(
        "points",
        [
            [(0, 0), (1, 1), (5, 0), (6, 1)],  # a parallelogram
            [(0, 0), (2, 0), (0, 1), (2, 1), (1, 5)],  # horizontal parallels
            [(0, 0), (0, 3), (1, 0), (1, 3), (4, 7)],  # vertical parallels
            [(0, 0), (3, 6), (1, 0), (3, 4), (0, 1), (5, 11)],  # slope 2, three lines
        ],
    )
    def test_parallel_pairs_on_distinct_lines(self, points):
        self.assert_matches_the_oracle(points)
        assert find_collinear_triple([P(x, y) for x, y in points]) is None

    def test_coordinates_at_the_limit(self):
        m = COORD_LIMIT
        corners = [(-m, -m), (m, m), (m, -m), (-m, m)]
        self.assert_matches_the_oracle(corners + [(0, 0)])  # on a diagonal
        self.assert_matches_the_oracle(corners + [(m - 1, m), (1, 0)])  # near the diagonal, off it
        self.assert_matches_the_oracle(corners + [(m, 0)])  # on the right side
        # Slopes about 2^-62 apart, the closest that coordinates within
        # the limit allow: not collinear.
        self.assert_matches_the_oracle([(-m, -m), (m, m - 1), (m - 1, m - 2), (0, 1)])
        rng = random.Random("limit")
        for _ in range(30):
            points = {(rng.choice((-1, 1)) * (m - rng.randrange(3)), rng.choice((-1, 1)) * (m - rng.randrange(3)))}
            points |= {(rng.randint(-m, m), rng.randint(-m, m)) for _ in range(3)}
            self.assert_matches_the_oracle(sorted(points))


class TestValidatePointset:
    def test_square(self):
        order = validate_pointset(PointSet([P(0, 0), P(2, 0), P(2, 2), P(0, 2)]))
        assert order in cyclic_variants((0, 1, 2, 3))

    def test_point_inside_hull(self):
        assert validate_pointset(PointSet([P(0, 0), P(4, 0), P(2, 3), P(2, 1)])) is None

    def test_too_small(self):
        with pytest.raises(ValueError):
            validate_pointset(PointSet([P(0, 0), P(1, 0)]))

    def test_order_is_clockwise(self):
        # Clockwise square in index order must come back as the identity.
        assert validate_pointset(PointSet([P(0, 2), P(2, 2), P(2, 0), P(0, 0)])) == (0, 1, 2, 3)


class TestConvexHull:
    def test_triangle_with_interior_point(self):
        pts = [P(0, 0), P(10, 0), P(5, 9), P(5, 3)]
        assert validate_pointset(PointSet(pts)) is None
        assert validate_pointset(PointSet(pts[:3])) == (0, 2, 1)

    @given(st.integers(3, 30), st.integers(0, 10))
    @settings(max_examples=30, deadline=None)
    def test_hull_of_convex_polygon_is_everything(self, n, seed):
        ps = gen_convex_polygon(n, seed)
        assert validate_pointset(ps) == tuple(range(n))


class TestGenConvexPolygon:
    def test_n4_is_convex(self):
        assert validate_pointset(gen_convex_polygon(4, 0)) is not None

    def test_n12_seed1(self):
        assert validate_pointset(gen_convex_polygon(12, 1)) is not None

    def test_n3_triangle(self):
        assert gen_convex_polygon(3, 0).n == 3

    def test_index_order_is_clockwise(self):
        for n in (5, 8, 13):
            assert validate_pointset(gen_convex_polygon(n, 2)) == tuple(range(n))

    def test_deterministic(self):
        assert gen_convex_polygon(9, 5) == gen_convex_polygon(9, 5)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            gen_convex_polygon(2, 0)

    @pytest.mark.parametrize("n", [3, 40, 1000])
    def test_coordinates_stay_within_a_million(self, n):
        # The fixed maps of TestOrderTypeInvariance (scaling by 512, a
        # shear by 7) keep such points within COORD_LIMIT.
        points = gen_convex_polygon(n, seed=n)
        assert max(max(abs(p.x), abs(p.y)) for p in points) <= 10**6
        assert validate_pointset(points) == tuple(range(n))


class TestGenRandomPointset:
    def test_single_point(self):
        assert gen_random_pointset(1, 0).n == 1

    def test_n10_seed7_general_position(self):
        validate_pointset(gen_random_pointset(10, 7))

    def test_deterministic(self):
        assert gen_random_pointset(10, 7) == gen_random_pointset(10, 7)

    def test_distinct_seeds_differ(self):
        assert gen_random_pointset(10, 7) != gen_random_pointset(10, 8)

    @pytest.mark.parametrize("n", [3, 20, 60])
    def test_general_position_by_the_gcd_scan(self, n):
        assert naive_collinear_triple(gen_random_pointset(n, seed=n)) is None

    @pytest.mark.parametrize("seed", range(5))
    def test_a_small_box_rejects_as_the_brute_force_sampler_does(self, monkeypatch, seed):
        # On a 13 x 13 grid most candidates repeat a point or close a
        # collinear triple, and from 19 points on the 500 draws can run out.
        monkeypatch.setattr(geometry, "_GEN_BOX", 12)
        for n in range(1, 25):
            want = naive_random_pointset(n, seed, 12)
            if want is None:
                with pytest.raises(GenerationError, match=f"n={n}, seed={seed}"):
                    gen_random_pointset(n, seed)
            else:
                assert list(gen_random_pointset(n, seed)) == want

    def test_memory_grows_no_faster_than_the_points(self):
        tracemalloc.start()
        try:
            gen_random_pointset(400, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestGenPerfectCrossingFamily:
    def test_n1(self):
        ps, fam = gen_perfect_crossing_family_pointset(1, 0)
        assert ps.n == 2 and fam == [Edge(0, 1)]

    def test_n3_pairwise_crossing(self):
        ps, fam = gen_perfect_crossing_family_pointset(3, 0)
        assert ps.n == 6 and len(fam) == 3
        for i, e in enumerate(fam):
            for f in fam[i + 1 :]:
                assert ps.edges_cross(e, f)

    def test_family_covers_every_point_once(self):
        ps, fam = gen_perfect_crossing_family_pointset(6, 3)
        used = sorted(v for e in fam for v in e)
        assert used == list(range(ps.n))

    def test_deterministic(self):
        a = gen_perfect_crossing_family_pointset(4, 9)
        b = gen_perfect_crossing_family_pointset(4, 9)
        assert a[0] == b[0] and a[1] == b[1]

    def test_coordinates_stay_within_a_million(self):
        points, _ = gen_perfect_crossing_family_pointset(500, seed=1)
        assert max(max(abs(p.x), abs(p.y)) for p in points) <= 10**6

    @given(st.integers(1, 10), st.integers(0, 20))
    @settings(max_examples=25, deadline=None)
    def test_certificate_holds_across_seeds(self, n, seed):
        ps, fam = gen_perfect_crossing_family_pointset(n, seed)
        for i, e in enumerate(fam):
            for f in fam[i + 1 :]:
                assert ps.edges_cross(e, f)


@pytest.mark.parametrize(
    "generate, n, points",
    [
        (gen_convex_polygon, 32769, 32769),
        (gen_convex_polygon, 10**9, 10**9),
        (gen_perfect_crossing_family_pointset, 16385, 32770),
        (gen_perfect_crossing_family_pointset, 10**9, 2 * 10**9),
    ],
)
def test_more_points_than_the_parabola_holds_are_refused_at_once(generate, n, points):
    # x runs up to the point count past 1000 points, and x^2 must stay within COORD_LIMIT.
    message = f"at most 32768 points fit on y = x^2 within +/-{COORD_LIMIT}, got {points} points"
    with pytest.raises(ValueError, match=re.escape(message)):
        generate(n)


def test_generation_error_is_runtime_error():
    assert issubclass(GenerationError, RuntimeError)
