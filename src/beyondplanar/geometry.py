"""Exact integer geometry: points, crossing predicates, validation, generators.

All predicates work on integer coordinates with exact arithmetic; there is
no floating point in any decision path or generator. The convex and
crossing-family generators construct points on the parabola y = x^2,
in convex general position by construction, and certify them exactly;
only the random generator rejects candidates, drawing again in their place.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, NamedTuple, Sequence

# Coordinates are capped so orientation determinants stay far inside the
# exact range of 64-bit products (Python ints are unbounded anyway; the cap
# keeps instances portable to fixed-width implementations of the formats).
COORD_LIMIT = 1 << 30

_GEN_BOX = 10**6
_GEN_ATTEMPTS_PER_POINT = 500  # candidate draws per point (random)
_PARABOLA_POINTS = math.isqrt(COORD_LIMIT)  # past isqrt(_GEN_BOX) points x reaches n, and x^2 <= COORD_LIMIT


class GenerationError(RuntimeError):
    """The random generator exhausted its candidate draws."""


def quote_int(x: int) -> str:
    """x in decimal for an error message, or only its digit count past 20 digits.

    Integers read from a file can run to 4300 digits, and str() refuses
    the larger ones that arithmetic on them gives, so both are counted.
    """
    size = abs(x)
    if size < 10**20:
        return str(x)
    digits = int((size.bit_length() - 1) * math.log10(2)) + 1  # one short at most
    digits += size >= 10**digits
    return f"{'-' if x < 0 else ''}<{digits} digits>"


@dataclass(frozen=True, slots=True)
class Point:
    x: int
    y: int

    def __post_init__(self) -> None:
        if any(not isinstance(c, int) or isinstance(c, bool) for c in (self.x, self.y)):
            raise TypeError(f"integer coordinates required: ({self.x!r}, {self.y!r})")
        if abs(self.x) > COORD_LIMIT or abs(self.y) > COORD_LIMIT:
            raise ValueError(f"coordinate exceeds +/-{COORD_LIMIT}: ({quote_int(self.x)}, {quote_int(self.y)})")


class Edge(NamedTuple):
    """Unordered vertex-index pair, stored with u < v."""

    u: int
    v: int

    @classmethod
    def of(cls, a: int, b: int) -> "Edge":
        if a == b:
            raise ValueError(f"degenerate edge ({a}, {b})")
        return cls(a, b) if a < b else cls(b, a)


def all_edges(n: int) -> list[Edge]:
    """Every edge of the complete graph on n vertices, lexicographic."""
    us = chain.from_iterable(map(repeat, range(n), range(n - 1, -1, -1)))  # u, n - 1 - u times
    vs = chain.from_iterable(map(range, range(1, n + 1), repeat(n)))  # u + 1 .. n - 1, for each u
    # tuple.__new__ builds each Edge in C, without the namedtuple's Python-level __new__.
    return list(map(tuple.__new__, repeat(Edge), zip(us, vs)))


def orientation(a: Point, b: Point, c: Point) -> int:
    """Sign of det(b-a, c-a): +1 counter-clockwise, -1 clockwise, 0 collinear."""
    d = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    return (d > 0) - (d < 0)


def segments_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff open segments ab and cd share an interior point.

    Segments that share an endpoint never cross. Assumes general position
    apart from possibly shared endpoints (no three distinct collinear
    points), which every validated PointSet guarantees.
    """
    if a == c or a == d or b == c or b == d:
        return False
    if orientation(a, b, c) * orientation(a, b, d) >= 0:
        return False
    return orientation(c, d, a) * orientation(c, d, b) < 0


def check_pairwise_crossing(points: PointSet, edges: Sequence[Edge]) -> bool:
    """True iff every two of the edges cross, by the exact segment predicate."""
    return all(
        points.edges_cross(edges[i], edges[j]) for i in range(len(edges)) for j in range(i + 1, len(edges))
    )


def _as_points(points: Iterable) -> tuple[Point, ...]:
    out = []
    for p in points:
        if isinstance(p, Point):
            out.append(p)
        else:
            x, y = p
            out.append(Point(x, y))
    return tuple(out)


def direction_key(d: Sequence[int]) -> int:
    """An exact sort key of the direction (dx, dy) = d[:2] by its angle in [0, pi).

    The direction must have dy > 0, or dy = 0 < dx. The key is
    floor(-dx * 2^64 / dy), which rises with the angle, and -2^96 for a
    horizontal direction, below every other key, which lies within
    +/-2^95. Coordinates within COORD_LIMIT = 2^30 bound |dx| and |dy| by
    2^31, so two directions of distinct slopes differ in -dx/dy by at
    least 2^-62 and their keys by at least 3, while parallel directions
    share a key. It reads only d[:2], so tuples (dx, dy, ...) sort by it
    directly.

    As an equality key it takes any nonzero direction: -dx/dy, and so the
    key, is the same for d and -d. Two differences of points within
    COORD_LIMIT share a key iff they are parallel.
    """
    return (-d[0] << 64) // d[1] if d[1] else -(1 << 96)


def _direction_keys(p: Point, points: Iterable[Point]) -> list[int]:
    """The `direction_key` of the line from p to each of the points, in order."""
    return [direction_key((q.x - p.x, q.y - p.y)) for q in points]


def find_collinear_triple(points: Sequence[Point]) -> tuple[int, int, int] | None:
    """Indices (i, j, k), i < j < k, of a collinear triple, or None. Points must be distinct.

    Per-anchor direction keys: a triple (i, j, k) is collinear iff the
    directions i->j and i->k are parallel, that is, share a
    `direction_key`, so one set per anchor finds a repeat in O(n^2)
    instead of O(n^3). Only an anchor with a repeat is scanned again, in
    order, for the witness: the first anchor i with a collinear pair, the
    first k on the line through i of an earlier j, and the first such j.
    """
    for i, p in enumerate(points):
        keys = _direction_keys(p, points[i + 1 :])
        if len(set(keys)) < len(keys):
            seen: dict[int, int] = {}
            for k, key in enumerate(keys, i + 1):
                if key in seen:
                    return i, seen[key], k
                seen[key] = k
    return None


class PointSet(tuple[Point, ...]):
    """Ordered point set in general position: a tuple of Points.

    Construction rejects duplicate points and collinear triples outright:
    degenerate inputs are a caller error, never a downstream special case.
    """

    __slots__ = ()

    def __new__(cls, points: Iterable):
        pts = _as_points(points)
        if not pts:
            raise ValueError("a point set needs at least one point")
        first: dict[Point, int] = {}
        for i, p in enumerate(pts):
            if first.setdefault(p, i) != i:
                raise ValueError(f"duplicate points at indices {first[p]} and {i}")
        bad = find_collinear_triple(pts)
        if bad is not None:
            raise ValueError(f"collinear triple at indices {bad[0]}, {bad[1]}, {bad[2]}")
        return super().__new__(cls, pts)

    @property
    def n(self) -> int:
        return len(self)

    def __repr__(self) -> str:
        return f"PointSet({list(self)!r})"

    def edges_cross(self, e: Edge, f: Edge) -> bool:
        return segments_cross(self[e.u], self[e.v], self[f.u], self[f.v])


def validate_pointset(points: PointSet) -> tuple[int, ...] | None:
    """The clockwise cyclic order of a point set in convex position, else None.

    The hull comes from Andrew's monotone chain, and the order lists its
    indices clockwise, rotated to start at the smallest index. General
    position needs no check: the PointSet constructor already rejected
    duplicates and collinear triples, so every hull vertex is strict.
    """
    if points.n < 3:
        raise ValueError(f"validation needs at least 3 points, got {points.n}")
    order = sorted(range(points.n), key=lambda i: (points[i].x, points[i].y))

    def build(indices):
        chain: list[int] = []
        for i in indices:
            while len(chain) >= 2 and orientation(points[chain[-2]], points[chain[-1]], points[i]) <= 0:
                chain.pop()
            chain.append(i)
        return chain

    hull = build(order)[:-1] + build(reversed(order))[:-1]
    if len(hull) != points.n:
        return None
    cw = hull[::-1]
    start = cw.index(min(cw))
    return tuple(cw[start:] + cw[:start])


def _parabola(n: int, rng: random.Random) -> list[Point]:
    """n points (x, x^2) for distinct integers x in [-t, t], in decreasing x.

    t = max(isqrt(_GEN_BOX), n): coordinates stay within +/-_GEN_BOX up to
    n = isqrt(_GEN_BOX), which leaves fixed integer maps of the points
    room below COORD_LIMIT, and the box widens only as far as n needs.
    Any three points of a parabola span a triangle, so the points are in
    convex general position, clockwise in index order; the callers
    certify that exactly all the same.
    """
    if n > _PARABOLA_POINTS:
        raise ValueError(f"at most {_PARABOLA_POINTS} points fit on y = x^2 within +/-{COORD_LIMIT}, got {n} points")
    t = max(math.isqrt(_GEN_BOX), n)
    return [Point(x, x * x) for x in sorted(rng.sample(range(-t, t + 1), n), reverse=True)]


def gen_convex_polygon(n: int, seed: int = 0) -> PointSet:
    """n integer points in convex general position, clockwise in index order.

    The points (x, x^2) of distinct integers x drawn with the seed, in
    decreasing x; only the cyclic order matters for crossing structure,
    so the polygon need not be metrically regular. More than
    isqrt(COORD_LIMIT) = 32768 points raise ValueError before any is drawn.
    """
    if n < 3:
        raise ValueError(f"a convex polygon needs n >= 3, got {n}")
    points = PointSet(_parabola(n, random.Random(f"convex:{n}:{seed}")))
    if validate_pointset(points) != tuple(range(n)):
        raise AssertionError("parabola points are not convex in clockwise index order")
    return points


def gen_random_pointset(n: int, seed: int = 0) -> PointSet:
    """n uniform integer points in [0, _GEN_BOX]^2, in general position.

    A candidate drawn with the seed is accepted iff it repeats no accepted
    point and its `direction_key`s to them are pairwise distinct, that is,
    it is collinear with no two of them; else it is drawn again. 500 draws
    for one point raise GenerationError. Only the point list grows with n.
    """
    if n < 1:
        raise ValueError(f"n >= 1 required, got {n}")
    rng = random.Random(f"random:{n}:{seed}")
    pts: list[Point] = []
    for _ in range(n):
        for _attempt in range(_GEN_ATTEMPTS_PER_POINT):
            cand = Point(rng.randrange(0, _GEN_BOX + 1), rng.randrange(0, _GEN_BOX + 1))
            if cand in pts:
                continue
            keys = _direction_keys(cand, pts)
            if len(set(keys)) == len(keys):
                pts.append(cand)
                break
        else:
            raise GenerationError(f"random generator failed for n={n}, seed={seed}")
    return PointSet(pts)


def gen_perfect_crossing_family_pointset(n: int, seed: int = 0) -> tuple[PointSet, list[Edge]]:
    """2n points carrying a perfect crossing family of n pairwise crossing edges.

    2n parabola points q_0..q_{2n-1}, drawn as `gen_convex_polygon` draws
    them, clockwise; edge i joins q_i and q_{n+i}. For i < j the endpoints
    interleave as q_i, q_j, q_{n+i}, q_{n+j} around the convex polygon, so
    any two edges cross. The family is certified exactly with
    check_pairwise_crossing. More than 16384 edges (32768 points) raise
    ValueError before any point is drawn.

    Returns the point set (endpoints of edge i at positions 2i, 2i+1) and
    the family edges (2i, 2i+1).
    """
    if n < 1:
        raise ValueError(f"n >= 1 required, got {n}")
    ring = _parabola(2 * n, random.Random(f"family:{n}:{seed}"))
    points = PointSet(chain.from_iterable(zip(ring[:n], ring[n:])))
    family = [Edge(2 * i, 2 * i + 1) for i in range(n)]
    if not check_pairwise_crossing(points, family):
        raise AssertionError("parabola chords fail the pairwise crossing check")
    return points, family
