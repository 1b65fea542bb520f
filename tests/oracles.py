"""Independent brute-force oracles used to certify the package.

These are deliberately simple: plain enumeration with no bounds beyond
feasibility, and constructions built the long way, so they share no
logic with the kernels, the crossing layer or the partitions they check.
They import nothing from `quasiplanar`, `crossings`, `bounds`,
`_kernels_py` or `_native` (a test in test_fileio.py pins this).
"""


def naive_max_clique_mask(adj):
    """Exact max clique by scanning all vertex subsets (V <= 16)."""
    v = len(adj)
    best_size, best_mask = 0, 0
    for mask in range(1 << v):
        m = mask
        ok = True
        while m:
            b = m & -m
            m ^= b
            i = b.bit_length() - 1
            if mask & ~adj[i] & ~b:
                ok = False
                break
        if ok and mask.bit_count() > best_size:
            best_size, best_mask = mask.bit_count(), mask
    return best_size, [i for i in range(v) if best_mask >> i & 1]


def naive_max_clique_enum(adjacent, v):
    """Exact max clique by enumerating every clique (adjacency predicate)."""
    best = 0

    def extend(size, candidates):
        nonlocal best
        if size > best:
            best = size
        for idx, w in enumerate(candidates):
            extend(size + 1, [x for x in candidates[idx + 1 :] if adjacent(w, x)])

    extend(0, list(range(v)))
    return best


def naive_max_conflict_bounded(conflicts, k):
    """Exact max conflict-degree-<=k subset by scanning all subsets (D <= 14)."""
    d = len(conflicts)
    best_size = 0
    for mask in range(1 << d):
        m = mask
        ok = True
        while m:
            b = m & -m
            m ^= b
            if (conflicts[b.bit_length() - 1] & mask).bit_count() > k:
                ok = False
                break
        if ok and mask.bit_count() > best_size:
            best_size = mask.bit_count()
    return best_size


def naive_first_conflict_bounded(conflicts, k, cap=None):
    """The (size, members) a conflict-bounded subset search without a budget returns (D <= 14).

    Subsets are scanned in include-first depth-first order: indicator
    vectors (x_0, ..., x_{D-1}) descending, x_0 most significant. The
    answer is the first feasible subset whose size is at least
    min(cap, opt), opt being the largest feasible size; cap >= 0.
    """
    d = len(conflicts)
    feasible = []
    for vector in range((1 << d) - 1, -1, -1):
        mask = sum(1 << i for i in range(d) if vector >> (d - 1 - i) & 1)
        members = [i for i in range(d) if mask >> i & 1]
        if all((conflicts[i] & mask).bit_count() <= k for i in members):
            feasible.append(members)
    target = max(map(len, feasible))
    if cap is not None:
        target = min(cap, target)
    first = next(members for members in feasible if len(members) >= target)
    return len(first), first


def naive_max_k_plane_convex(n, k, diagonals_only=True):
    """Exact max k-plane edge count on convex K_n by subset enumeration.

    With diagonals_only, hull edges are fixed in (they cross nothing, so
    some maximum solution contains them) and only diagonal subsets are
    scanned; without it every edge subset is scanned, which checks that
    hull argument itself but only fits n <= 6.
    """
    from beyondplanar.convex import convex_edges_cross
    from beyondplanar.geometry import Edge, all_edges

    hull = {Edge.of(i, (i + 1) % n) for i in range(n)}
    pool = [e for e in all_edges(n) if not diagonals_only or e not in hull]
    conf = [0] * len(pool)
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            if convex_edges_cross(n, pool[i], pool[j]):
                conf[i] |= 1 << j
                conf[j] |= 1 << i
    best = 0
    for mask in range(1 << len(pool)):
        m = mask
        ok = True
        while m:
            b = m & -m
            m ^= b
            if (conf[b.bit_length() - 1] & mask).bit_count() > k:
                ok = False
                break
        if ok and mask.bit_count() > best:
            best = mask.bit_count()
    return best + (len(hull) if diagonals_only else 0)


def naive_convex_crossings(n, edges=None):
    """Crossing pairs among chords of convex K_n, counted pair by pair.

    Counts all of K_n when edges is None. Uses the per-pair predicate
    `convex_edges_cross`, not the crossing layer, so closed forms and mask
    sums can be checked against it.
    """
    from beyondplanar.convex import convex_edges_cross
    from beyondplanar.geometry import Edge, all_edges

    es = all_edges(n) if edges is None else sorted({Edge.of(e[0], e[1]) for e in edges})
    return sum(1 for i, e in enumerate(es) for f in es[i + 1 :] if convex_edges_cross(n, e, f))


def naive_crossing_masks(instance, edges):
    """Crossing masks of an edge list, decided pair by pair.

    Bit j of masks[i] is set iff edges[i] and edges[j] properly cross, by
    `segments_cross` on a PointSet and by `convex_edges_cross` for an int
    n (convex position in index order). It shares no code with the
    crossing layer's side masks, so it can check them.
    """
    from beyondplanar.convex import convex_edges_cross
    from beyondplanar.geometry import PointSet, segments_cross

    if isinstance(instance, PointSet):
        p = instance

        def cross(e, f):
            return segments_cross(p[e[0]], p[e[1]], p[f[0]], p[f[1]])

    else:

        def cross(e, f):
            return convex_edges_cross(instance, e, f)

    masks = [0] * len(edges)
    for i, e in enumerate(edges):
        for j in range(i + 1, len(edges)):
            if cross(e, edges[j]):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def naive_collinear_triple(points):
    """The first collinear triple (i, j, k), i < j < k, by gcd-reduced directions, or None.

    Anchors i in order; for each, the later points k in order, each
    direction i->k divided by the gcd of its components and turned to
    point up, or right when horizontal, so that parallel directions
    coincide. The first k whose direction an earlier j had gives (i, j, k)
    with the first such j. Points must be distinct.
    """
    from math import gcd

    for i, p in enumerate(points):
        seen = {}
        for k in range(i + 1, len(points)):
            dx, dy = points[k].x - p.x, points[k].y - p.y
            g = gcd(dx, dy)
            dx, dy = dx // g, dy // g
            if dy < 0 or (dy == 0 and dx < 0):
                dx, dy = -dx, -dy
            if (dx, dy) in seen:
                return i, seen[dx, dy], k
            seen[dx, dy] = k
    return None


def naive_random_pointset(n, seed, box, attempts=500):
    """The points of `gen_random_pointset(n, seed)` drawn in [0, box]^2, or None where it gives up.

    A rejection sampler on the generator's seeded draws: a candidate is
    kept iff it differs from every kept point and makes a nonzero exact
    orientation determinant with every two of them, checked triple by
    triple. After `attempts` draws for one point it gives up.
    """
    import random

    from beyondplanar.geometry import Point

    rng = random.Random(f"random:{n}:{seed}")
    kept = []
    for _ in range(n):
        for _attempt in range(attempts):
            c = Point(rng.randrange(0, box + 1), rng.randrange(0, box + 1))
            if c not in kept and all(
                (a.x - c.x) * (b.y - c.y) != (a.y - c.y) * (b.x - c.x) for i, a in enumerate(kept) for b in kept[:i]
            ):
                kept.append(c)
                break
        else:
            return None
    return kept


def naive_side_masks(points, edges):
    """Side masks of an edge list, one determinant per edge and used point.

    Bit j of masks[i] is set iff the j-th smallest point that the edges
    touch lies strictly left of edges[i] = (a, b): det(b - a, w - a) > 0.
    This is the per-point loop the crossing layer ran before it read the
    sides from a sweep, kept here to check the sides that its convex ring
    and its rotational sweep give.
    """
    xy = [(p.x, p.y) for p in points]
    rev_xy = [xy[w] for w in sorted({w for e in edges for w in e}, reverse=True)]
    strings = []
    for a, b in edges:
        (ax, ay), (bx, by) = xy[a], xy[b]
        dx, dy = bx - ax, by - ay
        c = dx * ay - dy * ax  # w is left of ab iff dx * wy - dy * wx > c
        strings.append("".join(["1" if dx * y - dy * x > c else "0" for x, y in rev_xy]))
    return [int(s, 2) for s in strings]


def naive_edge_depths(points):
    """Depth of every edge of K(P), in `all_edges` order, point by point.

    The depth of edge uv is the smaller number of points strictly on
    either side of its line, decided by `orientation` for each point. It
    shares no code with the crossing layer's side masks.
    """
    from beyondplanar.geometry import all_edges, orientation

    p = points
    depths = []
    for u, v in all_edges(points.n):
        signs = [orientation(p[u], p[v], p[w]) for w in range(points.n) if w not in (u, v)]
        depths.append(min(signs.count(1), signs.count(-1)))
    return depths


def naive_halving_lines(points, family):
    """Halving lines of a crossing family, in angle order: (edge, direction, left).

    The direction runs from the rear endpoint to the forward one and lies
    in the upper half plane (angle in [0, pi)); `left` holds the forward
    endpoint and the family endpoints strictly left of the line, by
    `orientation`. Lines are sorted by the exact cotangent dx/dy of their
    angle, falling, as a Fraction (angle 0 first), not by cross products.
    """
    from fractions import Fraction

    from beyondplanar.geometry import Edge, orientation

    p = points
    ends = {v for e in family for v in e}
    lines = []
    for rear, fwd in family:
        dx, dy = p[fwd].x - p[rear].x, p[fwd].y - p[rear].y
        if dy < 0 or (dy == 0 and dx < 0):  # turn the direction into the upper half plane
            rear, fwd, dx, dy = fwd, rear, -dx, -dy
        left = {fwd} | {w for w in ends - {rear, fwd} if orientation(p[rear], p[fwd], p[w]) > 0}
        lines.append((Edge.of(rear, fwd), (dx, dy), frozenset(left)))
    lines.sort(key=lambda ln: (0, 0) if ln[1][1] == 0 else (1, Fraction(-ln[1][0], ln[1][1])))
    return lines


def naive_halving_cover(points, family, k):
    """For every edge of K(P), the groups that cover it, in order.

    Consecutive halving lines form groups of k-1. Halving group l covers
    an edge of the family's endpoints X with both endpoints among its
    lines' endpoints X_l, or with one there and both on one side of the
    group's first line. The points outside X follow, in index order, in
    star groups of k-1; each covers the edges with an endpoint in it.
    Every group is checked against every edge, on `naive_halving_lines`.
    """
    from beyondplanar.geometry import all_edges

    lines = naive_halving_lines(points, family)
    ends = {v for edge, _, _ in lines for v in edge}
    rest = [v for v in range(points.n) if v not in ends]
    cover = {e: [] for e in all_edges(points.n)}
    for l, a in enumerate(range(0, len(lines), k - 1)):
        group = lines[a : a + k - 1]
        members = {v for edge, _, _ in group for v in edge}
        first_left = group[0][2]
        for e, covering in cover.items():
            if e.u not in ends or e.v not in ends:
                continue
            inside = (e.u in members) + (e.v in members)
            same_side = (e.u in first_left) == (e.v in first_left)
            if inside == 2 or (inside == 1 and same_side):
                covering.append(l)
    halving_groups = -(-len(lines) // (k - 1))
    for g, a in enumerate(range(0, len(rest), k - 1)):
        star = set(rest[a : a + k - 1])
        for e, covering in cover.items():
            if e.u in star or e.v in star:
                covering.append(halving_groups + g)
    return cover


def naive_halving_partition(points, family, k):
    """Halving-line partition: each edge goes to the first group that covers it."""
    from beyondplanar.coloring import Coloring

    m = len(family)
    num_groups = -(-m // (k - 1)) + -(-(points.n - 2 * m) // (k - 1))
    cover = naive_halving_cover(points, family, k)
    return Coloring(points.n, num_groups, [covering[0] for covering in cover.values()])  # in all_edges order


def naive_double_star_partition(points):
    """n spanning double stars on 2n points, built tree by tree; color i is tree i.

    Points are ranked by (x, y); with 1-based ranks, tree i has the centers
    a and b at ranks 2i-1 and 2i. For every pair j: a takes rank 2j when
    j < i and rank 2j-1 when j > i; b takes rank 2j-1 when j <= i and
    rank 2j when j > i.
    """
    from beyondplanar.coloring import Coloring
    from beyondplanar.geometry import Edge, all_edges

    n = points.n // 2
    order = sorted(range(points.n), key=lambda i: (points[i].x, points[i].y))
    assignment = {}
    for i in range(1, n + 1):
        a, b = order[2 * i - 2], order[2 * i - 1]  # ranks 2i-1 and 2i
        for j in range(1, n + 1):
            if j < i:
                assignment[Edge.of(a, order[2 * j - 1])] = i - 1  # a -- rank 2j
            elif j > i:
                assignment[Edge.of(a, order[2 * j - 2])] = i - 1  # a -- rank 2j-1
            if j <= i:
                assignment[Edge.of(b, order[2 * j - 2])] = i - 1  # b -- rank 2j-1
            else:
                assignment[Edge.of(b, order[2 * j - 1])] = i - 1  # b -- rank 2j
    return Coloring(points.n, n, [assignment.get(e) for e in all_edges(points.n)])


def verify_spanning_tree(points, edges):
    """True iff the edges form a spanning tree of all points."""
    from beyondplanar.geometry import Edge

    es = {Edge.of(e[0], e[1]) for e in edges}
    if len(es) != points.n - 1:
        return False
    parent = list(range(points.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = points.n
    for u, v in es:
        if not 0 <= u < v < points.n:
            return False
        ru, rv = find(u), find(v)
        if ru == rv:
            return False  # cycle
        parent[ru] = rv
        comps -= 1
    return comps == 1


def naive_block_size(k):
    """Largest slope-interval width s >= 3 with (s-1)(s-2)/2 <= k, counted up one at a time."""
    s = 3
    while s * (s - 1) // 2 <= k:  # (s'-1)(s'-2)/2 for s' = s+1
        s += 1
    return s


def naive_color_lower(n, k):
    """Least t >= 1 with 243 k t^2 >= 10 (n-1)^2, stepped to from isqrt one at a time."""
    import math

    rhs = 10 * (n - 1) ** 2
    t = max(1, math.isqrt(rhs // (243 * k)))
    while 243 * k * t * t < rhs:
        t += 1
    while t > 1 and 243 * k * (t - 1) * (t - 1) >= rhs:
        t -= 1
    return t


def slope_class(n, e):
    """Slope label of chord e on the regular n-gon: (i + j) mod n."""
    u, v = e
    if u == v or not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge {(u, v)} out of range for n={n}")
    return (u + v) % n


def position_crossing_cap(s, j):
    """Most same-class crossings for an edge at slope position j of s.

    Within one interval, an edge can meet at most d-1 edges per in-interval
    slope at distance d, summed over both directions:
    (j-1)(j-2)/2 + (s-j)(s-j-1)/2 = (s-1)(s-2)/2 - (s-j)(j-1).
    """
    if not 1 <= j <= s:
        raise ValueError(f"position {j} outside 1..{s}")
    return (s - 1) * (s - 2) // 2 - (s - j) * (j - 1)
