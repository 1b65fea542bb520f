"""Independent brute-force oracles used to certify the search kernels.

These are deliberately simple: plain enumeration with no bounds beyond
feasibility, so they share no logic with the branch-and-bound kernels they
check.
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
