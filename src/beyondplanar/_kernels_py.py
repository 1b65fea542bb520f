"""Pure-Python search kernels: max clique and conflict-bounded subset search.

Reference implementations of the two hot exact-search loops. The compiled
kernels in _kernels.c are preferred when built (see _native); they share
this module's input checks (`clique_order`, `check_conflicts`) and follow
the same branch order, so both return identical results, node counts
included. These versions use arbitrary-width int bitmasks, so they have
no size limit and serve as the correctness baseline. Both walk their
search trees with explicit stacks, so input size is not bounded by the
recursion limit.

Result convention shared by both kernels: (size, members, proven, nodes).
`proven` is False only when the node budget was exhausted; the best
solution found so far is still returned. When a `target` is given, the
search stops as soon as a solution of that size is found; if the caller
knows `target` is a valid upper bound, such a result is the exact optimum.

Both clique kernels make one call to `clique_order`, their one
preamble: it checks the rows, sorts the vertices by degree and, before
it relabels the rows and the `allowed` mask, colors the root on the
caller's rows. When no color class above the floor opens there, the
search would end at its root, so it is answered without relabelling.
Rows that arrive already in degree order, as the family search's do,
skip that step: they are not relabelled anyway, and the search's own
bitwise coloring of the root is cheaper than the list-form one. Inside
the search, the color classes that cannot beat the best clique are
colored but not stored as branches.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence

IMPLEMENTATION = "python"
DEFAULT_BUDGET = 10**8  # search nodes, when the caller sets no budget


def _check_masks(masks: list[int], wide: str, self_loop: str) -> None:
    n = len(masks)
    for i, mask in enumerate(masks):
        if mask >> n:
            raise ValueError(wide.format(i=i, n=n))
        if mask >> i & 1:
            raise ValueError(self_loop.format(i=i))


def check_conflicts(conflicts: list[int]) -> None:
    """Raise ValueError unless conflicts[i] is a bitmask over the other indices."""
    _check_masks(conflicts, "conflict mask of index {i} has bits >= {n}", "index {i} conflicts with itself")


def induced(masks: Sequence[int], keep: list[int]) -> list[int]:
    """Adjacency masks of the subgraph on the vertices `keep`, vertex keep[j] relabelled j.

    When `keep` is every vertex in order, the rows come back equal, in a new list.
    """
    if not keep:
        return []
    n, width = len(masks), f"0{len(masks)}b"
    # Character k of a row's n-digit binary string is bit n-1-k, so new bit
    # j of a row is character n-1-keep[j] of the old one.
    pick = itemgetter(*(n - 1 - v for v in reversed(keep)))
    return [int("".join(pick(format(masks[v], width))), 2) for v in keep]


def clique_order(
    adj: list[int], budget: int, floor_size: int, allowed: int | None = None
) -> tuple[list[int], list[int], int] | None:
    """The clique search's preamble: (order, radj, allow), or None when that search ends at its root.

    Checks the adjacency masks, then sorts the vertices by descending
    degree: vertex order[i] of the input is vertex i of the relabelled
    graph radj, and `allow` is the bitmask `allowed` under the same
    relabelling (None is every vertex; bits at len(adj) and above are
    ignored). Greedy coloring is tighter when dense vertices are colored
    first.

    With budget > 1 the search colors its root, and with no color class
    above floor_size it branches nowhere: it returns (floor_size, [],
    True, 1), whatever `target` and `allowed` are, since the root is then
    no leaf that beats the floor either. That coloring is made here on the
    input rows over the degree order, and stops at the first class above
    the floor. Rows already in degree order skip it and come back as
    given: there is no relabelling to save, and the search's bitwise
    coloring of its root costs less than this one.
    """
    _check_masks(adj, "adjacency mask of vertex {i} has bits >= {n}", "vertex {i} is self-adjacent")
    n = len(adj)
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    if allowed is None:
        allowed = (1 << n) - 1
    if order == list(range(n)):
        return order, list(adj), allowed & (1 << n) - 1
    if budget > 1:
        # First fit, one class at a time: a vertex joins the class unless a
        # member's row holds it, as in the search's coloring of the
        # relabelled rows, so these are the search's root classes.
        rest = order
        for _ in range(floor_size):
            if not rest:
                break
            near, later = 0, []
            for v in rest:
                if near >> v & 1:
                    later.append(v)
                else:
                    near |= adj[v]
            rest = later
        if not rest:
            return None
    return order, induced(adj, order), sum(1 << i for i, v in enumerate(order) if allowed >> v & 1)


def max_clique(
    adj: list[int],
    budget: int = DEFAULT_BUDGET,
    target: int | None = None,
    floor_size: int = 0,
    allowed: int | None = None,
) -> tuple[int, list[int], bool, int]:
    """Largest clique of the graph given as per-vertex neighbor bitmasks.

    Branch and bound with a greedy-coloring upper bound; candidates are
    branched from the highest color class down. Cliques of size at most
    `floor_size` are ignored (size comes back as floor_size with empty
    members), which turns the search into an existence test for cliques
    larger than the floor. When the budget runs out, the clique on the
    current search path counts as found. A search that ends at its root is
    answered before the graph is relabelled (`clique_order`).

    `allowed` is a bitmask of the vertices a clique may use (default: all).
    A vertex outside it is still colored, but when it comes up as a
    branch it is dropped from its node's candidates as if its subtree had
    held no clique, and no node is counted; a node whose candidates all
    lie outside is a leaf. So while every clique above the floor lies
    inside `allowed`, the search takes every other branch of the
    unrestricted search, and finds the same first clique.
    """
    relabelled = clique_order(adj, budget, floor_size, allowed)
    if relabelled is None:
        return floor_size, [], True, 1
    order, radj, allow = relabelled
    n = len(adj)
    best_size = floor_size
    best_mask = 0
    nodes = 0
    exhausted = False

    # A node is (r_size, r_mask, cand): the clique so far and the vertices
    # adjacent to all of it. stack[t] is the open node at depth t with its
    # untried branches: (vertex, color) pairs in coloring order, colors
    # non-decreasing, tried from the end. A node's classes up to
    # best_size - r_size are colored but not stored: the best only rises
    # while the node is open, so they could never beat it.
    stack: list[list] = []
    r_size, r_mask, cand = 0, 0, (1 << n) - 1
    while True:
        nodes += 1
        if nodes >= budget:
            exhausted = True
            if r_size > best_size:  # the clique on the path is the best so far
                best_size = r_size
                best_mask = r_mask
            break
        if cand & allow:
            seq: list[tuple[int, int]] = []
            uncolored = cand
            color = 0
            while uncolored:
                color += 1
                avail = uncolored
                if r_size + color <= best_size:
                    while avail:
                        b = avail & -avail
                        uncolored ^= b
                        avail &= ~radj[b.bit_length() - 1] & uncolored
                    continue
                while avail:
                    b = avail & -avail
                    v = b.bit_length() - 1
                    seq.append((v, color))
                    uncolored ^= b
                    avail &= ~radj[v] & uncolored
            stack.append([r_size, r_mask, cand, seq])
        elif r_size > best_size:
            best_size = r_size
            best_mask = r_mask
            if target is not None and best_size >= target:
                break
        # Next branch: the last untried allowed vertex of the deepest open
        # node whose color bound can still beat the best clique.
        while stack:
            frame = stack[-1]
            r_size, r_mask, cand, seq = frame
            if not seq or r_size + seq[-1][1] <= best_size:
                stack.pop()
                continue
            v = seq.pop()[0]
            b = 1 << v
            frame[2] = cand ^ b
            if allow >> v & 1:
                break
        else:
            break
        r_size, r_mask, cand = r_size + 1, r_mask | b, cand & radj[v]

    members = sorted(order[i] for i in range(n) if best_mask >> i & 1)
    return best_size, members, not exhausted, nodes


def orbit_stops(orbits: Sequence[int] | None, d: int) -> list[int]:
    """stops[i]: the index after the last of i's orbit, the orbits being runs of the given lengths.

    None makes every index its own orbit. Raises ValueError unless the
    lengths are at least 1 and sum to d.
    """
    if orbits is None:
        return list(range(1, d + 1))
    if any(length < 1 for length in orbits) or sum(orbits) != d:
        raise ValueError(f"orbit lengths {list(orbits)} must be at least 1 and sum to {d}")
    stops: list[int] = []
    for length in orbits:
        stops += [len(stops) + length] * length
    return stops


def max_conflict_bounded_set(
    conflicts: list[int],
    k: int,
    cap: int | None = None,
    budget: int = DEFAULT_BUDGET,
    orbits: Sequence[int] | None = None,
) -> tuple[int, list[int], bool, int]:
    """Largest index subset in which every member conflicts with at most k members.

    conflicts[i] is the bitmask of indices conflicting with i. `cap` is a
    caller-proven upper bound on the answer: it prunes, and reaching it
    stops the search with a proven optimum. The size is -1, with empty
    members, only when no leaf was reached: the budget ran out first, or
    a cap below 0 pruned the root.

    Conflict counts are kept as counter masks rather than one counter per
    index: ge[v] is the mask of indices that conflict with at least v
    chosen members (ge[0] is every index). Including i with conflict mask
    m raises the counts of m by one, ge[v] |= ge[v-1] & m from the top
    level down, so an index is over capacity when it is in ge[k+1] and
    saturated when it is in ge[k] but not ge[k+1]. Each include branch
    pushes its parent's ge list, so backtracking restores it as it is.

    A node's bound is the chosen size plus the free indices (undecided,
    not barred) that can still join, at most `cap`. For k > 0 it counts
    spare capacity. Let S be the chosen set, cr(S) its conflicting pairs
    and c_j the number of members of S that conflict with j. Each x in S
    can take k - c_x(S) more conflicts, so S has k|S| - 2 cr(S) units
    left in all, and every leaf below keeps the sum non-negative. A free
    j that joins uses c_j of them, at least, since later indices only add
    conflicts. So the indices that join number at most the free ones with
    c_j = 0 plus the most of the rest whose c_j fit the spare units,
    taken smallest c_j first. The level of a free index is its ge level,
    and cr(S) rides on the stack. A valid bound prunes only subtrees that
    hold no better subset, so the answer and the witness are those of the
    search without it. For k = 0 nothing is spare and every free index
    has c_j = 0, so the bound is the free count, as it is for k < 0.

    `orbits` lists the lengths of consecutive index runs, each an orbit
    of a group of index permutations that maps conflicts to conflicts.
    Like `cap` it is a fact the caller has proven; None makes every index
    its own orbit, the plain search. The spine is the path of nodes with
    nothing chosen. Backtracking to a spine node takes its exclude branch
    with the rest of the index's orbit barred too, and goes on past the
    orbit (to i + 1 when the orbit is i alone). So a spine node decides
    the first index i of an orbit, every earlier orbit barred. A subset W
    in its exclude branch that holds a member j of i's orbit avoids the
    earlier orbits, and a symmetry taking j to i maps it to a subset of
    the same size that holds i and avoids them too: one in the include
    branch, searched first. So the first largest subset in branch order
    is never barred, and the size, members and `proven` are those of the
    search without `orbits`, in no more nodes.
    """
    check_conflicts(conflicts)
    d = len(conflicts)
    stops = orbit_stops(orbits, d)
    k = max(-1, min(k, d))  # no index conflicts with d others, so a larger k never binds
    if cap is None:
        cap = d + 1  # no subset is larger
    best_size = -1
    best_mask = 0
    nodes = 0
    exhausted = False
    suffix = [0] * (d + 1)
    for i in range(d - 1, -1, -1):
        suffix[i] = suffix[i + 1] | (1 << i)

    # A node decides index i given the chosen set, the indices barred from
    # it and the counter masks ge[0..k+1]. Each index is first included,
    # then excluded; stack holds the nodes whose include branch is open,
    # so their exclude branch is next.
    stack: list[tuple[int, int, int, int, int, list[int]]] = []
    i = size = crossed = chosen = blocked = 0
    ge = [-1] + [0] * (k + 1)
    while True:
        nodes += 1
        if nodes >= budget:
            exhausted = True
            break
        if i == d:
            if size > best_size:
                best_size = size
                best_mask = chosen
                if best_size >= cap:
                    break
        else:
            free = suffix[i] & ~blocked
            ub = size + free.bit_count()
            if k > 0 and ub > best_size and cap > best_size:
                # Spare capacity: free indices taken cheapest level first.
                # `over` counts the free indices at level v or above.
                spare = k * size - 2 * crossed
                over = (free & ge[1]).bit_count()
                ub -= over
                v = 1
                while over:
                    above = (free & ge[v + 1]).bit_count()
                    if (over - above) * v > spare:
                        ub += spare // v
                        break
                    ub += over - above
                    spare -= (over - above) * v
                    over = above
                    v += 1
            if ub > cap:
                ub = cap
            if ub > best_size:
                bit = 1 << i
                if not (blocked | ge[k + 1]) >> i & 1:
                    stack.append((i, size, crossed, chosen, blocked, ge))
                    m = conflicts[i]
                    crossed += (m & chosen).bit_count()
                    was = ge
                    ge = ge.copy()
                    for v in range(min(k, size) + 1, 0, -1):  # levels above size + 1 stay empty
                        ge[v] |= ge[v - 1] & m
                    blocked |= ge[k + 1] & m & ~chosen  # over capacity: barred
                    # Chosen members that just reached k, and i if it enters
                    # with k: saturated, so their other conflicts are barred.
                    sat = ge[k] & ~was[k] & chosen | was[k] & bit
                    while sat:
                        b = sat & -sat
                        sat ^= b
                        blocked |= conflicts[b.bit_length() - 1] & ~chosen
                    i, size, chosen, blocked = i + 1, size + 1, chosen | bit, blocked | bit
                    continue
                i, blocked = i + 1, blocked | bit
                continue
        # Backtrack: return to the deepest open include branch and take its
        # exclude branch, which on the spine also bars the rest of i's orbit.
        if not stack:
            break
        i, size, crossed, chosen, blocked, ge = stack.pop()
        after = i + 1 if size else stops[i]
        i, blocked = after, blocked | suffix[i] ^ suffix[after]

    members = [i for i in range(d) if best_mask >> i & 1]
    return best_size, members, not exhausted, nodes
