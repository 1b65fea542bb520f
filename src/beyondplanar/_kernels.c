/* Compiled search kernels: max clique and conflict-bounded subset search.

   C99 (plus the GCC/Clang bit builtins) ports of the explicit-stack loops
   in _kernels_py.py, branch for branch, so both return the same sizes,
   members and node counts. Bitsets are W uint64 words, low word first.
   The caller (_kernels_c.py) checks and relabels the input and allocates
   every buffer zeroed; this file only searches. */

#include <stdint.h>
#include <string.h>

typedef uint64_t u64;

#define BIT(i) ((u64)1 << ((i) & 63))
#define HAS(s, i) ((s)[(i) >> 6] >> ((i) & 63) & 1)

static int lowest(const u64 *s, int W)
{
    for (int w = 0; w < W; w++)
        if (s[w])
            return w * 64 + __builtin_ctzll(s[w]);
    return -1;
}

/* Whether s and t share a member. */
static int meets(const u64 *s, const u64 *t, int W)
{
    for (int w = 0; w < W; w++)
        if (s[w] & t[w])
            return 1;
    return 0;
}

/* Highest member of s below i, or -1. */
static int highest_below(const u64 *s, int i)
{
    while (i > 0) {
        int w = (i - 1) >> 6;
        u64 word = s[w] & (~(u64)0 >> (63 - ((i - 1) & 63)));
        if (word)
            return w * 64 + 63 - __builtin_clzll(word);
        i = w * 64;
    }
    return -1;
}

/* Greedy coloring of cand into seq as (vertex, color) pairs: colors
   non-decreasing, lowest vertex first within a color. Returns the pair
   count. */
static int color_classes(int W, const u64 *adj, const u64 *cand, u64 *uncolored, u64 *avail, int *seq)
{
    int len = 0, color = 0, v;
    memcpy(uncolored, cand, W * sizeof(u64));
    while (lowest(uncolored, W) >= 0) {
        color++;
        memcpy(avail, uncolored, W * sizeof(u64));
        while ((v = lowest(avail, W)) >= 0) {
            seq[2 * len] = v;
            seq[2 * len + 1] = color;
            len++;
            uncolored[v >> 6] &= ~BIT(v);
            for (int w = 0; w < W; w++)
                avail[w] &= ~adj[(size_t)v * W + w] & uncolored[w];
        }
    }
    return len;
}

/* adj: n * W words, already relabelled. allowed: W words, the vertices a
   clique may use; a node whose candidates all lie outside is a leaf.
   cand: (n + 1) * W words, one candidate set per depth. seq: n * (n + 1)
   ints, a stack of the open nodes' untried (vertex, color) pairs, base[t]
   (n + 1 ints) marking where depth t's pairs start. path and members: n
   ints. scratch: 2 * W words. *best enters as the floor. Returns the node
   count. */
long long bp_max_clique(int n, int W, const u64 *adj, const u64 *allowed, long long budget, long long target,
                        u64 *cand, u64 *scratch, int *seq, int *base, int *path, int *members, long long *best,
                        int *exhausted)
{
    long long nodes = 0;
    int depth = 0, top = 0, v;
    for (v = 0; v < n; v++)
        cand[v >> 6] |= BIT(v);
    for (;;) {
        u64 *c = cand + (size_t)depth * W;
        base[depth] = top;
        if (++nodes >= budget) {
            *exhausted = 1;
            if (depth > *best) { /* the clique on the path is the best so far */
                *best = depth;
                memcpy(members, path, depth * sizeof(int));
            }
            break;
        }
        if (meets(c, allowed, W)) {
            top += 2 * color_classes(W, adj, c, scratch, scratch + W, seq + top);
        } else if (depth > *best) {
            *best = depth;
            memcpy(members, path, depth * sizeof(int));
            if (*best >= target)
                break;
        }
        /* Next branch: the last untried allowed vertex of the deepest open
           node whose color bound can still beat the best clique. A vertex
           outside allowed leaves its node's candidates unsearched. */
        do {
            while (depth >= 0 && (top == base[depth] || depth + seq[top - 1] <= *best))
                top = base[depth--];
            if (depth < 0)
                return nodes;
            top -= 2;
            v = seq[top];
            c = cand + (size_t)depth * W;
            c[v >> 6] &= ~BIT(v);
        } while (!HAS(allowed, v));
        path[depth] = v;
        for (int w = 0; w < W; w++)
            c[W + w] = c[w] & adj[(size_t)v * W + w];
        depth++;
    }
    return nodes;
}

/* conflicts: d * W words. chosen, best_mask: W words. cnt: d ints,
   each index's count of chosen conflicts. level: d + 1 ints, free indices
   counted by cnt. blocked: (d + 1) * W words, the barred set on reaching
   each index; the unused high bits of its last word are kept set so that
   counting the free indices needs no mask. An included index stays in
   chosen while its include branch is open, so chosen doubles as the stack
   of open branches. *best enters as -1, so the first leaf is recorded.
   Returns the node count.

   The node bound for k > 0 is _kernels_py's spare-capacity bound: the
   chosen set S can take k|S| - 2 cr(S) more conflicts in all, a free
   index j that joins takes cnt[j] of them, so at most the free indices
   with cnt 0 plus the most of the rest that fit, cheapest first, can
   join. It prunes only subtrees without a better subset.

   stop: d ints, stop[i] the index after the last of i's orbit (see
   _kernels_py). Backtracking to a node with nothing chosen bars the rest
   of i's orbit with i and goes on at stop[i]; elsewhere at i + 1. */
long long bp_max_conflict_bounded_set(int d, int W, int k, const u64 *conflicts, const int *stop, long long cap,
                                      long long budget, int *cnt, int *level, u64 *blocked, u64 *chosen,
                                      u64 *best_mask, long long *best, int *exhausted)
{
    long long nodes = 0, crossed = 0; /* crossed: conflicting pairs inside chosen */
    int i = 0, size = 0;
    if (d & 63)
        blocked[W - 1] = ~(u64)0 << (d & 63);
    for (;;) {
        u64 *bl = blocked + (size_t)i * W, *next = bl + W;
        if (++nodes >= budget) {
            *exhausted = 1;
            break;
        }
        if (i == d) {
            if (size > *best) {
                *best = size;
                memcpy(best_mask, chosen, W * sizeof(u64));
                if (*best >= cap)
                    break;
            }
        } else {
            long long ub = size + __builtin_popcountll(~bl[i >> 6] & ~(u64)0 << (i & 63));
            for (int w = (i >> 6) + 1; w < W; w++)
                ub += __builtin_popcountll(~bl[w]);
            if (ub > cap)
                ub = cap;
            if (ub > *best && k > 0) {
                /* Spare capacity: free indices taken cheapest level first. */
                long long spare = (long long)k * size - 2 * crossed;
                int top = k < size ? k : size;
                memset(level, 0, (top + 1) * sizeof(int)); /* a free index has cnt <= top */
                for (int w = i >> 6; w < W; w++)
                    for (u64 m = ~bl[w] & (w == i >> 6 ? ~(u64)0 << (i & 63) : ~(u64)0); m; m &= m - 1)
                        level[cnt[w * 64 + __builtin_ctzll(m)]]++;
                ub = size + level[0];
                for (int v = 1; v <= top; v++) {
                    if ((long long)level[v] * v > spare) {
                        ub += spare / v;
                        break;
                    }
                    ub += level[v];
                    spare -= (long long)level[v] * v;
                }
                if (ub > cap)
                    ub = cap;
            }
            if (ub > *best) {
                const u64 *ci = conflicts + (size_t)i * W;
                memcpy(next, bl, W * sizeof(u64));
                if (!HAS(bl, i) && cnt[i] <= k) {
                    crossed += cnt[i];
                    for (int w = 0; w < W; w++) {
                        for (u64 m = ci[w]; m; m &= m - 1) {
                            int j = w * 64 + __builtin_ctzll(m);
                            cnt[j]++;
                            if (cnt[j] == k && HAS(chosen, j)) {
                                for (int x = 0; x < W; x++) /* j saturated: neighbors barred */
                                    next[x] |= conflicts[(size_t)j * W + x] & ~chosen[x];
                            } else if (cnt[j] == k + 1 && !HAS(chosen, j)) {
                                next[j >> 6] |= BIT(j); /* j itself can no longer fit */
                            }
                        }
                    }
                    if (cnt[i] == k) /* i enters already saturated */
                        for (int x = 0; x < W; x++)
                            next[x] |= ci[x] & ~chosen[x];
                    next[i >> 6] |= BIT(i);
                    chosen[i >> 6] |= BIT(i);
                    size++;
                    i++;
                    continue;
                }
                next[i >> 6] |= BIT(i);
                i++;
                continue;
            }
        }
        /* Backtrack: undo the deepest open include branch and take its
           exclude branch. */
        if ((i = highest_below(chosen, i)) < 0)
            return nodes;
        chosen[i >> 6] &= ~BIT(i);
        size--;
        for (int w = 0; w < W; w++)
            for (u64 m = conflicts[(size_t)i * W + w]; m; m &= m - 1)
                cnt[w * 64 + __builtin_ctzll(m)]--;
        crossed -= cnt[i];
        int after = size ? i + 1 : stop[i]; /* on the spine: past i's whole orbit */
        u64 *to = blocked + (size_t)after * W;
        memcpy(to, blocked + (size_t)i * W, W * sizeof(u64));
        for (; i < after; i++)
            to[i >> 6] |= BIT(i);
    }
    return nodes;
}
