"""Compare the compiled search kernels against the pure-Python fallback.

Workloads: maximum-clique searches on crossing graphs and dense random
graphs, and the crossing-bounded subset search on the diagonals of convex
polygons (the extremal-subgraph oracle's inner loop), one of them wider
than a 64-bit word. Both implementations must return identical sizes and
node counts; the table reports wall times and speedups. The compiled
kernels are timed when built (`python3 setup.py build_ext --inplace`).

A second table times the crossing layer, `crossing_masks` on the complete
graph of random n = 24, 32, 40 (the benchmark's sizes) and 60 points (and
100 under --heavy), where one rotational sweep over the C(n, 2) pairs,
O(n^2 log n) for the sort, replaces O(n^3) point-by-point signs; on a
star, one centre with n - 1 edges, on random n = 40 and 100 points, the
one shape where the sweep's C(n, 2) steps outweigh the few edges; and on
n = 24, 32, 40 and 60 points in convex index order; then
`build_crossing_graph`, which sweeps once and assembles the rows of K_n
twice, on random n = 40 and 60 (and 100 under --heavy) and on convex
polygons of n = 40 and 60 points, which it sweeps too, where
`crossing_masks` cuts one ring. It has no compiled twin. Outside
the timing, each random and star `crossing_masks` row checks its crossing
count against a count made pair by pair with `PointSet.edges_cross`, each
convex row against C(n, 4), and each crossing-graph row its masks
against `crossing_masks` of the reordered edges and its order against
the degrees those masks give.

A third table times the extremal oracle, `max_k_plane_subgraph(n, k)`
for (n, k) = (9, 4), (10, 2), (11, 2), (11, 3), (12, 1) and (12, 2), on
the kernel in use: its size, the nodes of its one subset search, and
its wall time.

A fourth table times `max_crossing_family` on random n = 40, 48 and 60
points (seed 2; n = 60 with seed 1 under --heavy): its size, whether it
proved the optimum, its search nodes and its wall time, which includes
building the crossing graph. Each row must prove the size that a clique
search over the whole crossing graph proved for that instance, and
return the same edges as the unrestricted search of the whole crossing
graph for a family of that size, run outside the timing.

A fifth table times the random generator, the colorings and their files,
none of which has a compiled twin: `gen_random_pointset` at n = 400 and
1000, whose bytes column is the peak of the Python allocations that
`tracemalloc` sees in one run, then `slope_partition` (s = 3) on convex
n = 40, 100 and 200 and `double_star_partition` on random n = 40 and
100, then `write_coloring` and `parse_coloring` on the slope colorings
and `write_instance` and `parse_instance` on the random point sets of
n = 40 and 100. Each file row checks that the text parses back to the
value it was written from, and each double-star row that it has n/2
classes of n - 1 edges.

A sixth table times the existence checks of `verify quasiplanar`,
`is_k_quasi_planar(points, classes, 3)`, on the double-star classes of
random n = 40, 100 and 200 and the family classes (k = 3) of random
n = 40 and 60 (and 100 under --heavy, whose maximum family takes about a
minute to find with the pure kernels). A class that two vertices cover
is certified without crossing rows or a search; the table reports the
classes certified and searched, the search nodes of the searched
classes, one per class when every search ends at its root, the peak of
the Python allocations that `tracemalloc` sees in one check, and its
wall time on each kernel. Every verdict must be True.

Before each table the script times `probe()` from `perfbench/run.py`,
a fixed crossing loop that does not touch the package, best of three,
and prints every time in the table twice: in milliseconds and as a
multiple of that probe (`p`). A busy shared host slows the probe with
the rows next to it, so a multiple still compares across runs when the
host's speed has changed between them; one probe run has its own noise,
about +/-10% on a quiet host. The probe is imported from the benchmark's
directory without writing bytecode there.

Usage: python3 benchmarks/bench_kernels.py [--repeat N] [--heavy]
"""

from __future__ import annotations

import argparse
import random
import sys
import time
import tracemalloc
from contextlib import contextmanager
from math import comb
from pathlib import Path

from beyondplanar import _kernels_py, _native
from beyondplanar.bounds import _diagonals, max_k_plane_subgraph
from beyondplanar.convex import slope_partition
from beyondplanar.crossings import build_crossing_graph, crossing_masks
from beyondplanar.fileio import Instance, parse_coloring, parse_instance, write_coloring, write_instance
from beyondplanar.geometry import Edge, all_edges, gen_convex_polygon, gen_random_pointset
from beyondplanar.quasiplanar import (
    crossing_family_partition,
    double_star_partition,
    is_k_quasi_planar,
    max_crossing_family,
)

compiled = _native if _native.IMPLEMENTATION == "compiled" else None
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_probe():
    """`perfbench/run.py`'s `probe()`, imported without writing bytecode into `perfbench/`."""
    sys.path.insert(0, str(PERFBENCH))
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import run
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(PERFBENCH))
    return run.probe


def table(header: str, probe):
    """Time the probe, best of three, print it and the header, and return the formatter of this table's times."""
    unit = min(probe() for _ in range(3))
    print(f"\nprobe {unit * 1000:.1f}ms\n{header}\n{'-' * len(header)}")
    return lambda seconds: f"{seconds * 1000:7.1f}ms {seconds / unit:7.3f}p"


def random_graph(v: int, p: float, seed: int) -> list[int]:
    rng = random.Random(seed)
    masks = [0] * v
    for i in range(v):
        for j in range(i + 1, v):
            if rng.random() < p:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def diagonal_conflicts(n: int) -> list[int]:
    return crossing_masks(n, _diagonals(n))


def clique_workloads(heavy: bool):
    _, masks, _ = build_crossing_graph(gen_random_pointset(22, seed=1))
    yield f"clique crossing-graph n=22 V={len(masks)}", "max_clique", (masks,), {}
    yield "clique random V=120 p=0.8", "max_clique", (random_graph(120, 0.8, seed=7),), {}
    yield "clique random V=150 p=0.7", "max_clique", (random_graph(150, 0.7, seed=7),), {}
    if heavy:
        yield "clique random V=170 p=0.8", "max_clique", (random_graph(170, 0.8, seed=7),), {}


def subset_workloads(heavy: bool):
    for n, k in ((9, 2), (9, 4), (10, 2)):
        yield f"subset convex diagonals n={n} k={k}", "max_conflict_bounded_set", (diagonal_conflicts(n),), {"k": k}
    wide = {"k": 2, "budget": 300_000}  # 65 diagonals, over one word; far from proven, so a budget ends it
    yield "subset convex diagonals n=13 k=2 b=3e5", "max_conflict_bounded_set", (diagonal_conflicts(13),), wide
    if heavy:
        yield "subset convex diagonals n=10 k=3", "max_conflict_bounded_set", (diagonal_conflicts(10),), {"k": 3}


def family_workloads(heavy: bool):
    # (n, seed, size): random point sets and the maximum crossing family
    # size that one clique search over the whole crossing graph proved.
    yield from ((40, 2, 17), (48, 2, 22), (60, 2, 26))
    if heavy:
        yield 60, 1, 26


def existence_workloads(heavy: bool):
    for n in (40, 100, 200):
        yield f"double-star classes random n={n}", gen_random_pointset(n, seed=n), double_star_partition
    for n in (40, 60) + ((100,) if heavy else ()):
        yield f"family classes random n={n}", gen_random_pointset(n, seed=n), lambda p: crossing_family_partition(p, 3)[0]


@contextmanager
def clique_kernel(kernels, spent: list[int] | None = None):
    """`_native.max_clique`, which the verifiers call, set to the kernels' one for the block.

    With `spent`, the nodes of each call go on it.
    """
    saved = _native.max_clique

    def counted(*args, **kwargs):
        result = kernels.max_clique(*args, **kwargs)
        spent.append(result[3])
        return result

    _native.max_clique = kernels.max_clique if spent is None else counted
    try:
        yield
    finally:
        _native.max_clique = saved


def run_one(fn, args, kwargs, repeat: int) -> tuple:
    best = float("inf")
    result = None
    for _ in range(repeat):
        t = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t)
    return result, best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="timing repetitions, best-of (default 3)")
    parser.add_argument("--heavy", action="store_true", help="include the larger workloads")
    args = parser.parse_args()

    probe = load_probe()
    if compiled is None:
        print("compiled kernel not built; timing the pure-Python implementation only")
    fmt = table(f"{'workload':<38} {'size':>5} {'nodes':>9} {'python':>18} {'compiled':>18} {'speedup':>8}", probe)
    for label, op, wargs, wkwargs in list(clique_workloads(args.heavy)) + list(subset_workloads(args.heavy)):
        py_result, py_time = run_one(getattr(_kernels_py, op), wargs, wkwargs, args.repeat)
        if compiled is not None:
            c_result, c_time = run_one(getattr(compiled, op), wargs, wkwargs, args.repeat)
            if (py_result[0], py_result[3]) != (c_result[0], c_result[3]):
                raise SystemExit(f"implementations disagree on {label}: {py_result} vs {c_result}")
            speedup = f"{py_time / c_time:8.1f}x" if c_time > 0 else "     inf"
            c_ms = fmt(c_time)
        else:
            speedup, c_ms = "       -", f"{'-':>18}"
        print(f"{label:<38} {py_result[0]:>5} {py_result[3]:>9} {fmt(py_time)} {c_ms} {speedup}")

    fmt = table(f"{'crossing layer':<38} {'crossings':>9} {'python':>18}", probe)
    complete = [(n, "random", all_edges(n)) for n in (24, 32, 40, 60) + ((100,) if args.heavy else ())]
    stars = [(n, "star", [Edge(0, w) for w in range(1, n)]) for n in (40, 100)]
    for n, shape, edges in complete + stars:
        points = gen_random_pointset(n, seed=n)
        want = sum(points.edges_cross(e, f) for i, e in enumerate(edges) for f in edges[i + 1 :])
        masks, t = run_one(crossing_masks, (points, edges), {}, args.repeat)
        got = sum(m.bit_count() for m in masks) // 2
        if got != want:
            raise SystemExit(f"crossing_masks counts {got} crossings on {shape} n={n}, edges_cross {want}")
        print(f"{f'crossing masks {shape} n={n} E={len(edges)}':<38} {got:>9} {fmt(t)}")
    for n in (24, 32, 40, 60):
        edges = all_edges(n)
        masks, t = run_one(crossing_masks, (n, edges), {}, args.repeat)
        got = sum(m.bit_count() for m in masks) // 2
        if got != comb(n, 4):
            raise SystemExit(f"crossing_masks counts {got} crossings on convex n={n}, C(n, 4) = {comb(n, 4)}")
        print(f"{f'crossing masks convex n={n} E={len(edges)}':<38} {got:>9} {fmt(t)}")
    graphs = [(n, "random", gen_random_pointset(n, seed=n)) for n in (40, 60) + ((100,) if args.heavy else ())]
    graphs += [(n, "convex", gen_convex_polygon(n, seed=n)) for n in (40, 60)]
    for n, shape, points in graphs:
        (edges, masks, _), t = run_one(build_crossing_graph, (points,), {}, args.repeat)
        degree = {e: m.bit_count() for e, m in zip(edges, masks)}
        if masks != crossing_masks(points, edges):
            raise SystemExit(f"build_crossing_graph on {shape} n={n}: masks differ from crossing_masks")
        if edges != sorted(all_edges(n), key=lambda e: (-degree[e], e)):
            raise SystemExit(f"build_crossing_graph on {shape} n={n}: edges not in descending degree order")
        got = sum(degree.values()) // 2
        print(f"{f'crossing graph {shape} n={n}':<38} {got:>9} {fmt(t)}")

    fmt = table(f"{'extremal oracle':<38} {'size':>5} {'nodes':>9} {_native.IMPLEMENTATION:>18}", probe)
    for n, k in ((9, 4), (10, 2), (11, 2), (11, 3), (12, 1), (12, 2)):
        result, t = run_one(max_k_plane_subgraph, (n, k), {}, args.repeat)
        print(f"{f'max_k_plane_subgraph n={n} k={k}':<38} {result.size:>5} {result.nodes:>9} {fmt(t)}")

    header = f"{'maximum crossing family':<38} {'size':>5} {'proven':>6} {'nodes':>9} {_native.IMPLEMENTATION:>18}"
    fmt = table(header, probe)
    for n, seed, want in family_workloads(args.heavy):
        points = gen_random_pointset(n, seed=seed)
        family, t = run_one(max_crossing_family, (points,), {}, args.repeat)
        if not family.proven_maximum or family.size != want:
            raise SystemExit(f"max_crossing_family on random n={n} seed={seed}: {family}, expected {want} proven")
        edges, masks, _ = build_crossing_graph(points)
        members = _native.max_clique(masks, target=want, floor_size=want - 1)[1]
        if family.edges != tuple(sorted(edges[i] for i in members)):
            raise SystemExit(f"max_crossing_family on random n={n} seed={seed} differs from the unrestricted search")
        label = f"max_crossing_family random n={n} s={seed}"
        print(f"{label:<38} {family.size:>5} {'yes':>6} {family.nodes:>9} {fmt(t)}")

    fmt = table(f"{'colorings and file I/O':<38} {'bytes':>9} {'python':>18}", probe)
    for n in (400, 1000):
        tracemalloc.start()
        gen_random_pointset(n)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        points, t = run_one(gen_random_pointset, (n,), {}, args.repeat)
        if points.n != n:
            raise SystemExit(f"gen_random_pointset({n}) drew {points.n} points")
        print(f"{f'gen_random_pointset n={n}':<38} {peak / 2**20:7.2f}MB {fmt(t)}")
    slopes = {}
    for n in (40, 100, 200):
        slopes[n], t = run_one(slope_partition, (n, 3), {}, args.repeat)
        print(f"{f'slope_partition convex n={n} s=3':<38} {'-':>9} {fmt(t)}")
    for n in (40, 100):
        coloring, t = run_one(double_star_partition, (gen_random_pointset(n, seed=n),), {}, args.repeat)
        sizes = [len(edges) for edges in coloring.classes().values()]
        if coloring.num_colors != n // 2 or sizes != [n - 1] * (n // 2):
            raise SystemExit(f"double_star_partition on random n={n}: class sizes {sizes}")
        print(f"{f'double_star_partition random n={n}':<38} {'-':>9} {fmt(t)}")
    for n, coloring in slopes.items():
        text, t_write = run_one(write_coloring, (coloring,), {}, args.repeat)
        parsed, t_parse = run_one(parse_coloring, (text,), {}, args.repeat)
        if parsed != coloring or write_coloring(parsed) != text:
            raise SystemExit(f"coloring of slope n={n} does not survive its round trip")
        print(f"{f'write_coloring slope n={n}':<38} {len(text):>9} {fmt(t_write)}")
        print(f"{f'parse_coloring slope n={n}':<38} {len(text):>9} {fmt(t_parse)}")
    for n in (40, 100):
        instance = Instance(gen_random_pointset(n, seed=n))
        text, t_write = run_one(write_instance, (instance,), {}, args.repeat)
        parsed, t_parse = run_one(parse_instance, (text,), {}, args.repeat)
        if parsed != instance or write_instance(parsed) != text:
            raise SystemExit(f"instance of random n={n} does not survive its round trip")
        print(f"{f'write_instance random n={n}':<38} {len(text):>9} {fmt(t_write)}")
        print(f"{f'parse_instance random n={n}':<38} {len(text):>9} {fmt(t_parse)}")

    header = f"{'existence checks k=3':<38} {'certified':>9} {'searched':>8} {'nodes':>9} {'peak':>8} {'python':>18} {'compiled':>18}"
    fmt = table(header, probe)
    for label, points, partition in existence_workloads(args.heavy):
        classes = list(partition(points).classes().values())
        spent: list[int] = []  # nodes of each class search, from one check outside the timing
        with clique_kernel(_kernels_py, spent):
            tracemalloc.start()
            is_k_quasi_planar(points, classes, 3)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        times = []
        for kernels in (_kernels_py, compiled) if compiled is not None else (_kernels_py,):
            with clique_kernel(kernels):
                verdict, t = run_one(is_k_quasi_planar, (points, classes, 3), {}, args.repeat)
            if not verdict:
                raise SystemExit(f"is_k_quasi_planar on {label} found {verdict.witness} in class {verdict.index}")
            times.append(fmt(t))
        if compiled is None:
            times.append(f"{'-':>18}")
        counts = f"{len(classes) - len(spent):>9} {len(spent):>8} {sum(spent):>9}"
        print(f"{label:<38} {counts} {peak / 2**20:6.1f}MB {' '.join(times)}")


if __name__ == "__main__":
    main()
