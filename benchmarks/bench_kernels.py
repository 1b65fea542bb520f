"""Compare the compiled search kernels against the pure-Python fallback.

Workloads: maximum-clique searches on crossing graphs and dense random
graphs, and the crossing-bounded subset search on the diagonals of convex
polygons (the extremal-subgraph oracle's inner loop). Both
implementations must return identical sizes and node counts; the table
reports wall times and speedups.

Usage: python3 benchmarks/bench_kernels.py [--repeat N] [--heavy]
"""

from __future__ import annotations

import argparse
import random
import time

from beyondplanar import _kernels_py
from beyondplanar.bounds import _skip
from beyondplanar.crossings import crossing_masks
from beyondplanar.geometry import all_edges, gen_random_pointset
from beyondplanar.quasiplanar import build_crossing_graph

try:
    from beyondplanar import _kernels
except ImportError:
    _kernels = None


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
    diagonals = sorted((e for e in all_edges(n) if _skip(n, e) >= 2), key=lambda e: (_skip(n, e), e))
    return crossing_masks(n, diagonals)


def clique_workloads(heavy: bool):
    crossing = build_crossing_graph(gen_random_pointset(22, seed=1))
    yield f"clique crossing-graph n=22 V={crossing.num_vertices}", "max_clique", (list(crossing.masks),), {}
    yield "clique random V=120 p=0.8", "max_clique", (random_graph(120, 0.8, seed=7),), {}
    yield "clique random V=150 p=0.7", "max_clique", (random_graph(150, 0.7, seed=7),), {}
    if heavy:
        yield "clique random V=170 p=0.8", "max_clique", (random_graph(170, 0.8, seed=7),), {}


def subset_workloads(heavy: bool):
    for n, k in ((9, 2), (9, 4), (10, 2)):
        yield f"subset convex diagonals n={n} k={k}", "max_conflict_bounded_set", (diagonal_conflicts(n),), {"k": k}
    if heavy:
        yield "subset convex diagonals n=10 k=3", "max_conflict_bounded_set", (diagonal_conflicts(10),), {"k": 3}


def run_one(impl, op: str, args, kwargs, repeat: int) -> tuple[tuple, float]:
    fn = getattr(impl, op)
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

    if _kernels is None:
        print("compiled kernel not built; timing the pure-Python implementation only")
    header = f"{'workload':<38} {'size':>5} {'nodes':>9} {'python':>9} {'compiled':>9} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for label, op, wargs, wkwargs in list(clique_workloads(args.heavy)) + list(subset_workloads(args.heavy)):
        py_result, py_time = run_one(_kernels_py, op, wargs, wkwargs, args.repeat)
        if _kernels is not None:
            c_result, c_time = run_one(_kernels, op, wargs, wkwargs, args.repeat)
            if (py_result[0], py_result[3]) != (c_result[0], c_result[3]):
                raise SystemExit(f"implementations disagree on {label}: {py_result} vs {c_result}")
            speedup = f"{py_time / c_time:8.1f}x" if c_time > 0 else "     inf"
            compiled = f"{c_time * 1000:7.1f}ms"
        else:
            speedup, compiled = "       -", "        -"
        print(f"{label:<38} {py_result[0]:>5} {py_result[3]:>9} {py_time * 1000:7.1f}ms {compiled} {speedup}")


if __name__ == "__main__":
    main()
