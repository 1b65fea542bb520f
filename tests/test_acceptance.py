"""Acceptance gate: one test per guaranteed behavior, exact tolerances.

Each test prints a single pass line (visible with -s; pytest -v shows one
PASSED/FAILED row per criterion either way) and enforces the stated time
budget with a wall-clock assertion.
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from beyondplanar.bounds import (
    count_crossings,
    crossing_lemma_bound,
    edge_bound_small_k,
    max_k_plane_subgraph,
    one_planar_lower_bound,
    peeling_bound,
    quasi_color_bounds,
)
from beyondplanar.convex import (
    convex_edges_cross,
    count_convex_crossings,
    position_crossing_cap,
    slope_partition,
    slope_position,
    verify_k_planar,
)
from beyondplanar.crossings import crossing_masks
from beyondplanar.geometry import (
    all_edges,
    gen_convex_polygon,
    gen_perfect_crossing_family_pointset,
    gen_random_pointset,
)
from beyondplanar.quasiplanar import (
    build_crossing_graph,
    crossing_family_partition,
    double_star_partition,
    halving_line_partition,
    is_k_quasi_planar,
    max_crossing_family,
    verify_partition,
    verify_spanning_tree,
)
from oracles import naive_convex_crossings, naive_max_clique_enum


def _done(num: int, label: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.2f}s"
    print(f"criterion {num:2d} PASS {label} ({elapsed:.2f}s)")


def test_criterion_01_slope_pipeline_one_planar():
    started = time.monotonic()
    for n in range(5, 31):
        coloring = slope_partition(n, 3)
        assert coloring.num_colors == -(-n // 3)
        for edges in coloring.classes():
            assert verify_k_planar(n, edges, 1).ok
        assert one_planar_lower_bound(n) == -(-n // 3)
    _done(1, "slope partition s=3 is 1-planar in exactly ceil(n/3) classes", started, 1.0)


def test_criterion_02_slope_blocks_with_position_refinement():
    started = time.monotonic()
    for n in range(5, 21):
        for s in range(3, n + 1):
            coloring = slope_partition(n, s)
            k = (s - 1) * (s - 2) // 2
            for edges in coloring.classes():
                assert verify_k_planar(n, edges, k).ok
                for e, mask in zip(edges, crossing_masks(n, edges)):
                    j = slope_position(n, s, e)
                    assert mask.bit_count() <= position_crossing_cap(s, j) <= k
    _done(2, "every slope class meets (s-1)(s-2)/2 and the per-position cap", started, 10.0)


def test_criterion_03_extremal_oracle_within_edge_formula():
    started = time.monotonic()
    for n in range(4, 10):
        for k in range(5):
            result = max_k_plane_subgraph(n, k)
            assert result.proven
            bound = edge_bound_small_k(n, k)
            assert result.size <= math.floor(bound)
            if k == 0:
                assert result.size == 2 * n - 3
            if (n, k) == (5, 2):
                assert result.size == 10 == bound
    _done(3, "max k-plane subgraph stays within (k+4)/2*n-(k+3), tight cases met", started, 60.0)


def test_criterion_04_crossing_counts_dominate_lower_bounds():
    started = time.monotonic()
    for i in range(200):
        rng = random.Random(f"acceptance4:{i}")
        n = rng.randrange(10, 13)
        edges_all = list(all_edges(n))
        e = rng.randint(math.ceil(4.5 * n), len(edges_all))
        edges = rng.sample(edges_all, e)
        cr = count_crossings(n, edges)
        assert Fraction(cr) >= crossing_lemma_bound(n, e)
        assert cr >= peeling_bound(n, e)
    for n in range(4, 13):
        assert count_crossings(n) == math.comb(n, 4) == naive_convex_crossings(n)
    _done(4, "observed crossings dominate the lemma and peeling bounds", started, 5.0)


def test_criterion_05_kplane_classes_double_counting():
    started = time.monotonic()
    checked = 0
    # Every verified convex k-plane class the suite produces: slope classes
    # over the full grid and every extremal-oracle witness.
    for n in range(5, 21):
        for s in range(3, n + 1):
            k = (s - 1) * (s - 2) // 2
            for edges in slope_partition(n, s).classes():
                assert verify_k_planar(n, edges, k).ok
                cr = count_convex_crossings(n, edges)
                assert 2 * cr <= k * len(edges)
                checked += 1
    for n in range(4, 10):
        for k in range(5):
            result = max_k_plane_subgraph(n, k)
            assert verify_k_planar(n, result.edges, k).ok
            cr = count_convex_crossings(n, result.edges)
            assert 2 * cr <= k * result.size
            checked += 1
    assert checked > 400
    _done(5, f"2*crossings <= k*edges on {checked} verified k-plane classes", started, 30.0)


def test_criterion_06_double_star_decompositions():
    started = time.monotonic()
    sizes = list(range(4, 21, 2))
    for i in range(50):
        two_n = sizes[i % len(sizes)]
        points = gen_random_pointset(two_n, seed=1000 + i)
        decomposition = double_star_partition(points)
        assert decomposition.n == two_n // 2
        assert len(decomposition.trees) == two_n // 2
        seen = []
        for tree in decomposition.trees:
            assert verify_spanning_tree(points, tree)
            assert is_k_quasi_planar(points, tree, 3).ok
            seen.extend(tree)
        assert len(seen) == len(set(seen)) == two_n * (two_n - 1) // 2
        assert sorted(seen) == list(all_edges(two_n))
    _done(6, "double stars: spanning, 3-quasi-planar, edge-disjoint, exhaustive", started, 10.0)


def test_criterion_07_halving_partition_color_optimal():
    started = time.monotonic()
    for n in range(2, 9):
        for k in range(3, n + 2):
            points, family = gen_perfect_crossing_family_pointset(n, seed=17 * n + k)
            coloring = halving_line_partition(points, family, k)
            c = -(-n // (k - 1))
            assert coloring.num_colors == c
            classes = coloring.classes()
            assert all(classes), "every color class must be nonempty"
            for edges in classes:
                assert is_k_quasi_planar(points, edges, k).ok
            assert verify_partition(points, coloring)
            found = max_crossing_family(build_crossing_graph(points), points=points)
            assert found.proven_maximum and found.size == n
    _done(7, "halving partition meets ceil(m/(k-1)) colors with m certified", started, 30.0)


def test_criterion_08_family_partition_color_formula():
    started = time.monotonic()
    for i in range(30):
        n = 8 + (i % 7)
        k = 3 + (i % 2)
        points = gen_random_pointset(n, seed=500 + i)
        coloring, report = crossing_family_partition(points, k)
        m = report.m
        assert report.family.proven_maximum
        lower, upper = quasi_color_bounds(n, m, k)
        assert lower <= coloring.num_colors <= upper
        assert coloring.num_colors >= -(-m // (k - 1))
        for edges in coloring.classes():
            assert is_k_quasi_planar(points, edges, k).ok
        assert verify_partition(points, coloring)
    _done(8, "family-guided partition meets the two-term color formula", started, 60.0)


def test_criterion_09_family_oracle_cross_check():
    started = time.monotonic()
    for n in range(4, 9):
        points = gen_convex_polygon(n, seed=0)
        graph = build_crossing_graph(points)
        found = max_crossing_family(graph, points=points)
        naive = naive_max_clique_enum(graph.adjacent, graph.num_vertices)
        assert found.proven_maximum
        assert found.size == naive == n // 2
    _done(9, "clique search equals naive enumeration: floor(n/2) on convex sets", started, 30.0)


_DRIVER = """
import sys
from beyondplanar.cli import cli_dispatch
base = sys.argv[1]
jobs = [
    ["gen", "convex", "--n", "12", "--seed", "3", "--out", f"{base}/conv.txt"],
    ["gen", "random", "--n", "9", "--seed", "3", "--out", f"{base}/rand.txt"],
    ["gen", "crossing-family", "--n", "4", "--seed", "3", "--out", f"{base}/fam.txt"],
    ["partition", "slope", "--s", "3", "--in", f"{base}/conv.txt", "--out", f"{base}/slope.txt"],
    ["partition", "halving", "--k", "3", "--in", f"{base}/fam.txt", "--out", f"{base}/halv.txt"],
    ["render", "--in", f"{base}/conv.txt", "--coloring", f"{base}/slope.txt", "--out", f"{base}/fig.svg"],
]
for job in jobs:
    assert cli_dispatch(job) == 0, job
"""

_ARTIFACTS = ["conv.txt", "rand.txt", "fam.txt", "slope.txt", "halv.txt", "fig.svg"]


def test_criterion_10_byte_identical_reruns(tmp_path):
    started = time.monotonic()
    outputs = []
    for tag in ("first", "second"):
        base = tmp_path / tag
        base.mkdir()
        subprocess.run([sys.executable, "-c", _DRIVER, str(base)], check=True, timeout=60)
        outputs.append({name: (base / name).read_bytes() for name in _ARTIFACTS})
    for name in _ARTIFACTS:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between identical-seed runs"
    _done(10, "instance, coloring, and SVG files are byte-identical across runs", started, 60.0)
