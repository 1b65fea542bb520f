"""Cross-module properties: round trips, monotonicity, certificate soundness."""

import io
import os
import random
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import naive_crossing_masks, naive_edge_depths

from beyondplanar.cli import cli_dispatch
from beyondplanar.coloring import Coloring
from beyondplanar.convex import slope_partition, verify_k_planar
from beyondplanar.crossings import build_crossing_graph, crossing_masks
from beyondplanar.fileio import Instance, parse_coloring, parse_instance, write_coloring, write_instance
from beyondplanar.geometry import (
    COORD_LIMIT,
    Edge,
    PointSet,
    all_edges,
    gen_convex_polygon,
    gen_perfect_crossing_family_pointset,
    gen_random_pointset,
)
from beyondplanar.quasiplanar import (
    check_pairwise_crossing,
    crossing_family_partition,
    double_star_partition,
    halving_line_partition,
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
    size = n * (n - 1) // 2
    return Coloring(n, c, draw(st.lists(st.integers(min_value=0, max_value=c - 1), min_size=size, max_size=size)))


class TestFileRoundTrips:
    @given(point_sets())
    @settings(max_examples=60)
    def test_instance_round_trip(self, points):
        text = write_instance(Instance(points))
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

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_accepted_coloring_reads_back(self, n, c, data):
        # In-range colors with up to two replaced by a value of any type:
        # the constructor accepts exactly the plain ints in range, and the
        # file of every coloring it accepts reads back as that coloring.
        size = n * (n - 1) // 2
        colors = data.draw(st.lists(st.integers(min_value=0, max_value=c - 1), min_size=size, max_size=size))
        anything = st.one_of(st.integers(-2, c + 1), st.booleans(), st.floats(), st.text(max_size=3), st.none())
        for i in data.draw(st.lists(st.integers(min_value=0, max_value=size - 1), max_size=2)):
            colors[i] = data.draw(anything)
        accepted = all(type(x) is int and 0 <= x < c for x in colors)
        try:
            coloring = Coloring(n, c, colors)
        except (TypeError, ValueError):
            assert not accepted
            return
        assert accepted
        assert parse_coloring(write_coloring(coloring)) == coloring


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
        if is_k_quasi_planar(points, [edges], k).ok:
            assert is_k_quasi_planar(points, [edges], k + 1).ok

    @given(point_sets(min_n=6, max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_witness_is_a_crossing_family_of_size_k(self, points):
        result = is_k_quasi_planar(points, [all_edges(points.n)], 3)
        if not result.ok:
            assert len(result.witness) == 3
            assert check_pairwise_crossing(points, result.witness)


class TestMaxCrossingFamily:
    @given(point_sets(min_n=4, max_n=9))
    @settings(max_examples=40, deadline=None)
    def test_certificate_is_a_proven_matching(self, points):
        family = max_crossing_family(points)
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
        family = max_crossing_family(points)
        depth = dict(zip(all_edges(points.n), naive_edge_depths(points)))
        assert all(depth[e] >= family.size - 1 for e in family.edges)

    @given(st.integers(min_value=4, max_value=12), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_size_is_seed_independent_of_edge_order(self, n, seed):
        points = gen_random_pointset(n, seed=seed)
        family = max_crossing_family(points)
        assert max_crossing_family(PointSet(list(points)[::-1])).size == family.size


class TestSlopePartition:
    @given(st.integers(min_value=3, max_value=40), st.data())
    @settings(max_examples=40, deadline=None)
    def test_totality_color_count_and_planarity(self, n, data):
        s = data.draw(st.integers(min_value=3, max_value=n), label="s")
        coloring = slope_partition(n, s)
        assert coloring.num_colors == -(-n // s)
        k = (s - 1) * (s - 2) // 2
        for edges in coloring.classes().values():
            assert verify_k_planar(n, [edges], k).ok

    @given(st.integers(min_value=5, max_value=40))
    @settings(max_examples=36)
    def test_classes_partition_all_edges(self, n):
        coloring = slope_partition(n, 3)
        union = [e for cls in coloring.classes().values() for e in cls]
        assert sorted(union) == list(all_edges(n))


# Integer maps that keep the order type: unimodular maps (a reflection
# flips every orientation at once, which no crossing notices), a
# translation and a scaling. Every image of a generated set stays within
# COORD_LIMIT.
ORDER_TYPE_MAPS = {
    "reflection": lambda x, y: (-x, y),
    "axis-swap": lambda x, y: (y, x),
    "rotation-90": lambda x, y: (-y, x),
    "shear-x": lambda x, y: (x + 7 * y, y),
    "shear-y": lambda x, y: (x, y - 3 * x),
    "translation": lambda x, y: (x + 10**8 + 1, y - 10**8 - 3),
    "scaling": lambda x, y: (512 * x, 512 * y),
}


# Elementary integer maps of determinant +/-1, by name, as (a, b, c, d) for
# (x, y) -> (ax + by, cx + dy) given a shear factor. Random sets and
# parabola sets of up to 1000 points span at most 10^6 on each axis, so a
# row sum |a| + |b| of at most MAX_ROW_SUM keeps their images within a
# span of 10^9, below COORD_LIMIT = 2^30.
ELEMENTARY_MAPS = {
    "shear-x": lambda s: (1, s, 0, 1),
    "shear-y": lambda s: (1, 0, s, 1),
    "axis-swap": lambda s: (0, 1, 1, 0),
    "reflection": lambda s: (-1, 0, 0, 1),
}
MAX_ROW_SUM = 1000


@st.composite
def unimodular_maps(draw):
    """A product of up to five elementary maps, each kept only while every row sum stays within MAX_ROW_SUM."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        p, q, r, t = ELEMENTARY_MAPS[draw(st.sampled_from(sorted(ELEMENTARY_MAPS)))](draw(st.integers(-40, 40)))
        product = (p * a + q * c, p * b + q * d, r * a + t * c, r * b + t * d)
        if max(abs(product[0]) + abs(product[1]), abs(product[2]) + abs(product[3])) <= MAX_ROW_SUM:
            a, b, c, d = product
    return a, b, c, d


def _crossing_structure(points, relabel):
    """(edges crossed, depth) of each edge of K(P), every edge renamed by `relabel`."""
    edges, masks, depths = build_crossing_graph(points)
    named = [relabel(e) for e in edges]
    crossed = [{named[j] for j, bit in enumerate(reversed(f"{mask:b}")) if bit == "1"} for mask in masks]
    return dict(zip(named, crossed)), dict(zip(named, depths))


class TestOrderTypeInvariance:
    """Every verdict depends only on the order type, whatever the coordinates and the index order.

    Node counts and which family is chosen may change, since ties break
    by edge index, so they are not compared.
    """

    @pytest.mark.parametrize("name", ORDER_TYPE_MAPS)
    @pytest.mark.parametrize("kind", ["random", "convex"])
    def test_a_map_and_a_relabelling_keep_every_verdict(self, name, kind):
        generate = gen_random_pointset if kind == "random" else gen_convex_polygon
        for n in (8, 13, 20, 30):
            for seed in range(3):
                points = generate(n, seed)
                rng = random.Random(f"order-type:{name}:{kind}:{n}:{seed}")
                new_index = rng.sample(range(n), n)  # point i becomes point new_index[i]
                image = [None] * n
                for i, p in enumerate(points):
                    image[new_index[i]] = ORDER_TYPE_MAPS[name](p.x, p.y)
                mapped = PointSet(image)
                assert max(max(abs(p.x), abs(p.y)) for p in mapped) <= COORD_LIMIT

                def relabel(e):
                    return Edge.of(new_index[e.u], new_index[e.v])

                assert _crossing_structure(mapped, lambda e: e) == _crossing_structure(points, relabel)
                family, mapped_family = max_crossing_family(points), max_crossing_family(mapped)
                assert (mapped_family.size, mapped_family.proven_maximum) == (family.size, family.proven_maximum)
                partition = crossing_family_partition(points, 3)[0]
                assert crossing_family_partition(mapped, 3)[0].num_colors == partition.num_colors
                colorings = [partition, double_star_partition(points)] if n % 2 == 0 else [partition]
                # A class of every edge, then the partitions' classes.
                for classes in [[all_edges(n)]] + [list(c.classes().values()) for c in colorings]:
                    want = is_k_quasi_planar(points, classes, 3).ok
                    assert is_k_quasi_planar(mapped, [[relabel(e) for e in c] for c in classes], 3).ok == want

    @given(
        st.sampled_from(["random", "convex", "family"]),
        st.integers(min_value=3, max_value=13),
        st.integers(min_value=0, max_value=2**16),
        unimodular_maps(),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_drawn_maps_near_the_coordinate_limit_keep_every_verdict(self, kind, n, seed, matrix, data):
        """A drawn unimodular map and translation put the largest coordinate within a factor of 2 of COORD_LIMIT.

        The sets are random ones and parabola ones: convex in clockwise
        index order, or the crossing-family generator's, with its family.
        """
        family = []
        if kind == "random":
            points = gen_random_pointset(n, seed)
        elif kind == "convex":
            points = gen_convex_polygon(n, seed)
        else:
            points, family = gen_perfect_crossing_family_pointset(n // 2, seed)
        n = points.n
        a, b, c, d = matrix
        image = [(a * p.x + b * p.y, c * p.x + d * p.y) for p in points]
        axes = []
        for values in zip(*image):
            # The extreme coordinate on a drawn side of this axis lands on a drawn target.
            target = data.draw(st.integers(min_value=COORD_LIMIT // 2, max_value=COORD_LIMIT), label="target")
            shift = target - max(values) if data.draw(st.booleans(), label="positive") else -target - min(values)
            axes.append([v + shift for v in values])
        new_index = data.draw(st.permutations(range(n)), label="new_index")  # point i becomes point new_index[i]
        placed = [None] * n
        for i, p in enumerate(zip(*axes)):
            placed[new_index[i]] = p
        mapped = PointSet(placed)
        assert COORD_LIMIT // 2 <= max(max(abs(p.x), abs(p.y)) for p in mapped) <= COORD_LIMIT

        def relabel(e):
            return Edge.of(new_index[e.u], new_index[e.v])

        assert _crossing_structure(mapped, lambda e: e) == _crossing_structure(points, relabel)
        best, mapped_best = max_crossing_family(points), max_crossing_family(mapped)
        assert (mapped_best.size, mapped_best.proven_maximum) == (best.size, best.proven_maximum)
        colorings = []
        for k in (3, 4):
            partition = crossing_family_partition(points, k)[0]
            assert crossing_family_partition(mapped, k)[0].num_colors == partition.num_colors
            colorings.append(partition)
        if family:
            halving = halving_line_partition(points, family, 3)
            assert halving_line_partition(mapped, [relabel(e) for e in family], 3).num_colors == halving.num_colors
            colorings.append(halving)
        if n % 2 == 0:
            colorings.append(double_star_partition(points))
        for classes in [[all_edges(n)]] + [list(c.classes().values()) for c in colorings]:
            mapped_classes = [[relabel(e) for e in c] for c in classes]
            for k in (3, 4):
                assert is_k_quasi_planar(mapped, mapped_classes, k).ok == is_k_quasi_planar(points, classes, k).ok
            assert verify_k_planar(mapped, mapped_classes, 1).ok == verify_k_planar(points, classes, 1).ok


def _mutated(draw, text):
    """The text as is, or with one or two lines dropped, duplicated, or given an out-of-range or non-integer token."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(min_value=1, max_value=2)) if draw(st.booleans()) else 0):
        if not lines:
            break
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "out-of-range", "non-integer"]))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            parts = lines[i].split() or [""]
            j = draw(st.integers(min_value=0, max_value=len(parts) - 1))
            bad = [-1, 99, 2**31] if op == "out-of-range" else ["x", "1.5", ""]
            parts[j] = str(draw(st.sampled_from(bad)))
            lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


@st.composite
def cli_files(draw):
    """(instance text, coloring text) over n <= 8 points, each possibly mutated."""
    n = draw(st.integers(min_value=2, max_value=8))
    kind = draw(st.sampled_from(["convex", "random", "family"]))
    seed = draw(st.integers(min_value=0, max_value=3))
    if kind == "convex" and n >= 3:
        instance = Instance(gen_convex_polygon(n, seed))
    elif kind == "family" and n % 2 == 0:
        points, family = gen_perfect_crossing_family_pointset(n // 2, seed)
        instance = Instance(points, tuple(family))
    else:
        instance = Instance(gen_random_pointset(n, seed))
    c = draw(st.integers(min_value=1, max_value=4))
    coloring = Coloring(n, c, [draw(st.integers(min_value=0, max_value=c - 1)) for _ in all_edges(n)])
    return _mutated(draw, write_instance(instance)), _mutated(draw, write_coloring(coloring))


FAIL_KPLANAR = re.compile(r"FAIL kplanar class=(\d+) edge=(\d+)-(\d+) crossings=(\d+) limit=(-?\d+)")
FAIL_QUASIPLANAR = re.compile(r"FAIL quasiplanar class=(\d+) k=(\d+) witness=(\S+)")


# (command, exit code, stderr prefix, stdout line) for values at and past
# each flag's bound. {convex} and {random} are instances on 8 and 10
# points, {coloring} is the slope partition of {convex} with s = 3
# (1-planar), and {eN} is 10**N, far past any machine integer. A nonempty
# stdout line must be one of the output's lines.
FLAG_VALUES = [
    ("partition slope --in {convex} --s 0", 2, "error: s >= 1 required, got 0", ""),
    ("partition slope --in {convex} --s -1", 2, "error: s >= 1 required, got -1", ""),
    ("partition family --in {random} --k 0", 2, "error: k >= 3 required, got 0", ""),
    ("partition family --in {random} --k 1", 2, "error: k >= 3 required, got 1", ""),
    ("partition family --in {random} --k -2", 2, "error: k >= 3 required, got -2", ""),
    ("verify kplanar --in {coloring} --k 0", 1, "", ""),
    ("verify kplanar --in {coloring} --k 1", 0, "", ""),
    ("verify kplanar --in {coloring} --k -2", 2, "error: k >= 0 required, got -2", ""),
    ("verify quasiplanar --in {coloring} --k 0", 2, "error: quasiplanar verification requires k >= 2", ""),
    ("verify quasiplanar --in {coloring} --k 1", 2, "error: quasiplanar verification requires k >= 2", ""),
    ("verify quasiplanar --in {coloring} --k -2", 2, "error: quasiplanar verification requires k >= 2", ""),
    ("bounds --n 8 --k 0", 0, "", ""),
    ("bounds --n 8 --k 1", 0, "", ""),
    ("bounds --n 8 --k -2", 2, "error: --k must be nonnegative, got -2", ""),
    ("gen convex --n 0", 2, "error: --n must be positive, got 0", ""),
    ("gen convex --n 2", 2, "error: a convex polygon needs n >= 3, got 2", ""),
    ("gen random --n 2", 0, "", ""),
    ("gen convex --n 1000000000", 2, "error: at most 32768 points fit on y = x^2 within +/-1073741824, got 1000000000 points", ""),
    ("gen crossing-family --n 1000000000", 2, "error: at most 32768 points fit on y = x^2 within +/-1073741824, got 2000000000 points", ""),
    ("bounds --n 0", 2, "error: --n must be at least 3, got 0", ""),
    ("bounds --n 2", 2, "error: --n must be at least 3, got 2", ""),
    ("partition family --in {random} --k 3 --budget 0", 2, "error: --budget must be positive, got 0", ""),
    ("partition slope --in {convex} --s 3 --budget -1", 2, "error: --budget must be positive, got -1", ""),
    ("verify quasiplanar --in {coloring} --k 3 --budget 0", 2, "error: --budget must be positive, got 0", ""),
    ("verify kplanar --in {coloring} --k 1 --budget -1", 2, "error: --budget must be positive, got -1", ""),
    ("verify quasiplanar --in {coloring} --k 3 --budget 1", 2, "error: existence search for 3 pairwise", ""),
    ("partition slope --in {convex} --s {e30} --out {coloring}", 0, "", "coloring mode=slope n=8 colors=1 out={coloring}"),
    ("verify kplanar --in {coloring} --k {e29}", 0, "", "verified kplanar k={e29} n=8 classes=3"),
    ("verify quasiplanar --in {coloring} --k {e29} --budget {e29}", 0, "", "verified quasiplanar k={e29} n=8 classes=3"),
    ("bounds --n 100000 --k {e32}", 0, "", "kplanar-colors           n=100000 k={e32}         [1, 1]              - ok"),
]


class TestCliBoundary:
    @pytest.mark.parametrize("command, rc, err, out", FLAG_VALUES, ids=[f"{c}-{r}-{e}" for c, r, e, _ in FLAG_VALUES])
    def test_flag_values(self, tmp_path, capsys, command, rc, err, out):
        files = {name: str(tmp_path / f"{name}.txt") for name in ("convex", "random", "coloring")}
        values = {**files, "e29": 10**29, "e30": 10**30, "e32": 10**32}
        for setup in (
            "gen convex --n 8 --out {convex}",
            "gen random --n 10 --seed 1 --out {random}",
            "partition slope --s 3 --in {convex} --out {coloring}",
        ):
            assert cli_dispatch(setup.format(**files).split()) == 0
        capsys.readouterr()
        assert cli_dispatch(command.format(**values).split()) == rc
        stdout, stderr = capsys.readouterr()
        assert stderr.startswith(err) and (stderr == "") == (err == "")
        assert out == "" or out.format(**values) in stdout.splitlines()

    @given(cli_files(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_every_command_exits_cleanly_with_checkable_witnesses(self, files, data):
        inst_text, col_text = files
        planar_k = data.draw(st.integers(min_value=0, max_value=3), label="planar_k")
        k = data.draw(st.integers(min_value=2, max_value=4), label="k")
        s = data.draw(st.integers(min_value=1, max_value=4), label="s")
        with tempfile.TemporaryDirectory() as tmp:
            names = ("inst.txt", "col.txt", "fig.svg", "part.txt")
            inst, col, svg, part = (os.path.join(tmp, name) for name in names)
            with open(inst, "w") as fh:
                fh.write(inst_text)
            with open(col, "w") as fh:
                fh.write(col_text)
            commands = [
                ["verify", mode, "--in", col, "--k", str(mode_k)] + extra
                for mode, mode_k in (("kplanar", planar_k), ("quasiplanar", k))
                for extra in ([], ["--instance", inst])
            ]
            commands += [
                ["render", "--in", inst, "--coloring", col, "--out", svg],
                ["partition", "family", "--in", inst, "--k", str(k)],
                ["partition", "halving", "--in", inst, "--k", str(k)],
                ["partition", "doublestar", "--in", inst],
                ["partition", "slope", "--in", inst, "--s", str(s)],
            ]
            for argv in commands:
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    rc = cli_dispatch(argv)
                assert rc in (0, 1, 2), argv
                if rc == 1 and argv[0] == "verify":
                    self._recheck(out.getvalue(), inst_text, col_text, "--instance" in argv)
            # A partition that succeeds meets the k its construction guarantees.
            guarantees = [
                (["family", "--k", str(k)], "quasiplanar", k),
                (["halving", "--k", str(k)], "quasiplanar", k),
                (["doublestar"], "quasiplanar", 3),
                (["slope", "--s", str(s)], "kplanar", (s - 1) * (s - 2) // 2),
            ]
            for flags, mode, guaranteed_k in guarantees:
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    if cli_dispatch(["partition", *flags, "--in", inst, "--out", part]) == 0:
                        argv = ["verify", mode, "--in", part, "--k", str(guaranteed_k), "--instance", inst]
                        assert cli_dispatch(argv) == 0, (flags, out.getvalue())

    @staticmethod
    def _recheck(line, inst_text, col_text, with_instance):
        # Without an instance the points are convex in index order, which
        # gen_convex_polygon realizes.
        coloring = parse_coloring(col_text)
        classes = coloring.classes()
        points = parse_instance(inst_text).points if with_instance else gen_convex_polygon(coloring.n, 0)
        if match := FAIL_KPLANAR.fullmatch(line.strip()):
            color, u, v, crossings, limit = map(int, match.groups())
            edge = Edge(u, v)
            recount = sum(points.edges_cross(edge, f) for f in classes[color])
            assert edge in classes[color] and recount == crossings > limit
        else:
            match = FAIL_QUASIPLANAR.fullmatch(line.strip())
            assert match, line
            color, k = int(match[1]), int(match[2])
            witness = [Edge(*map(int, pair.split("-"))) for pair in match[3].split(",")]
            assert len(witness) == k and set(witness) <= set(classes[color])
            assert check_pairwise_crossing(points, witness)
