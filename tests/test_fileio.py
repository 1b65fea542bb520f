"""Instance and coloring file formats: round trips and line-numbered errors.

The coloring reader's bulk pass is checked against its line loop: the
same coloring from the written text and from every other spelling.
"""

import ast
import random
import subprocess
import sys
from pathlib import Path

import pytest

import beyondplanar

from beyondplanar.coloring import Coloring
from beyondplanar.convex import slope_partition
from beyondplanar.fileio import (
    Instance,
    ParseError,
    _writer_form,
    parse_coloring,
    parse_instance,
    write_coloring,
    write_instance,
)
from beyondplanar.geometry import (
    Edge,
    all_edges,
    gen_convex_polygon,
    gen_perfect_crossing_family_pointset,
    gen_random_pointset,
)


class TestParseInstance:
    def test_triangle(self):
        inst = parse_instance("3\n0 0\n4 0\n1 3\n")
        assert inst.points.n == 3
        assert [(p.x, p.y) for p in inst.points] == [(0, 0), (4, 0), (1, 3)]
        assert inst.family is None

    def test_comments_and_blank_lines_ignored(self):
        text = "# instance\n3\n\n0 0  # origin\n4 0\n1 3\n"
        assert parse_instance(text).points.n == 3

    def test_collinear_triple_named(self):
        with pytest.raises(ParseError) as exc:
            parse_instance("3\n0 0\n1 1\n2 2\n")
        assert "collinear" in str(exc.value)
        assert "0" in str(exc.value) and "1" in str(exc.value) and "2" in str(exc.value)

    def test_duplicate_point_named(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_instance("3\n0 0\n4 1\n0 0\n")

    def test_empty_file(self):
        with pytest.raises(ParseError, match="empty"):
            parse_instance("")

    def test_truncated_points(self):
        with pytest.raises(ParseError, match="expected 3 points"):
            parse_instance("3\n0 0\n4 0\n")

    def test_bad_token_reports_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_instance("3\n0 0\nx 0\n1 3\n")
        assert exc.value.line_no == 3

    def test_coordinate_cap_rejected_with_line(self):
        with pytest.raises(ParseError) as exc:
            parse_instance(f"3\n0 0\n{1 << 31} 0\n1 3\n")
        assert exc.value.line_no == 3

    def test_count_must_be_positive(self):
        with pytest.raises(ParseError, match="point count"):
            parse_instance("0\n")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError, match="family"):
            parse_instance("3\n0 0\n4 0\n1 3\nextra line\n")


class TestFamilySection:
    def test_round_trip(self):
        points, family = gen_perfect_crossing_family_pointset(4, seed=9)
        text = write_instance(Instance(points, tuple(family)))
        back = parse_instance(text)
        assert back.points == points
        assert back.family == tuple(sorted(family))
        assert write_instance(back) == text

    def test_family_count_mismatch(self):
        points, family = gen_perfect_crossing_family_pointset(2, seed=0)
        text = write_instance(Instance(points, tuple(family))).replace("family 2", "family 3")
        with pytest.raises(ParseError, match="declares 3"):
            parse_instance(text)

    def test_family_not_pairwise_crossing(self):
        points = gen_convex_polygon(6, seed=1)
        text = write_instance(Instance(points)) + "family 2\n0 1\n2 3\n"
        with pytest.raises(ParseError, match="pairwise"):
            parse_instance(text)

    def test_family_edge_out_of_range(self):
        points = gen_convex_polygon(4, seed=1)
        text = write_instance(Instance(points)) + "family 1\n0 9\n"
        with pytest.raises(ParseError, match="invalid edge"):
            parse_instance(text)

    def test_family_repeated_edge(self):
        points, family = gen_perfect_crossing_family_pointset(2, seed=0)
        e = sorted(family)[0]
        text = write_instance(Instance(points)) + f"family 2\n{e.u} {e.v}\n{e.u} {e.v}\n"
        with pytest.raises(ParseError, match="repeats"):
            parse_instance(text)


class TestInstanceRoundTrip:
    @pytest.mark.parametrize("n", [3, 5, 9, 14])
    def test_random_instances(self, n):
        points = gen_random_pointset(n, seed=n)
        text = write_instance(Instance(points))
        assert parse_instance(text).points == points
        assert write_instance(parse_instance(text)) == text

    def test_writer_is_canonical(self):
        points = gen_convex_polygon(5, seed=3)
        text = write_instance(Instance(points))
        assert text.endswith("\n") and not text.endswith("\n\n")
        assert text == write_instance(parse_instance(text))


class TestColoringFormat:
    def test_slope_partition_round_trip(self):
        coloring = slope_partition(6, 3)
        text = write_coloring(coloring)
        assert parse_coloring(text) == coloring
        assert write_coloring(parse_coloring(text)) == text

    def test_writer_lexicographic(self):
        text = write_coloring(slope_partition(4, 3))
        lines = text.strip().splitlines()[1:]
        pairs = [tuple(map(int, ln.split()[:2])) for ln in lines]
        assert pairs == sorted(pairs)

    def test_missing_edge_named(self):
        coloring = slope_partition(6, 3)
        lines = [ln for ln in write_coloring(coloring).splitlines() if not ln.startswith("0 5 ")]
        with pytest.raises(ParseError, match=r"missing edge \(0, 5\) \(1 edges absent\)"):
            parse_coloring("\n".join(lines) + "\n")

    def test_color_out_of_range(self):
        text = write_coloring(slope_partition(6, 3)).replace("0 1 0", "0 1 9")
        with pytest.raises(ParseError, match="color 9"):
            parse_coloring(text)

    def test_duplicate_edge_line(self):
        text = write_coloring(slope_partition(4, 3))
        text += "0 1 0\n"
        with pytest.raises(ParseError, match="duplicate"):
            parse_coloring(text)

    def test_edge_out_of_range(self):
        text = "3 1\n0 1 0\n0 2 0\n1 5 0\n"
        with pytest.raises(ParseError, match="invalid edge"):
            parse_coloring(text)

    def test_self_loop_rejected(self):
        text = "3 1\n0 1 0\n0 2 0\n2 2 0\n"
        with pytest.raises(ParseError, match="invalid edge"):
            parse_coloring(text)

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_coloring("3\n")

    def test_single_color_round_trip(self):
        coloring = Coloring(5, 1, [0] * 10)
        assert parse_coloring(write_coloring(coloring)) == coloring

    def test_classes_list_only_the_colors_in_use(self):
        # One entry per color in use, not per declared color.
        coloring = parse_coloring("3 1000000\n0 1 0\n0 2 0\n1 2 0\n")
        assert coloring.classes() == {0: [(0, 1), (0, 2), (1, 2)]}

    def test_classes_come_in_color_order(self):
        coloring = Coloring(4, 5, [4 if e == (0, 1) else 1 for e in all_edges(4)])
        assert list(coloring.classes()) == [1, 4]
        assert coloring.classes()[1] == all_edges(4)[1:]

    @pytest.mark.parametrize(
        "colors, error, message",
        [
            ([0] * 14, ValueError, "coloring covers 14 edges, K_6 has 15"),
            ([0] * 16, ValueError, "coloring covers 16 edges, K_6 has 15"),
            ([9] * 14, ValueError, "coloring covers 14 edges, K_6 has 15"),
            ([None] * 14, ValueError, "coloring covers 14 edges, K_6 has 15"),
            ([0, 1, 2, 3, -1] + [0] * 10, ValueError, "edge (0, 4) has color 3 outside 0..2"),
            ([0] * 3 + [-1] + [7] * 11, ValueError, "edge (0, 4) has color -1 outside 0..2"),
            ([2] * 14 + [3], ValueError, "edge (4, 5) has color 3 outside 0..2"),
            ([3] + [0] * 14, ValueError, "edge (0, 1) has color 3 outside 0..2"),
            ([0] * 4 + [None] + [0] * 10, TypeError, "edge (0, 5) has color None, not an int"),
            ([True] + [0] * 14, TypeError, "edge (0, 1) has color True, not an int"),
            ([0] * 14 + [False], TypeError, "edge (4, 5) has color False, not an int"),
            ([0, 0.5] + [0] * 13, TypeError, "edge (0, 2) has color 0.5, not an int"),
            ([0, 1.0] + [0] * 13, TypeError, "edge (0, 2) has color 1.0, not an int"),
            (["0"] * 15, TypeError, "edge (0, 1) has color '0', not an int"),
            # Every color is checked for its type before any for its range.
            ([7, 0, "1"] + [0] * 12, TypeError, "edge (0, 3) has color '1', not an int"),
            ([(e.u + e.v) % 3 for e in all_edges(6)], None, None),
        ],
    )
    def test_constructor_names_the_first_bad_edge_in_edge_order(self, colors, error, message):
        if error is None:
            assert list(Coloring(6, 3, colors).items()) == list(zip(all_edges(6), colors))
            return
        with pytest.raises(error) as err:
            Coloring(6, 3, colors)
        assert str(err.value) == message

    def test_constructor_checks_the_edge_count_first(self):
        with pytest.raises(ValueError, match=r"^coloring covers 14 edges, K_6 has 15$"):
            Coloring(6, 3, [5] * 14)

    def test_any_sequence_of_colors_gives_the_same_coloring(self):
        # The colors are stored in `all_edges` order, so items() and
        # classes() pair them with `all_edges(n)` and need no sort.
        edges = all_edges(7)
        colors = [(e.u * e.v) % 3 for e in edges]
        coloring = Coloring(7, 3, colors)
        assert list(coloring.items()) == list(zip(edges, colors))
        assert all(type(e) is Edge for e, _ in coloring.items())
        assert coloring.classes() == {c: [e for e in edges if (e.u * e.v) % 3 == c] for c in range(3)}
        for form in (list, tuple, iter):
            got = Coloring(7, 3, form(colors))
            assert got == coloring and list(got.items()) == list(coloring.items())
        assert Coloring(7, 4, colors) != coloring and Coloring(7, 3, colors[::-1]) != coloring


def _written_colorings():
    """Written colorings for n = 2..12 with random colors; every first line is "0 1 10"."""
    rng = random.Random(24)
    for n in range(2, 13):
        c = rng.randint(11, 14)
        yield Coloring(n, c, [10] + [rng.randrange(c) for _ in range(n * (n - 1) // 2 - 1)])


def _shuffled(head, body):
    rng = random.Random(len(body))
    return "\n".join([head, *rng.sample(body, len(body))]) + "\n"


# Texts that do not take `_writer_form`'s bulk pass, as functions of the
# written header line and body lines; each must read as the written text.
SPELLINGS = {
    "comment-and-blank-lines": lambda head, body: "# colors\n\n" + head + " # n c\n" + "\n\n".join(body) + "\n#\n",
    "crlf": lambda head, body: "\r\n".join([head, *body]) + "\r\n",
    "tabs-and-trailing-spaces": lambda head, body: "".join(ln.replace(" ", "\t", 1) + " \t \n" for ln in [head, *body]),
    "no-final-newline": lambda head, body: "\n".join([head, *body]),
    "shuffled-lines": _shuffled,
    "plus-sign": lambda head, body: "\n".join([head, "0 +1 10", *body[1:]]) + "\n",
    "leading-zero": lambda head, body: "\n".join([head, "0 01 10", *body[1:]]) + "\n",
    "underscore": lambda head, body: "\n".join([head, "0 1 1_0", *body[1:]]) + "\n",
}


class TestBulkPassAgreesWithTheLineLoop:
    def test_written_text_takes_the_bulk_pass(self):
        for coloring in _written_colorings():
            text = write_coloring(coloring)
            assert _writer_form(text) == (coloring.n, coloring.num_colors, [c for _, c in coloring.items()])
            assert parse_coloring(text) == coloring
            # A leading comment line sends the same lines to the line loop.
            assert _writer_form("#\n" + text) is None and parse_coloring("#\n" + text) == coloring

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_other_spellings_read_the_same_coloring(self, spelling):
        for coloring in _written_colorings():
            head, *body = write_coloring(coloring).splitlines()
            text = SPELLINGS[spelling](head, body)
            if coloring.n > 2 or spelling != "shuffled-lines":  # one edge line has one order
                assert _writer_form(text) is None
            assert parse_coloring(text) == coloring

    @pytest.mark.parametrize(
        "text",
        [
            "3 2\n0 1 0\n0 2 01\n1 2 001\n",
            "03 2\n0 1 0\n0 2 1\n1 2 1\n",
            "3 0002\n0 1 0\n0 2 1\n1 2 1\n",
        ],
    )
    def test_leading_zeros_in_the_header_and_colors_read_as_in_the_line_loop(self, text):
        # The bulk pass reads these tokens with int(), as the loop does.
        assert parse_coloring(text) == parse_coloring("#\n" + text) == Coloring(3, 2, [0, 1, 1])

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "3 1\n",
            "3 1\n0 1 0\n0 2 0\n",
            "3 1\n0 1 0\n0 2 0\n1 2 0\n1 2 0\n",
            "3 1\n0 1 0\n0 2\n0 1 2 0\n",
            "3 1\n0 1 0\n0 2 0\n1 2 1\n",
            "3 1\n0 1 0\n0 2 0\n2 1 0\n",
            "3 1\n0 1 0\n0  2 0\n1 2 0\n",
            "1 1\n",
            "3 0\n0 1 0\n0 2 0\n1 2 0\n",
            "100000 1\n0 1 0\n",
        ],
    )
    def test_texts_the_bulk_pass_refuses_go_to_the_line_loop(self, text):
        # Errors, a short or long body, misaligned lines, a reversed pair,
        # a double space, and a header whose K_n the body cannot hold.
        assert _writer_form(text) is None


def imported_names(path):
    """Every dotted part of every module a file imports, at any depth."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.update(node.module.split(".") if node.module else (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            imported.update(part for a in node.names for part in a.name.split("."))
    return imported


def test_geometry_and_fileio_import_no_higher_layer():
    # The I/O layer reads and certifies instances with geometry alone.
    package = Path(beyondplanar.__file__).parent
    for name in ("geometry.py", "fileio.py"):
        assert not imported_names(package / name) & {"quasiplanar", "convex", "bounds"}, name


def test_bounds_imports_nothing_from_quasiplanar():
    # The extremal oracle takes its default budget from the kernels that spend it.
    assert "quasiplanar" not in imported_names(Path(beyondplanar.__file__).parent / "bounds.py")


def test_oracles_import_no_code_they_check():
    # The brute-force oracles share no code with the searches, the
    # crossing layer and the constructions they certify.
    imported = imported_names(Path(__file__).parent / "oracles.py")
    assert "beyondplanar" in imported
    assert not imported & {"quasiplanar", "crossings", "bounds", "_kernels_py", "_native"}


def test_no_unused_top_level_imports():
    # Every module-level import in the package and its tests is read
    # somewhere in its file; __init__.py imports only to re-export.
    package = Path(beyondplanar.__file__).parent
    paths = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    unused = []
    for path in paths + sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_surface_scan_counts_the_package():
    # Smoke test of benchmarks/surface.py: four counts, the first of them
    # the package's line count without __init__.py, the last the C kernels'.
    script = Path(__file__).parent.parent / "benchmarks" / "surface.py"
    package = Path(beyondplanar.__file__).parent
    argv = [sys.executable, str(script), str(package)]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    counts = {key: int(value) for key, value in (line.split(": ") for line in out.splitlines())}
    assert list(counts) == ["lines", "parameters", "names", "c_lines"]
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    assert counts["lines"] == sum(len(p.read_text().splitlines()) for p in paths)
    assert counts["c_lines"] == len((package / "_kernels.c").read_text().splitlines())
    assert 0 < counts["names"] < counts["parameters"]
