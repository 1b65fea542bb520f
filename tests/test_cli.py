"""Command-line behavior: pipelines, exit codes, witnesses, determinism."""

import hashlib
import subprocess
import sys

import pytest

from beyondplanar.cli import cli_dispatch
from beyondplanar.coloring import Coloring
from beyondplanar.fileio import Instance, parse_coloring, parse_instance, write_coloring, write_instance
from beyondplanar.geometry import PointSet, all_edges, gen_convex_polygon, gen_random_pointset, validate_pointset
from beyondplanar.svg import PALETTE, render_svg


def run(*argv):
    return cli_dispatch(list(argv))


@pytest.fixture
def paths(tmp_path):
    return {
        "inst": str(tmp_path / "inst.txt"),
        "col": str(tmp_path / "col.txt"),
        "svg": str(tmp_path / "fig.svg"),
    }


class TestPipelines:
    def test_slope_pipeline_verifies_one_planar(self, paths):
        assert run("gen", "convex", "--n", "12", "--out", paths["inst"]) == 0
        assert run("partition", "slope", "--s", "3", "--in", paths["inst"], "--out", paths["col"]) == 0
        assert run("verify", "kplanar", "--k", "1", "--in", paths["col"]) == 0

    def test_doublestar_on_odd_instance_is_usage_error(self, paths):
        assert run("gen", "random", "--n", "7", "--out", paths["inst"]) == 0
        assert run("partition", "doublestar", "--in", paths["inst"], "--out", paths["col"]) == 2

    def test_quasiplanar_full_k6_fails_with_witness(self, tmp_path, capsys):
        col = tmp_path / "k6.txt"
        col.write_text(write_coloring(Coloring(6, 1, [0] * 15)))
        assert run("verify", "quasiplanar", "--k", "3", "--in", str(col)) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "witness" in out
        assert "0-3" in out and "1-4" in out and "2-5" in out

    def test_doublestar_pipeline_verifies_quasiplanar(self, paths):
        assert run("gen", "random", "--n", "10", "--seed", "3", "--out", paths["inst"]) == 0
        assert run("partition", "doublestar", "--in", paths["inst"], "--out", paths["col"]) == 0
        assert run("verify", "quasiplanar", "--k", "3", "--in", paths["col"], "--instance", paths["inst"]) == 0

    def test_halving_pipeline(self, paths):
        assert run("gen", "crossing-family", "--n", "5", "--seed", "2", "--out", paths["inst"]) == 0
        assert run("partition", "halving", "--k", "3", "--in", paths["inst"], "--out", paths["col"]) == 0
        assert run("verify", "quasiplanar", "--k", "3", "--in", paths["col"], "--instance", paths["inst"]) == 0
        assert parse_coloring(open(paths["col"]).read()).num_colors == 3

    def test_family_pipeline(self, paths, capsys):
        assert run("gen", "random", "--n", "11", "--seed", "8", "--out", paths["inst"]) == 0
        assert run("partition", "family", "--k", "3", "--in", paths["inst"], "--out", paths["col"]) == 0
        assert "m=" in capsys.readouterr().out
        assert run("verify", "quasiplanar", "--k", "3", "--in", paths["col"], "--instance", paths["inst"]) == 0

    @pytest.mark.parametrize("n", [1, 2])
    def test_render_below_three_points(self, n, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        col = tmp_path / "col.txt"
        svg = tmp_path / "fig.svg"
        assert run("gen", "random", "--n", str(n), "--seed", "4", "--out", str(inst)) == 0
        points = parse_instance(inst.read_text()).points
        assert run("render", "--in", str(inst), "--out", str(svg)) == 0
        assert svg.read_text() == render_svg(points)
        if n == 2:
            coloring = Coloring(2, 1, [0])
            col.write_text(write_coloring(coloring))
            assert run("render", "--in", str(inst), "--coloring", str(col), "--out", str(svg)) == 0
            assert svg.read_text() == render_svg(points, coloring)
        assert capsys.readouterr().err == ""

    def test_every_slope_class_respects_guaranteed_k(self, paths):
        assert run("gen", "convex", "--n", "10", "--out", paths["inst"]) == 0
        assert run("partition", "slope", "--s", "4", "--in", paths["inst"], "--out", paths["col"]) == 0
        assert run("verify", "kplanar", "--k", "3", "--in", paths["col"]) == 0


class TestExitCodes:
    def test_unknown_subcommand_is_2(self, capsys):
        assert run("frobnicate") == 2
        capsys.readouterr()

    def test_missing_required_flag_is_2(self, capsys):
        assert run("gen", "convex") == 2
        capsys.readouterr()

    def test_missing_input_file_is_2(self, capsys):
        assert run("partition", "slope", "--s", "3", "--in", "/nonexistent/x.txt") == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_instance_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n0 0\n1 1\n2 2\n")
        assert run("partition", "slope", "--s", "3", "--in", str(bad)) == 2
        assert "collinear" in capsys.readouterr().err

    def test_slope_on_nonconvex_is_2(self, paths, capsys):
        assert run("gen", "random", "--n", "12", "--seed", "1", "--out", paths["inst"]) == 0
        assert run("partition", "slope", "--s", "3", "--in", paths["inst"]) == 2
        assert "convex" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [1, 2])
    def test_slope_below_three_points_is_2(self, n, tmp_path, capsys):
        # The slope partition's own n check, not the convexity check's
        # precondition, names the problem.
        inst = tmp_path / "inst.txt"
        assert run("gen", "random", "--n", str(n), "--seed", "4", "--out", str(inst)) == 0
        capsys.readouterr()
        assert run("partition", "slope", "--s", "3", "--in", str(inst)) == 2
        assert capsys.readouterr() == ("", f"error: n >= 3 required, got {n}\n")

    def test_family_on_one_point_is_2(self, tmp_path, capsys):
        # The family partition's own n check, not the coloring's, names the problem.
        inst = tmp_path / "inst.txt"
        assert run("gen", "random", "--n", "1", "--out", str(inst)) == 0
        capsys.readouterr()
        assert run("partition", "family", "--k", "3", "--in", str(inst)) == 2
        assert capsys.readouterr() == ("", "error: n >= 2 required, got 1\n")

    def test_halving_without_family_section_is_2(self, paths, capsys):
        assert run("gen", "convex", "--n", "6", "--out", paths["inst"]) == 0
        assert run("partition", "halving", "--k", "3", "--in", paths["inst"]) == 2
        assert "family" in capsys.readouterr().err

    def test_verify_mismatched_n_is_2(self, paths, tmp_path, capsys):
        assert run("gen", "convex", "--n", "6", "--out", paths["inst"]) == 0
        col = tmp_path / "c.txt"
        col.write_text(write_coloring(Coloring(4, 1, [0] * 6)))
        assert run("verify", "kplanar", "--k", "1", "--in", str(col), "--instance", paths["inst"]) == 2
        assert "n=" in capsys.readouterr().err

    def test_kplanar_verify_failure_is_1(self, paths, tmp_path, capsys):
        col = tmp_path / "k6.txt"
        col.write_text(write_coloring(Coloring(6, 1, [0] * 15)))
        assert run("verify", "kplanar", "--k", "1", "--in", str(col)) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "crossings=" in out
        # Coordinates of a convex hexagon give the same witness line.
        assert run("gen", "convex", "--n", "6", "--out", paths["inst"]) == 0
        capsys.readouterr()
        assert run("verify", "kplanar", "--k", "1", "--in", str(col), "--instance", paths["inst"]) == 1
        assert capsys.readouterr().out == out

    def test_family_budget_exhausted_is_2(self, paths, capsys):
        assert run("gen", "random", "--n", "20", "--seed", "1", "--out", paths["inst"]) == 0
        capsys.readouterr()
        assert run("partition", "family", "--k", "3", "--budget", "3", "--in", paths["inst"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: maximum crossing family not proven within budget 3 after 3 nodes" in captured.err

    def test_doublestar_verify_spends_no_budget(self, paths, capsys):
        # Each double star is covered by its two centres, so no class is
        # searched and not even a one-node budget is spent.
        assert run("gen", "random", "--n", "20", "--seed", "1", "--out", paths["inst"]) == 0
        assert run("partition", "doublestar", "--in", paths["inst"], "--out", paths["col"]) == 0
        capsys.readouterr()
        argv = ("verify", "quasiplanar", "--k", "3", "--budget", "1", "--in", paths["col"], "--instance", paths["inst"])
        assert run(*argv) == 0
        assert capsys.readouterr() == ("verified quasiplanar k=3 n=20 classes=10\n", "")

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (
                ["partition", "doublestar"],
                "3\n" + " ".join(["0"] * 200_000) + "\n4 0\n1 3\n",
                "line 2: expected a point 'x y', got '" + "0 " * 29 + "0 '... (200000 tokens, 399999 characters)",
            ),
            (
                ["partition", "doublestar"],
                "3\n0 " + "9" * 5000 + "\n4 0\n1 3\n",
                "line 2: expected a point 'x y', got an integer too long to read (5000 digits)",
            ),
            (
                ["partition", "doublestar"],
                "3\n0 0\n4 0\n1 3\n" + "junk " * 1000 + "\n",
                "line 5: expected 'family <count>' or end of file, got '"
                + "junk " * 12
                + "'... (1000 tokens, 4999 characters)",
            ),
            (
                ["verify", "kplanar", "--k", "1"],
                "-" + "7" * 5000 + " 1\n",
                "line 1: expected a header 'n num_colors', got an integer too long to read (5000 digits)",
            ),
            (
                ["partition", "doublestar"],
                "3\n0 " + "9" * 4000 + "\n4 0\n1 3\n",
                "line 2: coordinate exceeds +/-1073741824: (0, <4000 digits>)",
            ),
            (["partition", "doublestar"], "-" + "9" * 4000 + "\n", "line 1: point count must be >= 1, got -<4000 digits>"),
            (
                ["partition", "doublestar"],
                "9" * 4000 + "\n0 0\n",
                "line 2: expected <4000 digits> points, file ended after 1",
            ),
            (
                ["verify", "kplanar", "--k", "1"],
                "-1" + "0" * 3999 + " 1\n",
                "line 1: invalid header n=-<4000 digits>, num_colors=1",
            ),
            (
                ["verify", "kplanar", "--k", "1"],
                "3 3\n0 " + "9" * 4000 + " 0\n",
                "line 2: invalid edge (0, <4000 digits>) for n=3",
            ),
            (["verify", "kplanar", "--k", "1"], "3 3\n0 1 " + "9" * 4000 + "\n", "line 2: color <4000 digits> outside 0..2"),
            (
                # C(n, 2) has 5998 digits, past what str() converts.
                ["verify", "kplanar", "--k", "1"],
                "1" + "0" * 2999 + " 1\n",
                "line 1: missing edge (0, 1) (<5998 digits> edges absent)",
            ),
        ],
        ids=[
            "long-point-line",
            "long-coordinate",
            "long-trailing-line",
            "long-header-integer",
            "coordinate-of-4000-digits",
            "point-count-of-4000-digits",
            "missing-points-of-4000-digits",
            "header-n-of-4000-digits",
            "edge-end-of-4000-digits",
            "color-of-4000-digits",
            "header-n-of-3000-digits",
        ],
    )
    def test_long_input_lines_give_a_short_error(self, argv, text, message, tmp_path, capsys):
        # The error quotes a short prefix of the line, or names the
        # integer too long to read, never the whole line; an integer it
        # reads is quoted by its digit count.
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert run(*argv, "--in", str(bad)) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert len(err.encode()) < 200

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3\n0 0\nx 0\n1 3\n", "line 3: expected a point 'x y', got 'x 0'"),
            ("3\n0 0 0\n", "line 2: expected a point 'x y', got '0 0 0'"),
            ("3\n0 0\n4 0\n1 3\nextra line\n", "line 5: expected 'family <count>' or end of file, got 'extra line'"),
            ("3 4\n", "line 1: expected a point count, got '3 4'"),
        ],
    )
    def test_short_line_errors_quote_the_whole_line(self, text, message, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert run("partition", "doublestar", "--in", str(bad)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_coloring_header_far_larger_than_file_is_2(self, tmp_path, capsys):
        # Reaching the error costs what the file holds, not the C(n, 2)
        # edges its header declares.
        col = tmp_path / "huge.txt"
        col.write_text("100000 1\n")
        assert run("verify", "kplanar", "--k", "1", "--in", str(col)) == 2
        err = capsys.readouterr().err
        assert err == "error: line 1: missing edge (0, 1) (4999950000 edges absent)\n"
        # With a body in the writer's form, too: the token count is
        # checked against the header before anything of size C(n, 2).
        col.write_text("100000 1\n0 1 0\n")
        assert run("verify", "kplanar", "--k", "1", "--in", str(col)) == 2
        err = capsys.readouterr().err
        assert err == "error: line 2: missing edge (0, 2) (4999949999 edges absent)\n"

    def test_bounds_reports_ok(self, capsys):
        assert run("bounds", "--n", "20", "--k", "1") == 0
        out = capsys.readouterr().out
        assert "crossing-lemma" in out and "VIOLATED" not in out

    def test_bounds_small_n_skips_lemma_row(self, capsys):
        assert run("bounds", "--n", "5", "--k", "2") == 0
        out = capsys.readouterr().out
        assert "crossing-lemma" not in out and "kplanar-edge-bound" in out

    def test_bounds_table_layout(self, capsys):
        assert run("bounds", "--n", "12", "--k", "6") == 0
        assert capsys.readouterr().out == (
            "bound                    instance                      formula       observed status\n"
            "kplanar-edge-bound       n=12 k=6                        72.45              - -\n"
            "crossing-lemma           n=12 e=66                      164.32            495 ok\n"
            "edge-peeling             n=12 e=66                         175            495 ok\n"
            "kplanar-colors           n=12 k=6                       [1, 3]              - ok\n"
            "one-planar-colors        n=12                           [4, 4]              - ok\n"
        )

    def test_bounds_huge_k_answers(self, capsys):
        assert run("bounds", "--n", "10", "--k", str(10**300)) == 0
        assert "kplanar-colors" in capsys.readouterr().out

    @pytest.mark.parametrize("n, k", [(10, 10**400), (10**400, 5)], ids=["edge-bound", "huge-n"])
    def test_bounds_float_overflow_is_2(self, n, k):
        argv = [sys.executable, "-m", "beyondplanar.cli", "bounds", "--n", str(n), "--k", str(k)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr

    def test_bounds_rational_rows_are_exact(self, capsys):
        # 773094264309.4650... is the exact crossing-lemma value; through
        # a float it printed .46, and past n of about 10^77 it overflowed.
        assert run("bounds", "--n", "2945", "--k", "1") == 0
        assert "crossing-lemma           n=2945 e=4335040       773094264309.47" in capsys.readouterr().out
        assert run("bounds", "--n", str(10**78 + 1), "--k", "1") == 0
        assert "crossing-lemma" in capsys.readouterr().out

    def test_bounds_huge_n_names_the_flag(self, capsys):
        # C(n, 4) past the interpreter's int-to-str digit limit: the error
        # names the input, not the interpreter setting.
        assert run("bounds", "--n", str(10**1100 + 1), "--k", "1") == 2
        assert capsys.readouterr() == ("", "error: --n is too large to print its rows\n")

    def test_halving_needs_a_perfect_family(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        assert run("gen", "crossing-family", "--n", "4", "--out", str(inst)) == 0
        capsys.readouterr()
        full = parse_instance(inst.read_text())
        inst.write_text(write_instance(Instance(full.points, full.family[:3])))
        assert run("partition", "halving", "--k", "3", "--in", str(inst)) == 2
        assert capsys.readouterr().err == "error: family of size 3 cannot be perfect on 8 points\n"
        assert run("partition", "halving", "--k", "2", "--in", str(inst)) == 2
        assert capsys.readouterr().err == "error: k >= 3 required, got 2\n"


class TestVerifyDeclaredColors:
    # Empty classes are trivially k-planar and k-quasi-planar, so verify
    # costs what the edges use, not what the header declares.
    @pytest.mark.parametrize("mode", ["kplanar", "quasiplanar"])
    def test_billion_declared_colors(self, mode, tmp_path, capsys):
        col = tmp_path / "sparse.txt"
        col.write_text("3 1000000000\n0 1 0\n0 2 0\n1 2 0\n")
        assert run("verify", mode, "--k", "2", "--in", str(col)) == 0
        assert capsys.readouterr().out == f"verified {mode} k=2 n=3 classes=1000000000\n"

    @pytest.mark.parametrize(
        "mode, k, line",
        [
            ("kplanar", 1, "FAIL kplanar class=2 edge=0-2 crossings=3 limit=1"),
            ("quasiplanar", 3, "FAIL quasiplanar class=2 k=3 witness=0-3,1-4,2-5"),
        ],
    )
    def test_fail_line_skips_empty_classes(self, mode, k, line, tmp_path, capsys):
        # Convex K_6: class 0 holds the hull edges, which cross nothing;
        # class 2 holds the diagonals; classes 1 and 3 are empty.
        colors = [0 if e.v - e.u in (1, 5) else 2 for e in all_edges(6)]
        col = tmp_path / "k6.txt"
        col.write_text(write_coloring(Coloring(6, 4, colors)))
        assert run("verify", mode, "--k", str(k), "--in", str(col)) == 1
        assert capsys.readouterr().out == line + "\n"


class TestStdoutData:
    def test_gen_to_stdout(self, capsys):
        assert run("gen", "convex", "--n", "4") == 0
        out = capsys.readouterr().out
        assert out.startswith("4\n")

    def test_gen_convex_3000_reads_back_clockwise(self, capsys):
        # 3000 points once exhausted the generator's retries on a circle.
        assert run("gen", "convex", "--n", "3000", "--seed", "0") == 0
        points = parse_instance(capsys.readouterr().out).points
        assert validate_pointset(points) == tuple(range(3000))

    def test_partition_reads_stdin(self, paths, capsys, monkeypatch):
        import io

        assert run("gen", "convex", "--n", "6", "--out", paths["inst"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(sys, "stdin", io.StringIO(open(paths["inst"]).read()))
        assert run("partition", "slope", "--s", "3", "--in", "-") == 0
        assert capsys.readouterr().out.startswith("6 2\n")


class TestDeterminism:
    def test_gen_byte_identical_across_processes(self, tmp_path):
        script = "from beyondplanar.cli import cli_dispatch; cli_dispatch(['gen', 'convex', '--n', '9', '--seed', '5'])"
        runs = [
            subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_full_pipeline_byte_identical(self, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            inst = tmp_path / f"i{tag}.txt"
            col = tmp_path / f"c{tag}.txt"
            svg = tmp_path / f"s{tag}.svg"
            assert run("gen", "crossing-family", "--n", "4", "--seed", "7", "--out", str(inst)) == 0
            assert run("partition", "halving", "--k", "3", "--in", str(inst), "--out", str(col)) == 0
            assert run("render", "--in", str(inst), "--coloring", str(col), "--out", str(svg)) == 0
            outputs.append((inst.read_bytes(), col.read_bytes(), svg.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_doublestar_partitions_byte_identical(self, tmp_path, capsys):
        # Digest of these colorings as the CLI wrote them when the
        # construction returned its own tree type for the CLI to convert.
        inst = str(tmp_path / "inst.txt")
        h = hashlib.sha256()
        for n in range(2, 41, 2):
            for seed in (0, 1):
                assert run("gen", "random", "--n", str(n), "--seed", str(seed), "--out", inst) == 0
                capsys.readouterr()
                assert run("partition", "doublestar", "--in", inst) == 0
                h.update(capsys.readouterr().out.encode())
        assert h.hexdigest() == "271b6c75bb2c83be0e1452fca3290fd6a3121871316a01b67813b2bd5cc5e1df"

    def test_family_and_halving_partitions_byte_identical(self, tmp_path, monkeypatch, capsys):
        # Digest of exit codes, summaries (22 of them carry the m < k note)
        # and colorings as the CLI wrote them when the family partition
        # returned its own report type, re-recorded when the crossing-family
        # generator moved its points onto y = x^2: the random-set family
        # records hash as before, and the halving colorings keep their
        # color counts but group by the lines the new coordinates give.
        monkeypatch.chdir(tmp_path)  # relative paths keep the out= summaries fixed
        h = hashlib.sha256()
        for n in range(2, 25):
            for seed in (0, 1):
                assert run("gen", "random", "--n", str(n), "--seed", str(seed), "--out", "inst.txt") == 0
                capsys.readouterr()
                for k in (3, 4):
                    rc = run("partition", "family", "--k", str(k), "--in", "inst.txt", "--out", "col.txt")
                    h.update(f"{rc}\n{capsys.readouterr().out}".encode())
                    h.update((tmp_path / "col.txt").read_bytes())
        for n in range(1, 13):
            assert run("gen", "crossing-family", "--n", str(n), "--out", "inst.txt") == 0
            capsys.readouterr()
            for k in (3, 4):
                rc = run("partition", "halving", "--k", str(k), "--in", "inst.txt")
                h.update(f"{rc}\n{capsys.readouterr().out}".encode())
        assert h.hexdigest() == "921e18e06cfd899b09df0f1fe896f1daba57a4e24e1174a33ed3d5b0144c50f6"

    def test_bounds_and_verify_byte_identical(self, tmp_path, monkeypatch, capsys):
        # Digest of exit codes, stdout and stderr as the CLI wrote them when
        # the bounds rows formatted themselves and verify printed its
        # summary from three places, re-recorded when `partition slope` on
        # 1 or 2 points came to name its own n check: those 8 stderr lines
        # are the only records that changed.
        monkeypatch.chdir(tmp_path)  # relative paths keep messages fixed
        h = hashlib.sha256()

        def record(*argv):
            rc = run(*argv)
            captured = capsys.readouterr()
            h.update(f"{rc}\n{captured.out}\n{captured.err}\n".encode())

        for n in range(-1, 41):
            for k in range(-1, 8):
                record("bounds", "--n", str(n), "--k", str(k))
        for n in range(1, 14):
            # Fewer than 3 points have no convex polygon; any 1 or 2 points
            # are in convex position.
            assert run("gen", "convex" if n >= 3 else "random", "--n", str(n), "--out", "inst.txt") == 0
            capsys.readouterr()
            one = "".join(f"{e.u} {e.v} 0\n" for e in all_edges(n))
            (tmp_path / "one.txt").write_text(f"{n} 1\n{one}")
            colorings = ["one.txt"]
            for s in range(1, 5):
                record("partition", "slope", "--s", str(s), "--in", "inst.txt", "--out", f"s{s}.txt")
                colorings.append(f"s{s}.txt")
            for col in colorings:
                for mode in ("kplanar", "quasiplanar"):
                    for k in range(-1, 5):
                        record("verify", mode, "--k", str(k), "--in", col)
                        record("verify", mode, "--k", str(k), "--in", col, "--instance", "inst.txt")
        assert h.hexdigest() == "2cc388dffa97bdfff9fba1d167f998109bbf952ab71c819a13b0164c40a42d8a"

    @pytest.mark.parametrize(
        "argv, rc, text",
        [
            (("verify", "kplanar", "--k", "1", "--in", "col.txt"), 0, "verified kplanar k=1 n=9 classes=3"),
            (("verify", "kplanar", "--in", "col.txt"), 2, "the following arguments are required: --k"),
            (("bounds", "--help"), 0, "usage: beyondplanar bounds"),
        ],
        ids=["verify", "usage-error", "bounds-help"],
    )
    def test_dispatch_twice_in_one_process(self, argv, rc, text, tmp_path, monkeypatch, capsys):
        # The parser is built once per process; a second dispatch of the
        # same argv must not see anything the first one left in it.
        monkeypatch.chdir(tmp_path)
        assert run("gen", "convex", "--n", "9", "--out", "inst.txt") == 0
        assert run("partition", "slope", "--s", "3", "--in", "inst.txt", "--out", "col.txt") == 0
        capsys.readouterr()
        outcomes = []
        for _ in range(2):
            outcomes.append((run(*argv), *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == rc and text in outcomes[0][1] + outcomes[0][2]


def on_circle(n, coloring=None):
    """n points in convex position drawn on a circle, in index order."""
    return render_svg(gen_convex_polygon(n, seed=n), coloring)


def circles(svg):
    """The vertex markers of an SVG, one line per point in index order."""
    return [line for line in svg.splitlines() if line.startswith("<circle")]


class TestRenderSvg:
    def test_three_points_single_class(self):
        svg = on_circle(3)
        assert svg.count("<circle") == 3
        assert svg.count("<line") == 3
        assert svg.count("<g stroke=") == 1
        assert svg.startswith("<svg xmlns=")

    def test_byte_identical(self):
        points = gen_convex_polygon(8, seed=2)
        from beyondplanar.convex import slope_partition

        coloring = slope_partition(8, 3)
        assert render_svg(points, coloring) == render_svg(points, coloring)

    def test_palette_cycles(self):
        n = 40
        coloring = Coloring(n, 14, [(e.u + e.v) % 14 for e in all_edges(n)])
        svg = on_circle(n, coloring)
        assert f'stroke="{PALETTE[0]}"' in svg
        assert svg.count(f'stroke="{PALETTE[0]}"') == 2  # color 0 and color 12 reuse it
        assert svg.count("<g stroke=") == 14

    def test_class_count_matches_coloring(self):
        coloring = Coloring(12, 4, [e.u % 4 for e in all_edges(12)])
        svg = on_circle(12, coloring)
        assert svg.count("<g stroke=") == 4
        assert svg.count("<line") == 66

    def test_slope_partitions_render_byte_identical(self):
        # Digest of these SVGs as the renderer drew them when it wrote one
        # group per declared class; slope partitions use every class, so
        # grouping by used class must not change a byte. Re-recorded when
        # the convex generator moved its points onto y = x^2, and again
        # when the renderer found convex order itself and the to-scale
        # records moved to random sets: the records on a circle alone
        # hash to 87365a22... before and after.
        from beyondplanar.convex import slope_partition

        h = hashlib.sha256()
        for n in range(8, 41):
            for s in (3, 4):
                h.update(on_circle(n, slope_partition(n, s)).encode())
            h.update(render_svg(gen_random_pointset(n, seed=n), slope_partition(n, 3)).encode())
        assert h.hexdigest() == "e1f3d5329af7d80621b803439404419b6fb557337e261de18e3ba806037c6696"

    def test_unused_classes_draw_no_group(self, tmp_path, capsys):
        # The header declares a million classes; the file uses one.
        inst, col, svg = tmp_path / "inst.txt", tmp_path / "col.txt", tmp_path / "fig.svg"
        inst.write_text("3\n0 0\n10 0\n0 10\n")
        col.write_text("3 1000000\n0 1 0\n0 2 0\n1 2 0\n")
        assert run("render", "--in", str(inst), "--coloring", str(col), "--out", str(svg)) == 0
        assert capsys.readouterr().out.strip() == f"svg n=3 classes=1000000 out={svg}"
        text = svg.read_text()
        assert text.count("<g stroke=") == 1 and text.count("<line ") == 3
        assert len(text) < 2000

    def test_empty_class_between_used_ones_keeps_strokes(self):
        coloring = Coloring(4, 3, [0 if e.u == 0 else 2 for e in all_edges(4)])
        svg = on_circle(4, coloring)
        assert svg.count("<g stroke=") == 2
        assert f'<g stroke="{PALETTE[0]}"' in svg and f'<g stroke="{PALETTE[2]}"' in svg
        assert f'stroke="{PALETTE[1]}"' not in svg

    def test_coordinate_layout_respects_scale(self):
        points = gen_random_pointset(5, seed=1)
        assert validate_pointset(points) is None
        drawn = [line.split('"') for line in circles(render_svg(points))]
        cx = [float(f[1]) for f in drawn]
        cy = [float(f[3]) for f in drawn]
        # One scale on both axes, y flipped; the longer side spans 560 px.
        xs, ys = [p.x for p in points], [p.y for p in points]
        span = max(max(xs) - min(xs), max(ys) - min(ys))
        for i in range(1, 5):
            assert cx[i] - cx[0] == pytest.approx((points[i].x - points[0].x) * 560 / span, abs=0.02)
            assert cy[0] - cy[i] == pytest.approx((points[i].y - points[0].y) * 560 / span, abs=0.02)

    def test_order_permutation_layout(self):
        # A shuffled convex polygon is drawn in its clockwise hull order.
        polygon = gen_convex_polygon(6, seed=4)
        perm = (3, 0, 5, 1, 4, 2)
        shuffled = PointSet([polygon[i] for i in perm])
        # Shuffled point j is polygon point perm[j]; the clockwise order
        # starts at point 0 (polygon point 3), so it takes slot perm[j] - 3.
        assert validate_pointset(shuffled) == (0, 4, 2, 1, 3, 5)
        slots = circles(on_circle(6))
        assert circles(render_svg(shuffled)) == [slots[(perm[j] - 3) % 6] for j in range(6)]

    def test_mismatched_coloring_rejected(self):
        coloring = Coloring(4, 1, [0] * 6)
        with pytest.raises(ValueError, match="n="):
            on_circle(5, coloring)
