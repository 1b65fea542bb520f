"""Command-line behavior: pipelines, exit codes, witnesses, determinism."""

import subprocess
import sys

import pytest

from beyondplanar.cli import cli_dispatch
from beyondplanar.coloring import Coloring
from beyondplanar.fileio import parse_coloring, write_coloring
from beyondplanar.geometry import all_edges, gen_convex_polygon
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
        col.write_text(write_coloring(Coloring(6, 1, {e: 0 for e in all_edges(6)})))
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

    def test_halving_without_family_section_is_2(self, paths, capsys):
        assert run("gen", "convex", "--n", "6", "--out", paths["inst"]) == 0
        assert run("partition", "halving", "--k", "3", "--in", paths["inst"]) == 2
        assert "family" in capsys.readouterr().err

    def test_verify_mismatched_n_is_2(self, paths, tmp_path, capsys):
        assert run("gen", "convex", "--n", "6", "--out", paths["inst"]) == 0
        col = tmp_path / "c.txt"
        col.write_text(write_coloring(Coloring(4, 1, {e: 0 for e in all_edges(4)})))
        assert run("verify", "kplanar", "--k", "1", "--in", str(col), "--instance", paths["inst"]) == 2
        assert "n=" in capsys.readouterr().err

    def test_kplanar_verify_failure_is_1(self, paths, tmp_path, capsys):
        col = tmp_path / "k6.txt"
        col.write_text(write_coloring(Coloring(6, 1, {e: 0 for e in all_edges(6)})))
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

    def test_bounds_reports_ok(self, capsys):
        assert run("bounds", "--n", "20", "--k", "1") == 0
        out = capsys.readouterr().out
        assert "crossing-lemma" in out and "VIOLATED" not in out

    def test_bounds_small_n_skips_lemma_row(self, capsys):
        assert run("bounds", "--n", "5", "--k", "2") == 0
        out = capsys.readouterr().out
        assert "crossing-lemma" not in out and "kplanar-edge-bound" in out


class TestStdoutData:
    def test_gen_to_stdout(self, capsys):
        assert run("gen", "convex", "--n", "4") == 0
        out = capsys.readouterr().out
        assert out.startswith("4\n")

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


class TestRenderSvg:
    def test_three_points_single_class(self):
        svg = render_svg(3)
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
        coloring = Coloring(n, 14, {e: (e.u + e.v) % 14 for e in all_edges(n)})
        svg = render_svg(n, coloring)
        assert f'stroke="{PALETTE[0]}"' in svg
        assert svg.count(f'stroke="{PALETTE[0]}"') == 2  # color 0 and color 12 reuse it
        assert svg.count("<g stroke=") == 14

    def test_class_count_matches_coloring(self):
        coloring = Coloring(12, 4, {e: (e.u % 4) for e in all_edges(12)})
        svg = render_svg(12, coloring)
        assert svg.count("<g stroke=") == 4
        assert svg.count("<line") == 66

    def test_coordinate_layout_respects_scale(self):
        points = gen_convex_polygon(5, seed=1)
        svg = render_svg(points)
        assert "<circle" in svg and svg.count("<circle") == 5

    def test_order_permutation_layout(self):
        points = gen_convex_polygon(6, seed=4)
        identity = tuple(range(6))
        assert render_svg(points, order=identity) == render_svg(6)

    def test_bad_order_rejected(self):
        points = gen_convex_polygon(4, seed=0)
        with pytest.raises(ValueError, match="permutation"):
            render_svg(points, order=(0, 1, 2, 2))

    def test_mismatched_coloring_rejected(self):
        coloring = Coloring(4, 1, {e: 0 for e in all_edges(4)})
        with pytest.raises(ValueError, match="n="):
            render_svg(5, coloring)

    def test_labels_option(self):
        svg = render_svg(4, labels=True)
        assert "<text" in svg and ">3</text>" in svg
