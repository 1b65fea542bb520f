"""The benchmark's own tests: quick runs of every workload and the gate's failure paths.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import importlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

cli = importlib.import_module("beyondplanar.cli")
bounds = sys.modules["beyondplanar.bounds"]
kernels_py = sys.modules["beyondplanar._kernels_py"]

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    DECLARED = json.load(fh)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    script = os.path.join(cwd, "perfbench", "run.py")
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_run_passes_the_gate_and_reports_every_declared_metric(workload, trace):
    # Seed 0 is the default seed, so the recorded output digests are checked too.
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0.5", "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr
    out = last_json(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert [(name, m["unit"]) for name, m in out["metrics"].items()] == [(d["name"], d["unit"]) for d in declared]
    if trace == "1":
        assert "span coverage: ok" in proc.stdout
        assert "kernel parity: " in proc.stdout


def test_traced_counts_repeat_exactly_for_a_seed():
    def counts(proc):
        metrics = last_json(proc)["metrics"]
        kernel = {k: v["value"] for k, v in metrics.items() if k.startswith("kernel.")}
        return {k: v for k, v in kernel.items() if k.endswith((".nodes", ".calls"))}

    first, second = (
        bench("--workload", "quasi-random", "--seed", "3", "--seconds", "0.5", "--trace", "1", "--quick")
        for _ in range(2)
    )
    assert counts(first) == counts(second)
    assert counts(first)["kernel.max_clique.nodes"] > 0


def test_exits_nonzero_without_output_when_the_package_is_missing():
    base = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(base, exist_ok=True)
    checkout = tempfile.mkdtemp(dir=base)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), checkout)
        shutil.copytree(HERE, os.path.join(checkout, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "quasi-random", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=checkout)
    finally:
        shutil.rmtree(checkout)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_digest_mismatch_fails_every_command():
    reference = {"oracle_sizes": {}, "digests": {"quasi-random/quick": [["0" * 16] * 4] * 6}}
    with run.workspace() as workdir:
        b = run.Bench("quasi-random", run.DEFAULT_SEED, True, workdir, reference)
        outcome = b.pipeline(b.make_pool()[0])
    assert outcome.commands == 4
    assert len(outcome.failures) == 4
    assert all("digest" in f for f in outcome.failures)


def test_family_colors_follow_the_formula():
    assert gate.family_colors(40, 17) == 9 + 3
    assert gate.family_colors(24, 12) == 6
    assert gate.family_colors(10, 2) == 1


def test_parse_coloring_rejects_incomplete_or_miscounted_files():
    assert gate.parse_coloring("3 2\n0 1 0\n0 2 1\n1 2 0\n").num_colors == 2
    with pytest.raises(gate.GateError):
        gate.parse_coloring("3 2\n0 1 0\n0 2 1\n")
    with pytest.raises(gate.GateError):
        gate.parse_coloring("3 3\n0 1 0\n0 2 1\n1 2 0\n")


def test_kplanar_witness_is_recounted_on_the_coordinates():
    points = run.convex_points(8, random.Random(0))
    coloring = gate.ParsedColoring(8, 1, {(u, v): 0 for u in range(8) for v in range(u + 1, 8)})
    crossings = 3 * 3  # chord 0-4 of a convex octagon: 3 points on each side
    gate.check_kplanar_witness(f"FAIL kplanar class=0 edge=0-4 crossings={crossings} limit=1\n", coloring, points, 1)
    with pytest.raises(gate.GateError):
        gate.check_kplanar_witness("FAIL kplanar class=0 edge=0-4 crossings=8 limit=1\n", coloring, points, 1)
    with pytest.raises(gate.GateError):
        gate.check_kplanar_witness("FAIL kplanar class=0 edge=0-1 crossings=0 limit=1\n", coloring, points, 1)


def test_oracle_check_uses_the_reference_size_and_recounts_crossings():
    result = bounds.max_k_plane_subgraph(6, 1)
    gate.check_oracle(result, 6, 1, result.size)
    with pytest.raises(gate.GateError):
        gate.check_oracle(result, 6, 1, result.size + 1)
    crossing = bounds.SubgraphSearchResult(3, ((0, 3), (1, 4), (2, 5)), True, 0)  # three diameters
    with pytest.raises(gate.GateError):
        gate.check_oracle(crossing, 6, 1, None)


def test_kernel_replay_reports_size_or_node_differences():
    adj = [0b110, 0b101, 0b011]
    size, _, _, nodes = kernels_py.max_clique(adj)
    assert spans.replay_kernel_calls([("kernel.max_clique", (adj,), {}, size, nodes)], kernels_py) == []
    assert len(spans.replay_kernel_calls([("kernel.max_clique", (adj,), {}, size, nodes + 1)], kernels_py)) == 1


def test_tracer_wraps_every_namespace_and_restores_it():
    fileio = sys.modules["beyondplanar.fileio"]
    originals = (cli.cli_dispatch, cli.parse_coloring, fileio.parse_coloring)
    tracer = spans.Tracer()
    with tracer.pipeline():
        assert cli.parse_coloring is not originals[1] and fileio.parse_coloring is not originals[2]
        cli.parse_coloring("3 1\n0 1 0\n0 2 0\n1 2 0\n")
    assert (cli.cli_dispatch, cli.parse_coloring, fileio.parse_coloring) == originals
    assert tracer.calls["fileio.parse_coloring"] == 1
    assert tracer.parents["pipeline", "fileio.parse_coloring"] == 1
    assert tracer.file_bytes == len("3 1\n0 1 0\n0 2 0\n1 2 0\n")
