#!/usr/bin/env python3
"""Seeded end-to-end benchmark of beyondplanar: the commands users run, timed from outside.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]

Workloads (BENCHMARK.json says why each was chosen):

* quasi-random: random point sets, n in {24, 32, 40}. A pipeline runs
  `partition family --k 3`, `verify quasiplanar --k 3 --instance`,
  `partition doublestar` and `verify quasiplanar --k 3 --instance`.
* convex-slope: convex point sets, n in {24, 32, 40}. A pipeline runs
  `partition slope --s 3`, `verify kplanar --k 1` with and without
  `--instance`, `verify quasiplanar --k 3` without an instance,
  `partition slope --s 4` with a `verify kplanar --k 1` that must exit 1,
  `bounds --n N --k 1` and `render`.
* extremal-oracle: one library call `bounds.max_k_plane_subgraph(n, k)`
  per pipeline, (n, k) from ORACLE_PAIRS.

The load generator is one process with one thread and one client in a
closed loop: a pipeline starts when the previous one has ended. CLI
commands go through `beyondplanar.cli.cli_dispatch` in-process with
stdout captured, on files in a work directory inside the checkout. The
seed draws the inputs with this benchmark's own generators, so they do
not change when the package's generators do. Sizes are drawn in blocks
that hold every size once, in an order the seed shuffles.

Set-up (`setup_s`) is the package import plus the median of SETUP_REPEATS
repetitions of writing the instance files and running one warm-up
pipeline. With `--trace 0` pipelines run in passes over the instance
pool for `--seconds` and the end-to-end metrics are reported. Each
instance's values are reduced to their median over its passes, so that
every instance weighs the same, and `.p50` and `.p90` are quantiles of
those medians across the pool. Right before each pipeline the run times
`probe()`, a fixed crossing loop that does not touch the package, and
`pipeline_probes.p50` is the same quantile of pipeline time divided by
that probe time. On a shared host, other tenants can slow pure-Python
work by up to about 2x for minutes at a time (seen on a 2-vCPU VM); the
probe slows with the pipeline next to it, so this ratio holds still
where seconds do not, and a slower program still raises it. With `--trace 1` whole
passes run over the first TRACE_BLOCKS blocks, each instance once plain
and once traced (spans.py), and the per-layer metrics are reported per
traced pipeline, so their counts repeat exactly for a seed.

Every command's output is checked (gate.py). The run exits 1 when a
command fails, an expected span never fires, or the compiled kernel
disagrees with the pure one on the captured kernel calls; it exits 2
when the package source is missing. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics, whose
names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import gcd
from time import perf_counter
from typing import Callable

import gate
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("quasi-random", "convex-slope", "extremal-oracle")
ORACLE_PAIRS = ((8, 4), (8, 5), (9, 2), (9, 3), (9, 4), (10, 2), (11, 2), (12, 1))
CHOICES = {
    False: {"quasi-random": (24, 32, 40), "convex-slope": (24, 32, 40), "extremal-oracle": ORACLE_PAIRS},
    True: {"quasi-random": (10, 12, 14), "convex-slope": (8, 10, 12), "extremal-oracle": ((6, 1), (6, 2), (7, 1))},
}
DEFAULT_SEED = 0
# Blocks in a CLI workload's instance pool: few enough that every instance
# runs in several passes within a run.
POOL_BLOCKS = {False: 10, True: 2}
TRACE_BLOCKS = 2
SETUP_REPEATS = 5
BOX = 10**6  # random coordinates lie in [0, BOX]^2
PARABOLA_X = 30_000  # convex points (x, x^2) keep |coordinates| below 2^30

# Spans each workload must fire at least once in a traced run.
EXPECTED_SPANS = {
    "quasi-random": (
        "cli.cli_dispatch",
        "quasiplanar.build_crossing_graph",
        "quasiplanar.is_k_quasi_planar",
        "quasiplanar.crossing_family_partition",
        "quasiplanar.halving_line_partition",
        "quasiplanar.double_star_partition",
        "quasiplanar.max_crossing_family",
        "quasiplanar.check_pairwise_crossing",
        "geometry.find_collinear_triple",
        "fileio.parse_instance",
        "fileio.parse_coloring",
        "fileio.write_coloring",
        "kernel.max_clique",
    ),
    "convex-slope": (
        "cli.cli_dispatch",
        "quasiplanar.is_k_quasi_planar",
        "convex.verify_k_planar",
        "convex.count_convex_crossings",
        "convex.slope_partition",
        "bounds.count_crossings",
        "geometry.gen_convex_polygon",
        "geometry.find_collinear_triple",
        "geometry.validate_pointset",
        "fileio.parse_instance",
        "fileio.parse_coloring",
        "fileio.write_coloring",
        "svg.render_svg",
        "kernel.max_clique",
    ),
    "extremal-oracle": (
        "bounds.max_k_plane_subgraph",
        "convex.verify_k_planar",
        "kernel.max_conflict_bounded_set",
    ),
}
CALLS_REPORTED = (
    "cli.cli_dispatch",
    "quasiplanar.build_crossing_graph",
    "quasiplanar.is_k_quasi_planar",
    "convex.verify_k_planar",
) + spans.KERNELS


@dataclass(frozen=True)
class Job:
    """Input of one pipeline: an instance file, or an oracle (n, k)."""

    index: int
    n: int
    k: int = 0
    points: tuple[tuple[int, int], ...] = ()
    path: str = ""


@dataclass(frozen=True)
class Step:
    stage: str  # partition, verify, bounds or render
    argv: list[str]
    output: str | None  # file the command writes
    check: Callable[[str, gate.ColoringFiles], None]
    rc: int = 0


@dataclass
class Outcome:
    index: int  # of the job in the pool
    seconds: float
    stages: Counter
    commands: int
    failures: list[str]
    digests: list[str]
    probe_s: float = 0.0  # probe() time right before the pipeline, when measured


def random_points(n: int, rng: random.Random) -> tuple[tuple[int, int], ...]:
    """n distinct integer points in [0, BOX]^2 with no three collinear."""
    pts: list[tuple[int, int]] = []
    directions: list[set[tuple[int, int]]] = []  # per point: reduced directions to later points
    while len(pts) < n:
        x, y = rng.randrange(BOX + 1), rng.randrange(BOX + 1)
        dirs = []
        for px, py in pts:
            dx, dy = x - px, y - py
            g = gcd(dx, dy)
            dirs.append((dx // g, dy // g) if (dx, dy) > (0, 0) else (-dx // g, -dy // g) if g else None)
        if any(d is None or d in directions[i] for i, d in enumerate(dirs)):
            continue
        for i, d in enumerate(dirs):
            directions[i].add(d)
        directions.append(set())
        pts.append((x, y))
    return tuple(pts)


def convex_points(n: int, rng: random.Random) -> tuple[tuple[int, int], ...]:
    """n points on the parabola y = x^2, clockwise in index order (x decreasing)."""
    xs = sorted(rng.sample(range(-PARABOLA_X, PARABOLA_X + 1), n), reverse=True)
    return tuple((x, x * x) for x in xs)


def instance_text(points) -> str:
    return f"{len(points)}\n" + "".join(f"{x} {y}\n" for x, y in points)


def quasi_steps(job: Job) -> list[Step]:
    p, n = job.path, job.n
    fam, ds = p + ".family", p + ".doublestar"
    return [
        Step(
            "partition",
            ["partition", "family", "--k", "3", "--in", p, "--out", fam],
            fam,
            lambda out, c: gate.check_family_partition(out, c(fam), n, fam),
        ),
        Step(
            "verify",
            ["verify", "quasiplanar", "--k", "3", "--in", fam, "--instance", p],
            None,
            lambda out, c: gate.check_verified(out, "quasiplanar", 3, c(fam)),
        ),
        Step(
            "partition",
            ["partition", "doublestar", "--in", p, "--out", ds],
            ds,
            lambda out, c: gate.check_partition(out, c(ds), "doublestar", n, n // 2, ds),
        ),
        Step(
            "verify",
            ["verify", "quasiplanar", "--k", "3", "--in", ds, "--instance", p],
            None,
            lambda out, c: gate.check_verified(out, "quasiplanar", 3, c(ds)),
        ),
    ]


def convex_steps(job: Job) -> list[Step]:
    p, n = job.path, job.n
    s3, s4, svg = p + ".s3", p + ".s4", p + ".svg"
    return [
        Step(
            "partition",
            ["partition", "slope", "--s", "3", "--in", p, "--out", s3],
            s3,
            lambda out, c: gate.check_partition(out, c(s3), "slope", n, -(-n // 3), s3),
        ),
        Step(
            "verify",
            ["verify", "kplanar", "--k", "1", "--in", s3],
            None,
            lambda out, c: gate.check_verified(out, "kplanar", 1, c(s3)),
        ),
        Step(
            "verify",
            ["verify", "kplanar", "--k", "1", "--in", s3, "--instance", p],
            None,
            lambda out, c: gate.check_verified(out, "kplanar", 1, c(s3)),
        ),
        Step(
            "verify",
            ["verify", "quasiplanar", "--k", "3", "--in", s3],
            None,
            lambda out, c: gate.check_verified(out, "quasiplanar", 3, c(s3)),
        ),
        Step(
            "partition",
            ["partition", "slope", "--s", "4", "--in", p, "--out", s4],
            s4,
            lambda out, c: gate.check_partition(out, c(s4), "slope", n, -(-n // 4), s4),
        ),
        Step(
            "verify",
            ["verify", "kplanar", "--k", "1", "--in", s4],
            None,
            lambda out, c: gate.check_kplanar_witness(out, c(s4), job.points, 1),
            rc=1,
        ),
        Step("bounds", ["bounds", "--n", str(n), "--k", "1"], None, lambda out, c: gate.check_bounds(out, n)),
        Step(
            "render",
            ["render", "--in", p, "--coloring", s3, "--out", svg],
            svg,
            lambda out, c: gate.check_render(out, _read(svg).decode(), n, c(s3).num_colors, svg),
        ),
    ]


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def run_command(cli, argv: list[str]) -> tuple[float, int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.cli_dispatch(argv)
    except Exception:  # a crash fails the command; the run goes on
        rc = None
        err.write(traceback.format_exc())
    return perf_counter() - t0, rc, out.getvalue(), err.getvalue()


def reference_key(workload: str, quick: bool) -> str:
    return workload + ("/quick" if quick else "")


class Bench:
    """One workload at one seed: its instance pool and its pipeline."""

    def __init__(self, workload: str, seed: int, quick: bool, workdir: str, reference: dict | None):
        self.workload = workload
        self.seed = seed
        self.quick = quick
        self.workdir = workdir
        self.choices = CHOICES[quick][workload]
        self.cli = sys.modules["beyondplanar.cli"]
        self.bounds = sys.modules["beyondplanar.bounds"]
        self.oracle_sizes = None if reference is None else reference["oracle_sizes"]
        use_digests = reference is not None and seed == DEFAULT_SEED and workload != "extremal-oracle"
        self.digests = reference["digests"][reference_key(workload, quick)] if use_digests else None

    def make_pool(self) -> list[Job]:
        rng = random.Random(f"{self.workload}:{self.seed}")
        pool: list[Job] = []
        for _ in range(1 if self.workload == "extremal-oracle" else POOL_BLOCKS[self.quick]):
            block = list(self.choices)
            rng.shuffle(block)
            for choice in block:
                i = len(pool)
                if self.workload == "extremal-oracle":
                    pool.append(Job(i, *choice))
                    continue
                gen = random_points if self.workload == "quasi-random" else convex_points
                points = gen(choice, rng)
                path = os.path.join(self.workdir, f"i{i}.txt")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(instance_text(points))
                pool.append(Job(i, choice, points=points, path=path))
        return pool

    def pipeline(self, job: Job, tracer: spans.Tracer | None = None) -> Outcome:
        if self.workload == "extremal-oracle":
            return self._oracle_pipeline(job, tracer)
        steps = quasi_steps(job) if self.workload == "quasi-random" else convex_steps(job)
        stages: Counter = Counter()
        results = []
        with tracer.pipeline() if tracer else nullcontext():
            t0 = perf_counter()
            for step in steps:
                dt, rc, out, err = run_command(self.cli, step.argv)
                stages[step.stage] += dt
                results.append((rc, out, err))
            seconds = perf_counter() - t0

        failures, digests = [], []
        colorings = gate.ColoringFiles()
        expected = None if self.digests is None else self.digests[job.index]
        for i, (step, (rc, out, err)) in enumerate(zip(steps, results)):
            try:
                digests.append(gate.digest(out, _read(step.output) if step.output else b"", self.workdir))
                if rc != step.rc:
                    raise gate.GateError(f"exit code {rc}, expected {step.rc}: {err.strip()[-400:]}")
                step.check(out, colorings)
                if expected is not None and digests[-1] != expected[i]:
                    raise gate.GateError("output differs from the digest recorded for the default seed")
            except Exception as exc:  # a check that cannot read the output fails the command
                failures.append(f"instance {job.index} (n={job.n}) {' '.join(step.argv[:2])}: {exc!r}")
        return Outcome(job.index, seconds, stages, len(steps), failures, digests)

    def _oracle_pipeline(self, job: Job, tracer: spans.Tracer | None) -> Outcome:
        result, error = None, ""
        with tracer.pipeline() if tracer else nullcontext():
            t0 = perf_counter()
            try:
                result = self.bounds.max_k_plane_subgraph(job.n, job.k)
            except Exception:  # a crash fails the call; the run goes on
                error = traceback.format_exc()
            seconds = perf_counter() - t0
        failures = []
        try:
            if result is None:
                raise gate.GateError(error)
            size = None if self.oracle_sizes is None else self.oracle_sizes[f"{job.n},{job.k}"]
            gate.check_oracle(result, job.n, job.k, size)
        except Exception as exc:  # a check that cannot read the result fails the call
            failures.append(f"max_k_plane_subgraph({job.n}, {job.k}): {exc!r}")
        return Outcome(job.index, seconds, Counter(), 1, failures, [])


@contextmanager
def workspace():
    """A fresh work directory inside the checkout, removed afterwards."""
    base = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(dir=base)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:  # another run still uses it
            pass


PROBE_POINTS = random_points(30, random.Random("probe"))
PROBE_CROSSINGS = 19_571  # crossing pairs of the complete graph on PROBE_POINTS


def probe() -> float:
    """Seconds for a fixed crossing-mask loop that does not touch the package.

    The loop does the same kind of work as the package (orientation tests
    and big-int bitmasks over every pair of edges), so a busy host slows
    it as much as it slows the pipelines.
    """
    pts = PROBE_POINTS
    edges = [(pts[u], pts[v]) for u in range(len(pts)) for v in range(u + 1, len(pts))]
    t0 = perf_counter()
    masks = [0] * len(edges)
    for i, (a, b) in enumerate(edges):
        for j in range(i + 1, len(edges)):
            c, d = edges[j]
            if a == c or a == d or b == c or b == d:
                continue
            if _side(a, b, c) != _side(a, b, d) and _side(c, d, a) != _side(c, d, b):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    seconds = perf_counter() - t0
    if sum(m.bit_count() for m in masks) != 2 * PROBE_CROSSINGS:
        raise AssertionError("probe counted the wrong number of crossings")
    return seconds


def _side(a, b, c) -> bool:
    return (b[0] - a[0]) * (c[1] - a[1]) > (b[1] - a[1]) * (c[0] - a[0])


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def source_commit() -> str | None:
    """HEAD of the checkout's git directory, if it has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            return next((line.split()[0] for line in fh if line.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def source_digest() -> str:
    """Digest of the package sources, which identifies the code when there is no git directory."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "beyondplanar")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            h.update(name.encode() + b"\0" + _read(os.path.join(pkg, name)))
    return h.hexdigest()[:16]


def instance_medians(outcomes: list[Outcome], value: Callable[[Outcome], float]) -> list[float]:
    """Per pool instance, the median of `value` over the instance's pipelines."""
    runs: dict[int, list[float]] = {}
    for o in outcomes:
        runs.setdefault(o.index, []).append(value(o))
    return [statistics.median(v) for v in runs.values()]


def end_to_end(workload: str, outcomes: list[Outcome], setup_s: float, failed: int, attempted: int) -> dict:
    times = instance_medians(outcomes, lambda o: o.seconds)
    metrics = {"pipeline_s.p50": (statistics.median(times), "s"), "pipeline_s.p90": (p90(times), "s")}
    if workload != "extremal-oracle":
        for stage in ("partition", "verify"):
            values = instance_medians(outcomes, lambda o: o.stages[stage])
            metrics[f"{stage}_s.p50"] = (statistics.median(values), "s")
            metrics[f"{stage}_s.p90"] = (p90(values), "s")
    if workload == "convex-slope":
        metrics["bounds_s.p50"] = (statistics.median(instance_medians(outcomes, lambda o: o.stages["bounds"])), "s")
    probes = instance_medians(outcomes, lambda o: o.seconds / o.probe_s)
    metrics["pipeline_probes.p50"] = (statistics.median(probes), "probe")
    metrics["pipeline_probes.p90"] = (p90(probes), "probe")
    metrics["pipelines_per_s"] = (len(outcomes) / sum(o.seconds for o in outcomes), "1/s")
    metrics["failed_ratio"] = (failed / attempted, "1")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def per_layer(tracer: spans.Tracer, traced: list[Outcome], plain: list[Outcome]) -> dict:
    count = len(traced)
    metrics = {f"{span}.self_s": (tracer.self_s[span] / count, "s") for span in spans.SPANS}
    for span in CALLS_REPORTED:
        metrics[f"{span}.calls"] = (tracer.calls[span] / count, "count")
    for span in spans.KERNELS:
        metrics[f"{span}.nodes"] = (tracer.nodes[span] / count, "count")
        metrics[f"{span}.unproven"] = (tracer.unproven[span] / count, "count")
    metrics["fileio.bytes"] = (tracer.file_bytes / count, "bytes")
    crossing = sum(tracer.self_s[span] for span in spans.CROSSING_SPANS)
    metrics["crossing.self_share"] = (crossing / sum(o.seconds for o in traced), "ratio")
    overhead = statistics.median(instance_medians(traced, lambda o: o.seconds)) / statistics.median(
        instance_medians(plain, lambda o: o.seconds)
    ) - 1
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def measure(bench: Bench, pool: list[Job], seconds: float) -> list[Outcome]:
    """Passes over the pool until `seconds` have passed, at least one whole pass."""
    outcomes: list[Outcome] = []
    deadline = perf_counter() + seconds
    while len(outcomes) < len(pool) or perf_counter() < deadline:
        probe_s = probe()
        outcomes.append(bench.pipeline(pool[len(outcomes) % len(pool)]))
        outcomes[-1].probe_s = probe_s
    return outcomes


def measure_traced(bench: Bench, jobs: list[Job], seconds: float, tracer: spans.Tracer):
    """Whole passes over `jobs`, each job once plain and once traced, in alternating order.

    A pass starts only when it is expected to end within `seconds`, and
    the kernel calls of the first pass are kept for the parity replay.
    """
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    start = perf_counter()
    passes = 0
    while True:
        pass_start = perf_counter()
        for job in jobs:
            for trace_on in (False, True) if passes % 2 == 0 else (True, False):
                if trace_on:
                    traced.append(bench.pipeline(job, tracer))
                else:
                    plain.append(bench.pipeline(job))
        tracer.capture_kernel_calls = False
        passes += 1
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            return plain, traced


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "beyondplanar", "cli.py")):
        print(f"error: package source {os.path.join(SRC, 'beyondplanar')} not found", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    calibration_start = probe()

    t0 = perf_counter()
    sys.path.insert(0, SRC)
    importlib.import_module("beyondplanar.cli")  # imports every module of the package
    import_s = perf_counter() - t0
    native = sys.modules["beyondplanar._native"]
    pure = sys.modules["beyondplanar._kernels_py"]

    with workspace() as workdir:
        bench = Bench(args.workload, args.seed, args.quick, workdir, reference)
        setup_times, warmups = [], []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            pool = bench.make_pool()
            warmups.append(bench.pipeline(min(pool[: len(bench.choices)], key=lambda j: (j.n, j.k))))
            setup_times.append(perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)

        tracer = None
        if args.trace:
            tracer = spans.Tracer(capture_kernel_calls=native.IMPLEMENTATION != pure.IMPLEMENTATION)
            plain, traced = measure_traced(bench, pool[: TRACE_BLOCKS * len(bench.choices)], args.seconds, tracer)
            outcomes = plain + traced
        else:
            outcomes = measure(bench, pool, args.seconds)
    calibration_end = probe()

    everything = warmups + outcomes
    attempted = sum(o.commands for o in everything)
    failures = [f for o in everything for f in o.failures]
    problems = list(failures)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "commit": source_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernel": native.IMPLEMENTATION,
        "host.calibration_s": [calibration_start, calibration_end],
        "pipelines": len(outcomes),
    }
    print("meta " + json.dumps(meta))

    if tracer is None:
        metrics = end_to_end(args.workload, outcomes, setup_s, len(failures), attempted)
        print("kernel parity: replayed in traced runs (--trace 1)")
    else:
        metrics = per_layer(tracer, traced, plain)
        missing = [span for span in EXPECTED_SPANS[args.workload] if not tracer.calls[span]]
        if missing:
            problems.append(f"span coverage: expected spans never fired: {', '.join(missing)}")
        else:
            print(f"span coverage: ok, all {len(EXPECTED_SPANS[args.workload])} expected spans fired")
        if native.IMPLEMENTATION == pure.IMPLEMENTATION:
            print(f"kernel parity: skipped, the package runs the {pure.IMPLEMENTATION} kernels (no compiled _kernels)")
        else:
            mismatches = spans.replay_kernel_calls(tracer.kernel_calls, pure)
            problems += [f"kernel parity: {m}" for m in mismatches]
            print(f"kernel parity: {len(tracer.kernel_calls)} captured calls replayed, {len(mismatches)} differ")
        for (parent, span), calls in sorted(tracer.parents.items()):
            print(f"span {span} parent={parent} calls={calls}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    if len(problems) > 20:
        print(f"FAILED ... and {len(problems) - 20} more")

    result = {}
    for entry in declared["per_layer" if args.trace else "end_to_end"]:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"metric {entry['name']} is measured in {unit}, BENCHMARK.json says {entry['unit']}")
        result[entry["name"]] = {"value": value, "unit": unit}
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
