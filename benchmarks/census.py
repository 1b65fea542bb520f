"""Line census: which lines of the package the end-to-end benchmark runs.

Runs each workload of `perfbench/run.py` in this process, untraced by
spans (`--trace 0`), for a few seconds, under a `sys.settrace` line hook
limited to `src/beyondplanar`. The hook starts before the benchmark
imports the package, so module-level lines (imports, `def` lines)
count too. It prints one row per module: the lines that carry bytecode
(`dis.findlinestarts` over every code object of the module), how many
of them ran in any workload, and how many did not. `--lines` lists the
lines that did not run. It reads `perfbench/` and changes nothing there;
the benchmark makes and removes its own work directory.

Usage: python3 benchmarks/census.py [CHECKOUT] [--seconds S] [--seed N] [--lines]
"""

from __future__ import annotations

import argparse
import dis
import io
import json
import sys
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def code_lines(path: Path) -> set[int]:
    """Every line of the module at `path` where some code object's instructions start."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)  # 0: the module's RESUME
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_workloads(checkout: Path, seconds: float, seed: int) -> tuple[dict[str, set[int]], dict[str, dict]]:
    """(lines run per module file, last JSON line per workload) of every workload under the line hook."""
    package = str(checkout / "src" / "beyondplanar") + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def hook(frame, event, arg):  # a call: trace its lines only in the package
        return local if frame.f_code.co_filename.startswith(package) else None

    sys.path.insert(0, str(checkout / "perfbench"))
    import run  # perfbench/run.py; it imports the package only inside main()

    results = {}
    for workload in run.WORKLOADS:
        out = io.StringIO()
        sys.settrace(hook)
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                run.main(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"])
        finally:
            sys.settrace(None)
        results[workload] = json.loads(out.getvalue().splitlines()[-1])
    return ran, results


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as "a, b-c, ..."."""
    out: list[list[int]] = []
    for line in lines:
        if out and line == out[-1][1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=ROOT, help="repository root (default: this one)")
    parser.add_argument("--seconds", type=float, default=2.0, help="timed loop of each workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lines", action="store_true", help="list the lines that did not run")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()

    ran, results = run_workloads(checkout, args.seconds, args.seed)
    for workload, result in results.items():
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    total_run = total_idle = 0
    print(f"{'module':<16} {'ran':>5} {'idle':>5}")
    for path in sorted((checkout / "src" / "beyondplanar").glob("*.py")):
        lines = code_lines(path)
        hit = lines & ran.get(str(path), set())
        idle = sorted(lines - hit)
        total_run += len(hit)
        total_idle += len(idle)
        print(f"{path.name:<16} {len(hit):>5} {len(idle):>5}" + (f"  {ranges(idle)}" if args.lines and idle else ""))
    print(f"{'total':<16} {total_run:>5} {total_idle:>5}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
