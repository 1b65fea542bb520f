#!/usr/bin/env python3
"""Record perfbench/reference.json from the package as it is now.

    python3 perfbench/record.py

The reference holds the proven witness size of max_k_plane_subgraph for
every (n, k) the extremal-oracle workload draws, and, for the default
seed, the output digest of every command of every pipeline in the CLI
workloads' instance pools, at full and quick sizes. run.py fails a
command whose output differs. Re-record only when an output is meant to
change; every other check of the gate must pass while recording.
"""

from __future__ import annotations

import importlib
import json
import sys

import gate
import run


def main() -> int:
    sys.path.insert(0, run.SRC)
    importlib.import_module("beyondplanar.cli")
    bounds = sys.modules["beyondplanar.bounds"]
    reference: dict = {"oracle_sizes": {}, "digests": {}}
    for quick in (False, True):
        for n, k in run.CHOICES[quick]["extremal-oracle"]:
            result = bounds.max_k_plane_subgraph(n, k)
            gate.check_oracle(result, n, k, None)
            reference["oracle_sizes"][f"{n},{k}"] = result.size
        for workload in ("quasi-random", "convex-slope"):
            with run.workspace() as workdir:
                bench = run.Bench(workload, run.DEFAULT_SEED, quick, workdir, None)
                digests = []
                for job in bench.make_pool():
                    outcome = bench.pipeline(job)
                    if outcome.failures:
                        print("\n".join(outcome.failures), file=sys.stderr)
                        return 1
                    digests.append(outcome.digests)
            reference["digests"][run.reference_key(workload, quick)] = digests
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
