"""Outside-in tracing: the package's entry points wrapped in timed spans.

A span records its name, its parent span and its duration; a span's self
time is its duration minus that of its child spans. Spans fire only
inside `Tracer.pipeline()`, whose root span is the pipeline itself. The
kernel spans also count search nodes and unproven results from the
kernels' return tuples, and the file spans count the bytes parsed and
written. Everything stays in memory until the run reports.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module under beyondplanar, attribute, span name). The wrapper replaces
# the attribute in every beyondplanar module that holds the same object,
# since cli, bounds and fileio import these functions by name.
ENTRY_POINTS = (
    ("cli", "cli_dispatch", "cli.cli_dispatch"),
    ("quasiplanar", "build_crossing_graph", "quasiplanar.build_crossing_graph"),
    ("quasiplanar", "is_k_quasi_planar", "quasiplanar.is_k_quasi_planar"),
    ("quasiplanar", "crossing_family_partition", "quasiplanar.crossing_family_partition"),
    ("quasiplanar", "halving_line_partition", "quasiplanar.halving_line_partition"),
    ("quasiplanar", "double_star_partition", "quasiplanar.double_star_partition"),
    ("quasiplanar", "max_crossing_family", "quasiplanar.max_crossing_family"),
    ("quasiplanar", "check_pairwise_crossing", "quasiplanar.check_pairwise_crossing"),
    ("convex", "verify_k_planar", "convex.verify_k_planar"),
    ("convex", "count_convex_crossings", "convex.count_convex_crossings"),
    ("convex", "slope_partition", "convex.slope_partition"),
    ("bounds", "count_crossings", "bounds.count_crossings"),
    ("bounds", "max_k_plane_subgraph", "bounds.max_k_plane_subgraph"),
    ("geometry", "gen_convex_polygon", "geometry.gen_convex_polygon"),
    ("geometry", "find_collinear_triple", "geometry.find_collinear_triple"),
    ("geometry", "validate_pointset", "geometry.validate_pointset"),
    ("fileio", "parse_instance", "fileio.parse_instance"),
    ("fileio", "parse_coloring", "fileio.parse_coloring"),
    ("fileio", "write_coloring", "fileio.write_coloring"),
    ("svg", "render_svg", "svg.render_svg"),
    ("_native", "max_clique", "kernel.max_clique"),
    ("_native", "max_conflict_bounded_set", "kernel.max_conflict_bounded_set"),
)
SPANS = tuple(span for _, _, span in ENTRY_POINTS)
KERNELS = ("kernel.max_clique", "kernel.max_conflict_bounded_set")

# Spans whose self time is crossing-structure work: the pair-by-pair
# crossing loops a single crossing layer would replace.
CROSSING_SPANS = (
    "quasiplanar.build_crossing_graph",
    "quasiplanar.is_k_quasi_planar",
    "quasiplanar.check_pairwise_crossing",
    "convex.verify_k_planar",
    "convex.count_convex_crossings",
    "bounds.count_crossings",
)


class Tracer:
    """Wraps every entry point while installed; aggregates spans per name."""

    def __init__(self, capture_kernel_calls: bool = False) -> None:
        self.self_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.parents: Counter[tuple[str, str]] = Counter()
        self.nodes: Counter[str] = Counter()
        self.unproven: Counter[str] = Counter()
        self.file_bytes = 0
        self.capture_kernel_calls = capture_kernel_calls
        self.kernel_calls: list[tuple[str, tuple, dict, int, int]] = []
        self._stack: list[list] = []  # [span name, child seconds]
        self._patches: list[tuple[object, str, object, object]] = []
        for module, attr, span in ENTRY_POINTS:
            original = getattr(sys.modules[f"beyondplanar.{module}"], attr)
            wrapper = self._wrap(span, original)
            for name, mod in list(sys.modules.items()):
                if name == "beyondplanar" or name.startswith("beyondplanar."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original, wrapper))

    def install(self) -> None:
        for mod, key, _, wrapper in self._patches:
            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original, _ in self._patches:
            setattr(mod, key, original)

    @contextmanager
    def pipeline(self):
        """Root span of one traced pipeline, with the wrappers installed."""
        root = ["pipeline", 0.0]
        self.install()
        self._stack.append(root)
        try:
            yield
        finally:
            self._stack.pop()
            self.uninstall()

    def _wrap(self, span: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                parent[1] += elapsed
                self.self_s[span] += elapsed - frame[1]
                self.calls[span] += 1
                self.parents[parent[0], span] += 1
            self._count(span, args, kwargs, result)
            return result

        return traced

    def _count(self, span: str, args: tuple, kwargs: dict, result) -> None:
        if span in KERNELS:
            size, _, proven, nodes = result
            self.nodes[span] += nodes
            self.unproven[span] += not proven
            if self.capture_kernel_calls:
                self.kernel_calls.append((span, args, kwargs, size, nodes))
        elif span in ("fileio.parse_instance", "fileio.parse_coloring"):
            self.file_bytes += len((args[0] if args else kwargs["text"]).encode())
        elif span == "fileio.write_coloring":
            self.file_bytes += len(result.encode())


def replay_kernel_calls(calls, reference) -> list[str]:
    """Re-run captured kernel calls through `reference`; report size or node-count differences."""
    mismatches = []
    for span, args, kwargs, size, nodes in calls:
        ref = getattr(reference, span.split(".", 1)[1])(*args, **kwargs)
        if (ref[0], ref[3]) != (size, nodes):
            mismatches.append(f"{span}: size/nodes {size}/{nodes}, {reference.__name__} gives {ref[0]}/{ref[3]}")
    return mismatches
