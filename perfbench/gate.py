"""Correctness gate: checks every command's output without trusting the package.

Colorings are parsed by this module, color counts are compared with the
constructions' closed formulas, and every stated witness is re-counted
with the exact segment predicate `beyondplanar.geometry.segments_cross`
on the instance coordinates. Each check raises GateError on failure.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass


class GateError(Exception):
    """A command's output failed a correctness check."""


@dataclass(frozen=True)
class ParsedColoring:
    n: int
    num_colors: int
    colors: dict[tuple[int, int], int]

    def class_edges(self, color: int) -> list[tuple[int, int]]:
        return [e for e, c in self.colors.items() if c == color]


def parse_coloring(text: str) -> ParsedColoring:
    """Strict reader for the coloring format: 'n c', then 'u v color' for every edge of K_n."""
    lines = text.splitlines()
    try:
        n, c = (int(t) for t in lines[0].split())
        rows = [tuple(int(t) for t in line.split()) for line in lines[1:]]
    except ValueError as exc:
        raise GateError(f"malformed coloring: {exc}") from None
    colors: dict[tuple[int, int], int] = {}
    for row in rows:
        if len(row) != 3:
            raise GateError(f"malformed coloring line {row}")
        u, v, color = row
        if not 0 <= u < v < n or (u, v) in colors or not 0 <= color < c:
            raise GateError(f"invalid coloring line {u} {v} {color} for n={n} c={c}")
        colors[u, v] = color
    if len(colors) != n * (n - 1) // 2:
        raise GateError(f"coloring covers {len(colors)} of {n * (n - 1) // 2} edges")
    if len(set(colors.values())) != c:
        raise GateError(f"coloring declares {c} colors but uses {len(set(colors.values()))}")
    return ParsedColoring(n, c, colors)


class ColoringFiles:
    """Parses each coloring file of one pipeline once."""

    def __init__(self) -> None:
        self._parsed: dict[str, ParsedColoring] = {}

    def __call__(self, path: str) -> ParsedColoring:
        if path not in self._parsed:
            with open(path, encoding="utf-8") as fh:
                self._parsed[path] = parse_coloring(fh.read())
        return self._parsed[path]


def family_colors(n: int, m: int, k: int = 3) -> int:
    """Colors of the family partition: ceil(m/(k-1)) + ceil((n-2m)/(k-1)), or 1 when m < k."""
    if m < k:
        return 1
    return -(-m // (k - 1)) + -(-(n - 2 * m) // (k - 1))


def _expect(out: str, line: str) -> None:
    if out != line + "\n":
        raise GateError(f"stdout {out!r}, expected {line!r}")


def check_partition(out: str, coloring: ParsedColoring, mode: str, n: int, colors: int, path: str) -> None:
    if coloring.n != n or coloring.num_colors != colors:
        raise GateError(
            f"{mode} coloring has n={coloring.n} colors={coloring.num_colors}, expected n={n} colors={colors}"
        )
    _expect(out, f"coloring mode={mode} n={n} colors={colors} out={path}")


_FAMILY = re.compile(r"coloring mode=family n=(\d+) colors=(\d+) m=(\d+)(?: note='[^']*')? out=(.*)\n")


def check_family_partition(out: str, coloring: ParsedColoring, n: int, path: str) -> None:
    match = _FAMILY.fullmatch(out)
    if match is None or int(match[1]) != n or match[4] != path:
        raise GateError(f"unexpected family summary {out!r}")
    m = int(match[3])
    if not 1 <= m <= n // 2:
        raise GateError(f"family size m={m} impossible on n={n} points")
    expected = family_colors(n, m)
    if int(match[2]) != expected or coloring.num_colors != expected or coloring.n != n:
        raise GateError(f"family partition with m={m} has {coloring.num_colors} colors, formula gives {expected}")


def check_verified(out: str, mode: str, k: int, coloring: ParsedColoring) -> None:
    _expect(out, f"verified {mode} k={k} n={coloring.n} classes={coloring.num_colors}")


_KPLANAR_FAIL = re.compile(r"FAIL kplanar class=(\d+) edge=(\d+)-(\d+) crossings=(\d+) limit=(\d+)\n")


def check_kplanar_witness(out: str, coloring: ParsedColoring, coords: list[tuple[int, int]], k: int) -> None:
    """The violation's edge must cross more than k edges of its class, re-counted on the coordinates."""
    from beyondplanar.geometry import Point, segments_cross

    match = _KPLANAR_FAIL.fullmatch(out)
    if match is None or int(match[5]) != k:
        raise GateError(f"unexpected kplanar violation report {out!r}")
    color, u, v, stated = (int(match[i]) for i in (1, 2, 3, 4))
    if coloring.colors.get((u, v)) != color:
        raise GateError(f"witness edge {u}-{v} is not in class {color}")
    pts = [Point(x, y) for x, y in coords]
    recount = sum(segments_cross(pts[u], pts[v], pts[a], pts[b]) for a, b in coloring.class_edges(color))
    if recount != stated or recount <= k:
        raise GateError(f"witness {u}-{v} states {stated} crossings, re-count gives {recount} (limit {k})")


def check_bounds(out: str, n: int) -> None:
    """Every row holds, and every observed crossing count equals C(n, 4) for convex K_n."""
    rows = out.splitlines()[1:]
    if not rows:
        raise GateError("bounds printed no rows")
    for row in rows:
        tokens = row.split()
        if tokens[-1] not in ("ok", "-"):
            raise GateError(f"bound row not satisfied: {row!r}")
        if tokens[-2] != "-" and int(tokens[-2]) != math.comb(n, 4):
            raise GateError(f"observed {tokens[-2]} crossings, convex K_{n} has {math.comb(n, 4)}")


def check_render(out: str, svg: str, n: int, classes: int, path: str) -> None:
    _expect(out, f"svg n={n} classes={classes} out={path}")
    if not svg.startswith("<svg") or svg.count("<line ") != n * (n - 1) // 2 or svg.count("<circle ") != n:
        raise GateError(f"svg for n={n} does not draw every edge and point once")


def check_oracle(result, n: int, k: int, expected_size: int | None) -> None:
    """The witness is a proven, duplicate-free k-plane edge set on a realized convex polygon."""
    from beyondplanar.geometry import Point, segments_cross

    if not result.proven:
        raise GateError(f"oracle n={n} k={k} did not prove its optimum")
    edges = sorted({(min(e), max(e)) for e in result.edges})
    if len(edges) != len(result.edges) or len(edges) != result.size:
        raise GateError(f"oracle n={n} k={k} witness has {len(result.edges)} edges, size {result.size}")
    if any(not 0 <= u < v < n for u, v in edges):
        raise GateError(f"oracle n={n} k={k} witness has an edge outside 0..{n - 1}")
    pts = [Point(i, i * i) for i in range(n)]  # convex position, index order = cyclic order
    for u, v in edges:
        crossings = sum(segments_cross(pts[u], pts[v], pts[a], pts[b]) for a, b in edges)
        if crossings > k:
            raise GateError(f"oracle n={n} k={k} witness edge {u}-{v} crosses {crossings} edges")
    if expected_size is not None and result.size != expected_size:
        raise GateError(f"oracle n={n} k={k} found {result.size} edges, reference has {expected_size}")


def digest(stdout: str, output: bytes, workdir: str) -> str:
    """Digest of one command's summary lines and output file, independent of the work directory."""
    h = hashlib.sha256(stdout.replace(workdir, "<work>").encode())
    h.update(output)
    return h.hexdigest()[:16]
