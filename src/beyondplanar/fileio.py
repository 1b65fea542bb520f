"""Plain-text instance and coloring formats with canonical writers.

Instance file: point count, one "x y" per line, then optionally a family
section ("family <count>" followed by one "u v" per line) whose edges must
pairwise cross. Coloring file: "n c" header, then one "u v color" line per
edge of K_n in lexicographic order. Writers are byte-stable; parsers
report 1-based line numbers on every error.

A coloring file in the writer's exact form, which is what every
`partition` command writes, is read in one bulk pass (`_writer_form`):
its separators, its token count against the header's n before anything
of size C(n, 2) is built, its (u, v) tokens against K_n's lexicographic
order, and the range of its colors. Any other text, with comments,
blank lines, CRLF, tabs, other line orders, signs, underscores or an
error, goes to the line loop, which is the only author of error
messages. Both read the same text to the same coloring.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, repeat

from .coloring import Coloring
from .geometry import Edge, Point, PointSet, check_pairwise_crossing, quote_int


_QUOTE_CHARS = 60  # most characters of an offending line quoted in an error


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Instance:
    points: PointSet
    family: tuple[Edge, ...] | None = None


def _tokens(text: str):
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield idx, line.split()


def _quote(parts: list[str]) -> str:
    """The line's tokens, quoted; a long line is cut to a short prefix."""
    text = " ".join(parts)
    cut = f"... ({len(parts)} tokens, {len(text)} characters)" if len(text) > _QUOTE_CHARS else ""
    return repr(text[:_QUOTE_CHARS]) + cut


def _expect_ints(line_no: int, parts: list[str], count: int, what: str) -> list[int]:
    if len(parts) != count:
        raise ParseError(line_no, f"expected {what}, got {_quote(parts)}")
    values = []
    for p in parts:
        try:
            values.append(int(p))
        except ValueError:
            # int() refuses a plain digit string only past the digits it converts.
            too_long = re.fullmatch(r"[+-]?\d+", p)
            got = f"an integer too long to read ({len(p.lstrip('+-'))} digits)" if too_long else _quote(parts)
            raise ParseError(line_no, f"expected {what}, got {got}") from None
    return values


def write_instance(instance: Instance) -> str:
    lines = [str(instance.points.n)]
    lines += [f"{p.x} {p.y}" for p in instance.points]
    if instance.family is not None:
        lines.append(f"family {len(instance.family)}")
        lines += [f"{e.u} {e.v}" for e in sorted(instance.family)]
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> Instance:
    stream = _tokens(text)
    try:
        line_no, parts = next(stream)
    except StopIteration:
        raise ParseError(1, "empty instance file") from None
    (n,) = _expect_ints(line_no, parts, 1, "a point count")
    if n < 1:
        raise ParseError(line_no, f"point count must be >= 1, got {quote_int(n)}")

    pts = []
    for _ in range(n):
        try:
            line_no, parts = next(stream)
        except StopIteration:
            raise ParseError(line_no, f"expected {quote_int(n)} points, file ended after {len(pts)}") from None
        x, y = _expect_ints(line_no, parts, 2, "a point 'x y'")
        try:
            pts.append(Point(x, y))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None

    try:
        points = PointSet(pts)
    except ValueError as exc:
        raise ParseError(line_no, str(exc)) from None

    family = None
    rest = list(stream)
    if rest:
        line_no, parts = rest[0]
        if parts[0] != "family":
            raise ParseError(line_no, f"expected 'family <count>' or end of file, got {_quote(parts)}")
        (fn,) = _expect_ints(line_no, parts[1:], 1, "'family <count>'")
        if len(rest) - 1 != fn:
            raise ParseError(line_no, f"family section declares {quote_int(fn)} edges, found {len(rest) - 1}")
        edges = []
        for line_no, parts in rest[1:]:
            u, v = _expect_ints(line_no, parts, 2, "a family edge 'u v'")
            if u == v or not 0 <= u < n or not 0 <= v < n:
                raise ParseError(line_no, f"invalid edge ({quote_int(u)}, {quote_int(v)}) for n={quote_int(n)}")
            edges.append(Edge.of(u, v))
        if len(set(edges)) != len(edges):
            raise ParseError(line_no, "family section repeats an edge")
        if not check_pairwise_crossing(points, edges):
            raise ParseError(line_no, "family edges do not pairwise cross")
        family = tuple(sorted(edges))
    return Instance(points, family)


def write_coloring(coloring: Coloring) -> str:
    lines = [f"{coloring.n} {coloring.num_colors}"]
    lines += [f"{e.u} {e.v} {c}" for e, c in coloring.items()]
    return "\n".join(lines) + "\n"


def _writer_form(text: str) -> tuple[int, int, list[int]] | None:
    """(n, c, colors) of a coloring file exactly as `write_coloring` writes it, else None.

    Checked in bulk, with no Python loop over the lines: the separators
    must be the writer's " " and "\\n" between ASCII digit tokens, the
    token count must be the header's 3 C(n, 2) + 2 before anything of
    size C(n, 2) is built, and the (u, v) tokens must spell K_n's edges
    in lexicographic order as str() writes them. Only the header and the
    colors go through int(), which reads a leading zero as the line loop
    does. None sends the text to the loop.
    """
    if not text.isascii():
        return None
    seps = text.encode().translate(None, b"0123456789")
    if seps[:2] != b" \n" or seps[2:] != b"  \n" * ((len(seps) - 2) // 3):
        return None
    tokens = text.split()
    if len(tokens) != len(seps):  # an empty token between two separators
        return None
    try:
        n, c = int(tokens[0]), int(tokens[1])
        if n < 2 or c < 1 or len(tokens) != 2 + 3 * (n * (n - 1) // 2):
            return None
        colors = list(map(int, tokens[4::3]))
    except ValueError:  # a token past int()'s digit limit
        return None
    names = list(map(str, range(n)))
    if tokens[2::3] != list(chain.from_iterable(map(repeat, names, range(n - 1, -1, -1)))):
        return None
    if tokens[3::3] != list(chain.from_iterable(names[u + 1 :] for u in range(n))):
        return None
    if max(colors) >= c:  # digits only, so no color is negative
        return None
    return n, c, colors


def parse_coloring(text: str) -> Coloring:
    bulk = _writer_form(text)
    if bulk is not None:
        return Coloring(*bulk)
    # Any other text, and every error, takes the line loop.
    stream = _tokens(text)
    try:
        line_no, parts = next(stream)
    except StopIteration:
        raise ParseError(1, "empty coloring file") from None
    n, c = _expect_ints(line_no, parts, 2, "a header 'n num_colors'")
    if n < 2 or c < 1:
        raise ParseError(line_no, f"invalid header n={quote_int(n)}, num_colors={quote_int(c)}")

    assignment: dict[tuple[int, int], int] = {}
    last = line_no
    for line_no, parts in stream:
        last = line_no
        try:
            u, v, color = map(int, parts)
        except ValueError:
            _expect_ints(line_no, parts, 3, "an edge line 'u v color'")  # raises with the reason
            raise
        if u == v or not 0 <= u < n or not 0 <= v < n:
            raise ParseError(line_no, f"invalid edge ({quote_int(u)}, {quote_int(v)}) for n={quote_int(n)}")
        e = (u, v) if u < v else (v, u)
        if e in assignment:
            raise ParseError(line_no, f"duplicate line for edge ({quote_int(e[0])}, {quote_int(e[1])})")
        if not 0 <= color < c:
            raise ParseError(line_no, f"color {quote_int(color)} outside 0..{quote_int(c - 1)}")
        assignment[e] = color
    absent = n * (n - 1) // 2 - len(assignment)
    if absent:
        # Lazy: the header's n may be far larger than the file.
        u, v = next((u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in assignment)
        raise ParseError(last, f"missing edge ({u}, {v}) ({quote_int(absent)} edges absent)")
    return Coloring(n, c, [color for _, color in sorted(assignment.items())])
