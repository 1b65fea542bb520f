"""Edge colorings of complete geometric graphs.

A coloring assigns every edge of K_n to exactly one color class, given
as one list of colors in `all_edges(n)` order. Classes are dense integers
0..num_colors-1; partition constructors keep them nonempty
(`halving_line_partition` names its one exception), but the container
itself only requires assigned colors to be plain ints in range, so a
class may be empty (a parsed file may declare any count).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .geometry import Edge, all_edges


class Coloring:
    """Total map from the edges of K_n to colors 0..num_colors-1.

    It keeps one list of colors in `all_edges(n)` order, as the partition
    constructors and the file parser give them, and no edges. The colors
    are checked in three passes: the edge count, then the first edge in
    `all_edges` order whose color is not a plain `int` (a `TypeError`, so
    that every accepted coloring writes a file that its parser reads),
    then the first one whose color is out of range.
    """

    __slots__ = ("n", "num_colors", "_colors")

    def __init__(self, n: int, num_colors: int, colors: Iterable[int]):
        if n < 2:
            raise ValueError(f"a coloring needs n >= 2 vertices, got {n}")
        if num_colors < 1:
            raise ValueError(f"num_colors >= 1 required, got {num_colors}")
        colors = list(colors)
        size = n * (n - 1) // 2
        if len(colors) != size:
            raise ValueError(f"coloring covers {len(colors)} edges, K_{n} has {size}")
        if not set(map(type, colors)) <= {int}:
            e, c = next((e, c) for e, c in zip(all_edges(n), colors) if type(c) is not int)
            raise TypeError(f"edge {tuple(e)} has color {c!r}, not an int")
        if not 0 <= min(colors) <= max(colors) < num_colors:
            e, c = next((e, c) for e, c in zip(all_edges(n), colors) if not 0 <= c < num_colors)
            raise ValueError(f"edge {tuple(e)} has color {c} outside 0..{num_colors - 1}")
        self.n = n
        self.num_colors = num_colors
        self._colors = colors

    def classes(self) -> dict[int, list[Edge]]:
        """Edge lists of the colors in use, in color order, each sorted lexicographically.

        Unused colors get no entry, so the cost follows the edges, not the
        declared color count.
        """
        out: dict[int, list[Edge]] = {}
        for e, color in zip(all_edges(self.n), self._colors):
            out.setdefault(color, []).append(e)
        return dict(sorted(out.items()))

    def items(self) -> Iterator[tuple[Edge, int]]:
        """(edge, color) for every edge, in `all_edges` order."""
        return zip(all_edges(self.n), self._colors)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Coloring)
            and self.n == other.n
            and self.num_colors == other.num_colors
            and self._colors == other._colors
        )

    def __repr__(self) -> str:
        return f"Coloring(n={self.n}, num_colors={self.num_colors})"
