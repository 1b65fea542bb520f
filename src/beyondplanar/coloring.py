"""Edge colorings of complete geometric graphs.

A coloring assigns every edge of K_n to exactly one color class. Classes
are dense integers 0..num_colors-1; partition constructors keep them
nonempty (`halving_line_partition` names its one exception), but the
container itself only requires assigned colors to be in range, so a class
may be empty (a parsed file may declare any count).
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .geometry import Edge, all_edges


class Coloring:
    """Total map from the edges of K_n to colors 0..num_colors-1."""

    __slots__ = ("n", "num_colors", "_assignment")

    def __init__(self, n: int, num_colors: int, assignment: Mapping[Edge, int]):
        if n < 2:
            raise ValueError(f"a coloring needs n >= 2 vertices, got {n}")
        if num_colors < 1:
            raise ValueError(f"num_colors >= 1 required, got {num_colors}")
        amap = dict(assignment)
        expected = all_edges(n)
        if len(amap) != len(expected):
            raise ValueError(f"coloring covers {len(amap)} edges, K_{n} has {len(expected)}")
        colors = [amap.get(e) for e in expected]
        if None in colors or not 0 <= min(colors) <= max(colors) < num_colors:
            for e, c in zip(expected, colors):  # the first bad edge in `all_edges` order
                if c is None:
                    raise ValueError(f"edge {tuple(e)} has no color")
                if not 0 <= c < num_colors:
                    raise ValueError(f"edge {tuple(e)} has color {c} outside 0..{num_colors - 1}")
        self.n = n
        self.num_colors = num_colors
        self._assignment = dict(zip(expected, colors))  # in `all_edges` order

    def classes(self) -> dict[int, list[Edge]]:
        """Edge lists of the colors in use, in color order, each sorted lexicographically.

        Unused colors get no entry, so the cost follows the edges, not the
        declared color count.
        """
        out: dict[int, list[Edge]] = {}
        for e, color in self.items():
            out.setdefault(color, []).append(e)
        return dict(sorted(out.items()))

    def items(self) -> Iterator[tuple[Edge, int]]:
        """(edge, color) for every edge, in `all_edges` order."""
        return iter(self._assignment.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Coloring)
            and self.n == other.n
            and self.num_colors == other.num_colors
            and self._assignment == other._assignment
        )

    def __repr__(self) -> str:
        return f"Coloring(n={self.n}, num_colors={self.num_colors})"

