"""Edge colorings of complete geometric graphs.

A coloring assigns every edge of K_n to exactly one color class. Classes
are dense integers 0..num_colors-1; partition constructors keep them all
nonempty, but the container itself only requires assigned colors to be in
range, so partial verifier workflows can build colorings incrementally.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .geometry import Edge, all_edges


class Coloring:
    """Total map from the edges of K_n to colors 0..num_colors-1."""

    __slots__ = ("n", "num_colors", "_assignment")

    def __init__(self, n: int, num_colors: int, assignment: Mapping[Edge, int] | Iterable[tuple[Edge, int]]):
        if n < 2:
            raise ValueError(f"a coloring needs n >= 2 vertices, got {n}")
        if num_colors < 1:
            raise ValueError(f"num_colors >= 1 required, got {num_colors}")
        amap = dict(assignment.items() if isinstance(assignment, Mapping) else assignment)
        expected = all_edges(n)
        if len(amap) != len(expected):
            raise ValueError(f"coloring covers {len(amap)} edges, K_{n} has {len(expected)}")
        for e in expected:
            c = amap.get(e)
            if c is None:
                raise ValueError(f"edge {tuple(e)} has no color")
            if not 0 <= c < num_colors:
                raise ValueError(f"edge {tuple(e)} has color {c} outside 0..{num_colors - 1}")
        self.n = n
        self.num_colors = num_colors
        self._assignment = amap

    def color_of(self, e: Edge) -> int:
        return self._assignment[Edge.of(e[0], e[1])]

    def get(self, u: int, v: int) -> int:
        return self._assignment[Edge.of(u, v)]

    def classes(self) -> list[list[Edge]]:
        """Edge lists per color, each sorted lexicographically."""
        out: list[list[Edge]] = [[] for _ in range(self.num_colors)]
        for e in all_edges(self.n):
            out[self._assignment[e]].append(e)
        return out

    def class_edges(self, color: int) -> list[Edge]:
        if not 0 <= color < self.num_colors:
            raise ValueError(f"color {color} outside 0..{self.num_colors - 1}")
        return [e for e in all_edges(self.n) if self._assignment[e] == color]

    def items(self) -> Iterator[tuple[Edge, int]]:
        for e in all_edges(self.n):
            yield e, self._assignment[e]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Coloring)
            and self.n == other.n
            and self.num_colors == other.num_colors
            and self._assignment == other._assignment
        )

    def __repr__(self) -> str:
        return f"Coloring(n={self.n}, num_colors={self.num_colors})"

