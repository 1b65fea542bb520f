"""Measure the public surface of the package with an `ast` scan.

Reads every `src/beyondplanar/*.py` except `__init__.py`, and the
compiled kernels' `_kernels.c`, and prints four counts, one per line:

* lines: the physical lines of those `.py` files;
* parameters: the parameters of public top-level functions and of the
  public methods of public classes, `__init__` and properties included
  but the bound `self` or `cls` not, plus the annotated fields of
  public classes;
* names: the public top-level names (functions, classes and assigned
  names that do not start with an underscore);
* c_lines: the physical lines of `_kernels.c`.

Usage: python3 benchmarks/surface.py [PACKAGE_DIR]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "beyondplanar"


def _public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def _arity(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    a = fn.args
    return len(a.posonlyargs) + len(a.args) + len(a.kwonlyargs) + (a.vararg is not None) + (a.kwarg is not None)


def _assigned(node: ast.stmt) -> list[str]:
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def scan(package: Path) -> dict[str, int]:
    counts = {"lines": 0, "parameters": 0, "names": 0}
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        counts["lines"] += len(source.splitlines())
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _public(node.name):
                    counts["names"] += 1
                    counts["parameters"] += _arity(node)
            elif isinstance(node, ast.ClassDef):
                if not _public(node.name):
                    continue
                counts["names"] += 1
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(member.name):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in member.decorator_list)
                        counts["parameters"] += _arity(member) - (not static)
                    elif isinstance(member, ast.AnnAssign):
                        counts["parameters"] += 1
            else:
                counts["names"] += sum(_public(name) for name in _assigned(node))
    counts["c_lines"] = len((package / "_kernels.c").read_text(encoding="utf-8").splitlines())
    return counts


def main(argv: list[str]) -> None:
    package = Path(argv[0]) if argv else PACKAGE
    for key, value in scan(package).items():
        print(f"{key}: {value}")


if __name__ == "__main__":
    main(sys.argv[1:])
