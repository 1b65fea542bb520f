"""Command-line surface: generate, partition, verify, bounds, render.

Exit codes: 0 success/verified, 1 verification failure, 2 usage, parse,
or validation error. Every outcome is reported as a one-line summary on
stdout (errors on stderr); data goes to --out, or stdout when --out is
omitted.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from .coloring import Coloring
from .convex import slope_partition, verify_k_planar
from .fileio import Instance, ParseError, parse_coloring, parse_instance, write_coloring, write_instance
from .geometry import (
    GenerationError,
    PointSet,
    all_edges,
    gen_convex_polygon,
    gen_perfect_crossing_family_pointset,
    gen_random_pointset,
    validate_pointset,
)
from .quasiplanar import (
    DEFAULT_BUDGET,
    SearchBudgetError,
    crossing_family_partition,
    double_star_partition,
    halving_line_partition,
    is_k_quasi_planar,
)
from .svg import render_svg


class CommandError(Exception):
    """Invalid input or unusable precondition; maps to exit code 2."""


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc.strerror or exc}") from None


def _emit(text: str, out: str | None, summary: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CommandError(f"cannot write {out}: {exc.strerror or exc}") from None
    print(f"{summary} out={out}")


def _load_instance(path: str) -> Instance:
    return parse_instance(_read_text(path))


def _load_coloring(path: str) -> Coloring:
    return parse_coloring(_read_text(path))


def _fmt_edge(e) -> str:
    return f"{e.u}-{e.v}"


def _cmd_gen(args) -> int:
    if args.n < 1:
        raise CommandError(f"--n must be positive, got {args.n}")
    if args.mode == "convex":
        instance = Instance(gen_convex_polygon(args.n, args.seed))
    elif args.mode == "random":
        instance = Instance(gen_random_pointset(args.n, args.seed))
    else:
        points, family = gen_perfect_crossing_family_pointset(args.n, args.seed)
        instance = Instance(points, tuple(family))
    fam = len(instance.family) if instance.family is not None else 0
    summary = f"instance mode={args.mode} n={instance.points.n} family={fam}"
    _emit(write_instance(instance), args.out, summary)
    return 0


def _cmd_partition(args) -> int:
    instance = _load_instance(getattr(args, "in"))
    points = instance.points
    extra = ""

    if args.mode == "slope":
        if args.s is None:
            raise CommandError("partition slope requires --s")
        report = validate_pointset(points)
        if not report.convex_position:
            raise CommandError("slope partition requires points in convex position")
        order = report.convex_cyclic_order
        pos = {orig: p for p, orig in enumerate(order)}
        base = slope_partition(points.n, args.s)
        coloring = Coloring(
            points.n,
            base.num_colors,
            {e: base.get(pos[e.u], pos[e.v]) for e in all_edges(points.n)},
        )
    elif args.mode == "doublestar":
        if points.n % 2 != 0:
            raise CommandError(f"double-star partition requires an even point count, got {points.n}")
        decomposition = double_star_partition(points)
        coloring = Coloring(
            points.n,
            decomposition.n,
            {e: i for i, tree in enumerate(decomposition.trees) for e in tree},
        )
    elif args.mode == "halving":
        if args.k is None:
            raise CommandError("partition halving requires --k")
        if instance.family is None:
            raise CommandError("partition halving requires an instance with a family section")
        coloring = halving_line_partition(points, instance.family, args.k)
    else:  # family
        if args.k is None:
            raise CommandError("partition family requires --k")
        coloring, report = crossing_family_partition(points, args.k, budget=args.budget)
        extra = f" m={report.m}"
        if report.note:
            extra += f" note={report.note!r}"

    summary = f"coloring mode={args.mode} n={points.n} colors={coloring.num_colors}{extra}"
    _emit(write_coloring(coloring), args.out, summary)
    return 0


def _convex_realization(n: int) -> PointSet:
    # Index order equals clockwise order, so crossings depend only on n.
    return gen_convex_polygon(n, seed=0)


def _cmd_verify(args) -> int:
    coloring = _load_coloring(getattr(args, "in"))
    if args.instance is not None:
        points = _load_instance(args.instance).points
        if points.n != coloring.n:
            raise CommandError(f"instance has n={points.n}, coloring has n={coloring.n}")
    else:
        points = None  # points in convex position, index order clockwise

    if args.mode == "kplanar":
        instance = coloring.n if points is None else points
        for color, edges in enumerate(coloring.classes()):
            result = verify_k_planar(instance, edges, args.k)
            if not result.ok:
                edge = _fmt_edge(result.witness)
                print(f"FAIL kplanar class={color} edge={edge} crossings={result.crossings} limit={args.k}")
                return 1
        print(f"verified kplanar k={args.k} n={coloring.n} classes={coloring.num_colors}")
        return 0

    if args.k < 2:
        raise CommandError(f"quasiplanar verification requires k >= 2, got {args.k}")
    if points is None and coloring.n < 3:
        print(f"verified quasiplanar k={args.k} n={coloring.n} classes={coloring.num_colors}")
        return 0
    realized = points if points is not None else _convex_realization(coloring.n)
    for color, edges in enumerate(coloring.classes()):
        result = is_k_quasi_planar(realized, edges, args.k, budget=args.budget)
        if not result.ok:
            witness = ",".join(_fmt_edge(e) for e in result.witness)
            print(f"FAIL quasiplanar class={color} k={args.k} witness={witness}")
            return 1
    print(f"verified quasiplanar k={args.k} n={coloring.n} classes={coloring.num_colors}")
    return 0


def _fraction_str(value: Fraction | float) -> str:
    if isinstance(value, Fraction):
        return f"{float(value):.2f}" if value.denominator != 1 else str(value.numerator)
    return f"{value:.2f}"


def _cmd_bounds(args) -> int:
    n, k = args.n, args.k
    if n < 3:
        raise CommandError(f"--n must be at least 3, got {n}")
    if k < 0:
        raise CommandError(f"--k must be nonnegative, got {k}")
    e = n * (n - 1) // 2
    observed = bounds_mod.count_crossings(n)
    rows = []
    if k <= 4:
        rows.append(
            bounds_mod.BoundReport(
                "kplanar-edge-bound", f"n={n} k={k}", _fraction_str(bounds_mod.edge_bound_small_k(n, k)), "-", None
            )
        )
    else:
        rows.append(
            bounds_mod.BoundReport(
                "kplanar-edge-bound", f"n={n} k={k}", _fraction_str(bounds_mod.edge_bound_general(n, k)), "-", None
            )
        )
    if 2 * e >= 9 * n:
        lemma = bounds_mod.crossing_lemma_bound(n, e)
        rows.append(
            bounds_mod.BoundReport(
                "crossing-lemma", f"n={n} e={e}", _fraction_str(lemma), str(observed), observed >= lemma
            )
        )
    peel = bounds_mod.peeling_bound(n, e)
    rows.append(bounds_mod.BoundReport("edge-peeling", f"n={n} e={e}", str(peel), str(observed), observed >= peel))
    if k >= 1:
        lower, upper = bounds_mod.kplanar_color_bounds(n, k)
        rows.append(
            bounds_mod.BoundReport("kplanar-colors", f"n={n} k={k}", f"[{lower}, {upper}]", "-", lower <= upper)
        )
    if n >= 5:
        lo = bounds_mod.one_planar_lower_bound(n)
        hi = -(-n // 3)
        rows.append(bounds_mod.BoundReport("one-planar-colors", f"n={n}", f"[{lo}, {hi}]", "-", lo <= hi))

    header = f"{'bound':<24} {'instance':<22} {'formula':>14} {'observed':>14} status"
    print(header)
    for row in rows:
        print(row.line())
    return 0 if all(row.satisfied is not False for row in rows) else 1


def _cmd_render(args) -> int:
    instance = _load_instance(getattr(args, "in"))
    points = instance.points
    coloring = _load_coloring(args.coloring) if args.coloring is not None else None
    if coloring is not None and coloring.n != points.n:
        raise CommandError(f"instance has n={points.n}, coloring has n={coloring.n}")
    report = validate_pointset(points)
    if report.convex_position:
        svg = render_svg(points, coloring, order=report.convex_cyclic_order)
    else:
        svg = render_svg(points, coloring)
    classes = coloring.num_colors if coloring is not None else 1
    _emit(svg, args.out, f"svg n={points.n} classes={classes}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beyondplanar",
        description="Partition complete geometric graphs into k-planar and k-quasi-planar subgraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("mode", choices=["convex", "random", "crossing-family"])
    gen.add_argument("--n", type=int, required=True, help="point count (crossing-family: family size, 2n points)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_gen)

    part = sub.add_parser("partition", help="partition an instance into subgraph classes")
    part.add_argument("mode", choices=["slope", "doublestar", "halving", "family"])
    part.add_argument("--in", required=True, help="instance file ('-' for stdin)")
    part.add_argument("--out", default=None)
    part.add_argument("--s", type=int, default=None, help="slope interval size (slope mode)")
    part.add_argument("--k", type=int, default=None, help="quasi-planarity parameter (halving/family modes)")
    part.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    part.set_defaults(func=_cmd_partition)

    ver = sub.add_parser("verify", help="verify a coloring file")
    ver.add_argument("mode", choices=["kplanar", "quasiplanar"])
    ver.add_argument("--in", required=True, help="coloring file ('-' for stdin)")
    ver.add_argument("--k", type=int, required=True)
    ver.add_argument(
        "--instance",
        default=None,
        help="instance file with coordinates; omitted means convex position in index order",
    )
    ver.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    ver.set_defaults(func=_cmd_verify)

    bnd = sub.add_parser("bounds", help="print a bound report table")
    bnd.add_argument("--n", type=int, required=True)
    bnd.add_argument("--k", type=int, default=1)
    bnd.set_defaults(func=_cmd_bounds)

    ren = sub.add_parser("render", help="render an instance and coloring as SVG")
    ren.add_argument("--in", required=True, help="instance file ('-' for stdin)")
    ren.add_argument("--coloring", default=None)
    ren.add_argument("--out", default=None)
    ren.set_defaults(func=_cmd_render)
    return parser


def cli_dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CommandError, ParseError, ValueError, GenerationError, SearchBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
