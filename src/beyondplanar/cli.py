"""Command-line surface: generate, partition, verify, bounds, render.

Exit codes: 0 success/verified, 1 verification failure, 2 usage, parse,
or validation error. Every outcome is reported as a one-line summary on
stdout (errors on stderr); data goes to --out, or stdout when --out is
omitted.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from .convex import slope_partition, verify_k_planar
from .fileio import Instance, parse_coloring, parse_instance, write_coloring, write_instance
from .geometry import (
    GenerationError,
    gen_convex_polygon,
    gen_perfect_crossing_family_pointset,
    gen_random_pointset,
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


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise CommandError(f"--budget must be positive, got {budget}")


def _cmd_partition(args) -> int:
    _check_budget(args.budget)
    instance = parse_instance(_read_text(getattr(args, "in")))
    points = instance.points
    extra = ""

    if args.mode == "slope":
        if args.s is None:
            raise CommandError("partition slope requires --s")
        coloring = slope_partition(points, args.s)
    elif args.mode == "doublestar":
        coloring = double_star_partition(points)
    elif args.mode == "halving":
        if args.k is None:
            raise CommandError("partition halving requires --k")
        if instance.family is None:
            raise CommandError("partition halving requires an instance with a family section")
        m = len(instance.family)
        if args.k >= 3 and 2 * m != points.n:  # the k check in halving_line_partition comes first
            raise CommandError(f"family of size {m} cannot be perfect on {points.n} points")
        coloring = halving_line_partition(points, instance.family, args.k)
    else:  # family
        if args.k is None:
            raise CommandError("partition family requires --k")
        coloring, family = crossing_family_partition(points, args.k, budget=args.budget)
        extra = f" m={family.size}"
        if family.size < args.k:
            note = f"m={family.size} < k={args.k}: one color suffices"
            extra += f" note={note!r}"

    summary = f"coloring mode={args.mode} n={points.n} colors={coloring.num_colors}{extra}"
    _emit(write_coloring(coloring), args.out, summary)
    return 0


def _cmd_verify(args) -> int:
    _check_budget(args.budget)
    coloring = parse_coloring(_read_text(getattr(args, "in")))
    if args.instance is None:
        instance = coloring.n  # points in convex position, index order clockwise
    else:
        instance = parse_instance(_read_text(args.instance)).points
        if instance.n != coloring.n:
            raise CommandError(f"instance has n={instance.n}, coloring has n={coloring.n}")
    # Only the colors that occur: an empty class is trivially k-planar and
    # k-quasi-planar, and the header may declare far more colors than K_n
    # has edges.
    classes = coloring.classes()

    if args.mode == "quasiplanar":
        if args.k < 2:
            raise CommandError(f"quasiplanar verification requires k >= 2, got {args.k}")
        if args.instance is None and coloring.n < 3:
            classes = {}  # one edge at most, so nothing crosses
        elif args.instance is None:
            # Index order equals clockwise order, so crossings depend only on n.
            instance = gen_convex_polygon(coloring.n, seed=0)
    colors = list(classes)
    if args.mode == "kplanar":
        result = verify_k_planar(instance, classes.values(), args.k)
        if not result.ok:
            edge = _fmt_edge(result.witness)
            print(f"FAIL kplanar class={colors[result.index]} edge={edge} crossings={result.crossings} limit={args.k}")
            return 1
    else:
        result = is_k_quasi_planar(instance, classes.values(), args.k, budget=args.budget)
        if not result.ok:
            witness = ",".join(_fmt_edge(e) for e in result.witness)
            print(f"FAIL quasiplanar class={colors[result.index]} k={args.k} witness={witness}")
            return 1
    print(f"verified {args.mode} k={args.k} n={coloring.n} classes={coloring.num_colors}")
    return 0


def _fraction_str(value: Fraction | float) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    if value.denominator == 1:
        return str(value.numerator)
    cents = round(value * 100)  # exact, half to even; every rational row is positive
    return f"{cents // 100}.{cents % 100:02d}"


def _cmd_bounds(args) -> int:
    n, k = args.n, args.k
    if n < 3:
        raise CommandError(f"--n must be at least 3, got {n}")
    if k < 0:
        raise CommandError(f"--k must be nonnegative, got {k}")
    e = n * (n - 1) // 2
    observed = bounds_mod.count_crossings(n)
    try:
        shown = str(observed)  # C(n, 4), the largest number a row prints
    except ValueError:  # more digits than the interpreter converts to text
        raise CommandError("--n is too large to print its rows") from None
    edge_bound = bounds_mod.edge_bound_small_k if k <= 4 else bounds_mod.edge_bound_general
    # (bound, instance, formula, observed, holds); holds is None when nothing is checked.
    rows = [("kplanar-edge-bound", f"n={n} k={k}", _fraction_str(edge_bound(n, k)), "-", None)]
    if 2 * e >= 9 * n:
        lemma = bounds_mod.crossing_lemma_bound(n, e)
        rows.append(("crossing-lemma", f"n={n} e={e}", _fraction_str(lemma), shown, observed >= lemma))
    peel = bounds_mod.peeling_bound(n, e)
    rows.append(("edge-peeling", f"n={n} e={e}", str(peel), shown, observed >= peel))
    if k >= 1:
        lower, upper = bounds_mod.kplanar_color_bounds(n, k)
        rows.append(("kplanar-colors", f"n={n} k={k}", f"[{lower}, {upper}]", "-", lower <= upper))
    if n >= 5:
        lo = bounds_mod.one_planar_lower_bound(n)
        hi = -(-n // 3)
        rows.append(("one-planar-colors", f"n={n}", f"[{lo}, {hi}]", "-", lo <= hi))

    line = "{:<24} {:<22} {:>14} {:>14} {}".format
    print(line("bound", "instance", "formula", "observed", "status"))
    for *cells, holds in rows:
        print(line(*cells, "-" if holds is None else "ok" if holds else "VIOLATED"))
    return 0 if all(holds is not False for *_, holds in rows) else 1


def _cmd_render(args) -> int:
    points = parse_instance(_read_text(getattr(args, "in"))).points
    coloring = parse_coloring(_read_text(args.coloring)) if args.coloring is not None else None
    if coloring is not None and coloring.n != points.n:
        raise CommandError(f"instance has n={points.n}, coloring has n={coloring.n}")
    svg = render_svg(points, coloring)
    classes = coloring.num_colors if coloring is not None else 1
    _emit(svg, args.out, f"svg n={points.n} classes={classes}")
    return 0


@functools.cache
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
    except (CommandError, ValueError, OverflowError, GenerationError, SearchBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
