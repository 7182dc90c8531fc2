"""Command-line surface: solve, hull, render, query, exact, audit, verify.

Each subcommand accepts only the flags it reads; any other flag is a usage
error:

  solve, hull  --input --grid --tol --out
  render       --input --grid --tol --seed --points --out
  query        --input --grid --tol --point (--k | --dist) --c0
  exact        --input --tol --angles --out
  audit        --r-steps --phi-steps --out
  verify       (no flags)

Exit codes: 0 success, 1 parse/validation error, 2 verification failure.
All file outputs are deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import math
import sys

from .analytic import (
    complex_base_system,
    exact_polygon,
    hull_area,
    hull_perimeter,
    isodiametric_audit,
    rational_width,
    centered_width,
    symmetry_center,
)
from .errors import FractalHullError, ValidationError
from .hull import extract_polygon, polygon_area, polygon_json, polygon_perimeter
from .ifs import _check_finite, chaos_game_sample, load_ifs_file
from .query import build_context, near, near1
from .render import render_svg
from .width import _check_grid, _check_tol, solve_width, width_csv


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="fractalhull",
                description="Convex hulls of IFS attractors from width functions")
    sub = p.add_subparsers(dest="command", required=True)

    inp = argparse.ArgumentParser(add_help=False)
    inp.add_argument("--input", required=True, help="IFS JSON file")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid", type=int, default=4096,
                      help="direction grid size: even, 64 to 2**20")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=1e-6, help="solver tolerance")
    cloud = argparse.ArgumentParser(add_help=False)
    cloud.add_argument("--seed", type=int, default=0, help="chaos-game RNG seed")
    cloud.add_argument("--points", type=int, default=20000, help="chaos-game sample count")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output path (default: stdout)")

    sp = sub.add_parser("solve", parents=[inp, grid, tol, out],
                        help="solve the width function, write CSV")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("hull", parents=[inp, grid, tol, out],
                        help="extract the hull polygon, write JSON")
    sp.set_defaults(func=_cmd_hull)

    sp = sub.add_parser("render", parents=[inp, grid, tol, cloud, out],
                        help="render hull + samples as SVG")
    sp.set_defaults(func=_cmd_render)

    sp = sub.add_parser("query", parents=[inp, grid, tol],
                        help="proximity predicates near/near1")
    sp.add_argument("--point", required=True,
                    help="query point as x,y (use --point=x,y if x is negative)")
    sp.add_argument("--k", type=int, default=None, help="pull-back levels for near")
    sp.add_argument("--dist", type=float, default=None, help="distance threshold for near1")
    sp.add_argument("--c0", default="paper", choices=("paper", "safe"),
                    help="excess-constant mode")
    sp.set_defaults(func=_cmd_query)

    sp = sub.add_parser("exact", parents=[inp, out],
                        help="closed-form complex-base analytics")
    sp.add_argument("--tol", type=float, default=1e-9, help="series tolerance")
    sp.add_argument("--angles", default="", help="comma-separated angles (radians)")
    sp.set_defaults(func=_cmd_exact)

    sp = sub.add_parser("audit", parents=[out],
                        help="nonnegativity audit of the area/perimeter gap")
    sp.add_argument("--r-steps", type=int, default=60)
    sp.add_argument("--phi-steps", type=int, default=720)
    sp.set_defaults(func=_cmd_audit)

    sp = sub.add_parser("verify", help="run the full acceptance suite")
    sp.set_defaults(func=_cmd_verify)

    return p


def _write_out(args, text: str) -> None:
    """Write to --out if given, else to stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _info(args, line: str) -> None:
    # keep stdout byte-deterministic when it carries the artifact itself
    stream = sys.stdout if args.out else sys.stderr
    print(line, file=stream)


def _cmd_solve(args) -> int:
    doc = load_ifs_file(args.input)
    w = solve_width(doc.ifs, args.grid, args.tol)
    _write_out(args, width_csv(w))
    _info(args, f"iterations={w.iterations} iter_error={w.iter_error:.6g} "
                f"interp_slack={w.interp_slack:.6g}")
    return 0


def _polygon_for(doc, args):
    _check_tol(args.tol)  # the exact route reads neither, yet both must be valid
    _check_grid(args.grid)
    if doc.complex_base is not None:
        sys_ = complex_base_system(*doc.complex_base)
        if sys_.rational_angle is not None:
            return exact_polygon(sys_)[0]
    return extract_polygon(solve_width(doc.ifs, args.grid, args.tol))


def _cmd_hull(args) -> int:
    doc = load_ifs_file(args.input)
    poly = _polygon_for(doc, args)
    slack = poly.outer_slack
    _write_out(args, polygon_json(poly) + "\n")
    perim = polygon_perimeter(poly)
    _info(args, f"method={poly.method} vertices={len(poly)}")
    _info(args, f"area={polygon_area(poly):.10g} +- {perim * slack + math.pi * slack * slack:.3g}")
    _info(args, f"perimeter={perim:.10g} +- {2 * math.pi * slack:.3g}")
    return 0


def _cmd_render(args) -> int:
    doc = load_ifs_file(args.input)
    poly = _polygon_for(doc, args)
    cloud = chaos_game_sample(doc.ifs, args.points, args.seed)
    _write_out(args, render_svg(poly, cloud.points))
    return 0


def _cmd_query(args) -> int:
    doc = load_ifs_file(args.input)
    try:
        xs, ys = args.point.split(",")
        point = (float(xs), float(ys))
    except ValueError:
        raise ValidationError("--point must be x,y") from None
    if (args.k is None) == (args.dist is None):
        raise ValidationError("give exactly one of --k or --dist")
    w = solve_width(doc.ifs, args.grid, args.tol)
    ctx = build_context(doc.ifs, w, c0_mode=args.c0)
    if args.k is not None:
        res = near(ctx, point, args.k)
    else:
        res = near1(ctx, point, args.dist)
    print(f"{'true' if res.hit else 'false'} depth={res.depth} "
          f"complete={'yes' if res.complete else 'no'} slack={ctx.slack:.3g}")
    return 0


def _cmd_exact(args) -> int:
    doc = load_ifs_file(args.input)
    if doc.complex_base is None:
        raise ValidationError("exact analytics need a complex_base input")
    sys_ = complex_base_system(*doc.complex_base)
    tol = _check_tol(args.tol)
    try:
        angles = [float(tok) for tok in args.angles.split(",")] if args.angles else []
    except ValueError:
        raise ValidationError("--angles must be comma-separated numbers") from None
    _check_finite(angles, "--angles")
    center = symmetry_center(sys_)
    lines = [f"center = ({center[0]:.6f}, {center[1]:.6f}) (exact)"]
    lines.append(f"perimeter = {hull_perimeter(sys_):.6f} (exact)")
    lines.append(f"area = {hull_area(sys_, tol):.6f} +- {tol:.3g}")
    for ang in angles:
        if sys_.rational_angle is not None:
            val, err = rational_width(sys_, ang), 0.0
        else:
            val, err = centered_width(sys_, ang, tol), tol
        lines.append(f"width({ang:.6f}) = {val:.9f} +- {err:.3g}")
    if sys_.rational_angle is not None:
        lines.append("triangles (j, angle, a, b, c):")
        for t in exact_polygon(sys_)[1]:
            lines.append(f"  {t.j}  {t.angle % (2 * math.pi):.6f}  "
                         f"{t.a:.9f}  {t.b:.9f}  {t.c:.9f}")
    else:
        lines.append("angle is not a rational multiple of pi: no finite edge table")
    _write_out(args, "\n".join(lines) + "\n")
    return 0


def _cmd_audit(args) -> int:
    rs, phis, gaps = isodiametric_audit(args.r_steps, args.phi_steps)
    rows = ["r,phi,gap"]
    for i, r in enumerate(rs.tolist()):
        for j, phi in enumerate(phis.tolist()):
            rows.append(f"{r:.12g},{phi:.12g},{gaps[i, j]:.17g}")
    _write_out(args, "\n".join(rows) + "\n")
    worst = float(gaps.min())
    if worst < -1e-12:
        _info(args, f"audit FAILED: min gap {worst:.6g} < -1e-12")
        return 2
    _info(args, f"audit ok: min gap {worst:.6g} over "
                f"{args.r_steps}x{args.phi_steps} grid")
    return 0


def _cmd_verify(args) -> int:
    try:
        from .acceptance import run_all
    except ImportError as exc:
        raise FractalHullError(
            f"verify needs scipy, from the 'verify' extra ({exc})") from None
    results = run_all()
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail} [{res.seconds:.1f}s]")
        if not res.passed:
            failed += 1
    if failed:
        print(f"{failed} criterion(s) failed", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except FractalHullError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
