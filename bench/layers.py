"""Per-layer timings of the width solver, polygon extraction and artifacts.

Times, as the best of three samples per round (each sample loops a call
long enough to be measured, as ``timeit`` does):

- ``plan_build_s``: building the operator plan for one (IFS, grid);
- ``plan_apply_s``: one application of a built plan;
- ``selfsim_operator_s``: one public ``selfsim_operator`` call (plan
  build plus one application);
- ``solve_width_s``: the whole fixed-point solve at tol 1e-6 (the CLI's);
- ``extract_polygon_s``: kink detection and polygon extraction;
- ``width_csv_s``: the CSV text of the solved width (``fractalhull solve``).

The matrix is the twindragon (c = 0.707, grid-aligned rotation), |z| = 2
at phi = 1 (c = 0.5, off-grid rotation), |z| = 1.05 and |z| = 1.01 at
phi = 2 (c = 0.95 and 0.99, slow contraction), one random 4-map affine
system and one random 2-map similarity system (c = 0.96, a rotation and a
reflection: the sweep-bound systems of perfbench's hull-slow), each at
grid sizes 1024, 4096 and 65536.  Two more rows time the
twindragon's ``fractalhull render`` layers at 5 000 and 20 000 points (the
CLI default): ``chaos_game_sample_s``, the chaos-game cloud (seed 1), and
``render_svg_s``, the SVG of its exact polygon and that cloud.  The last
two time the query layers of the twindragon and of one random 3-map affine
system at grid 4096: ``build_context_s``, and ``near1_s`` and ``near_s``,
the mean time of one call over a fixed mix of 256 probes drawn as
perfbench's ``query`` workload draws them (half near images of fixed
points under words of 1-8 maps, half anywhere in the disk of 1.2 R around
x0; ``l`` cycling through 0.1, 0.01 and 0.001 R, ``k`` through 4 and 12).
The closed-form rows time the complex-base hull polygons (two digits):
``exact_polygon_s`` for the twindragon, |z| = 2 at phi = pi/3 and
|z| = 1.2 at phi = pi/64 (k = 64, the largest denominator detected), and
``irrational_polygon_s`` for |z| = 2 at phi = 1 (tol 1e-8) and |z| = 1.05
at phi = 2 (tol 1e-6).

Each ``label=SRC`` pair names a ``fractalhull`` source tree and the
column its figures go to; a version without an operator plan reports
``null`` for the plan layers.  Every row (one system and grid, or one
point count) is timed in ``ROUNDS`` rounds per tree, each a fresh
subprocess, alternating between the trees (A B B A A B ...), so a slow
phase of the machine lands on both columns alike.  A column keeps each
layer's minimum over its rounds, and ``spread`` holds ``max / min - 1`` of
those rounds: a change/parent ratio inside the spreads is not resolved.

    python bench/layers.py parent=../parent/src change=src --out layers.json

``--out`` is written anew with every column.  Set one BLAS thread
(``OPENBLAS_NUM_THREADS=1``) for figures comparable with ``perfbench``;
the subprocesses inherit it.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import platform
import subprocess
import sys
import timeit
from pathlib import Path

import numpy as np

GRIDS = (1024, 4096, 65536)
POINTS = (5000, 20000)
QUERY_GRID = 4096
QUERY_PROBES = 256
TOL = 1e-6
REPEAT = 3
ROUNDS = 4
RANDOM_SEED = 0


def random_affine(fh, count=4):
    rng = np.random.default_rng(RANDOM_SEED)
    maps = []
    for _ in range(count):
        a = rng.normal(size=(2, 2))
        a *= rng.uniform(0.4, 0.8) / fh.operator_norm(a)
        maps.append((a, rng.uniform(-1.0, 1.0, 2)))
    return fh.validate_ifs(maps)


def random_similarity(fh):
    rng = np.random.default_rng(RANDOM_SEED)
    maps = []
    for flip in (np.diag([1.0, -1.0]), np.eye(2)):
        th = rng.uniform(0.0, 2.0 * math.pi)
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        maps.append((0.96 * rot @ flip, rng.uniform(-1.0, 1.0, 2)))
    return fh.validate_ifs(maps)


# (name, builder of the IFS from the package) pairs of the matrix
SYSTEMS = (
    ("twindragon", lambda fh: fh.complex_base_ifs(1 + 1j, 2)),
    ("|z|=2 phi=1",
     lambda fh: fh.complex_base_ifs(2.0 * complex(math.cos(1.0), math.sin(1.0)), 2)),
    ("|z|=1.05 phi=2",
     lambda fh: fh.complex_base_ifs(1.05 * complex(math.cos(2.0), math.sin(2.0)), 2)),
    ("|z|=1.01 phi=2",
     lambda fh: fh.complex_base_ifs(1.01 * complex(math.cos(2.0), math.sin(2.0)), 2)),
    (f"random 4-map affine (seed {RANDOM_SEED})", random_affine),
    (f"random 2-map similarity c=0.96 (seed {RANDOM_SEED})", random_similarity),
)
QUERY_SYSTEMS = (
    SYSTEMS[0],
    (f"random 3-map affine (seed {RANDOM_SEED})", lambda fh: random_affine(fh, 3)),
)
# (name, base z, tol): tol None times exact_polygon, else irrational_polygon
CLOSED_FORMS = (
    ("twindragon", 1 + 1j, None),
    ("|z|=2 phi=pi/3", cmath.rect(2.0, math.pi / 3), None),
    ("|z|=1.2 phi=pi/64", cmath.rect(1.2, math.pi / 64), None),
    ("|z|=2 phi=1", cmath.rect(2.0, 1.0), 1e-8),
    ("|z|=1.05 phi=2", cmath.rect(1.05, 2.0), 1e-6),
)
# one row per (system, grid), one per render point count, one per query
# system, one per closed form
ROWS = ([("solve", s, n) for s in range(len(SYSTEMS)) for n in GRIDS]
        + [("render", None, k) for k in POINTS]
        + [("query", q, QUERY_GRID) for q in range(len(QUERY_SYSTEMS))]
        + [("closed", c, None) for c in range(len(CLOSED_FORMS))])


def best_time(fn) -> float:
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(REPEAT, number)) / number


def query_probes(fh, ifs, ctx) -> list:
    """``(x, l, k)`` per probe: the perfbench ``query`` mix, drawn from
    ``RANDOM_SEED`` so that every tree gets the same probes."""
    rng = np.random.default_rng(RANDOM_SEED)
    fixed = [fh.map_fixed_point(m) for m in ifs.maps]
    probes = []
    for j in range(QUERY_PROBES):
        if j % 2 == 0:
            x = fixed[rng.integers(len(fixed))]
            for _ in range(rng.integers(1, 9)):
                x = ifs.maps[rng.integers(len(ifs))](x)
            rad = 0.2
        else:
            x, rad = ctx.x0, 1.2
        rad *= ctx.radius * math.sqrt(rng.uniform())
        ang = rng.uniform(0.0, 2.0 * math.pi)
        x = (float(x[0] + rad * math.cos(ang)), float(x[1] + rad * math.sin(ang)))
        probes.append((x, (0.1, 0.01, 0.001)[j % 3] * ctx.radius, (4, 12)[j // 8 % 2]))
    return probes


def measure_query_row(fh, q: int, n: int) -> dict:
    name, build = QUERY_SYSTEMS[q]
    ifs = build(fh)
    w = fh.solve_width(ifs, n, TOL)
    ctx = fh.build_context(ifs, w)
    probes = query_probes(fh, ifs, ctx)
    near, near1 = fh.near, fh.near1

    def run_near1():
        for x, l, _ in probes:
            near1(ctx, x, l)

    def run_near():
        for x, _, k in probes:
            near(ctx, x, k)

    return {"system": name, "grid": n, "c": ifs.c, "maps": len(ifs),
            "probes": len(probes),
            "build_context_s": best_time(lambda: fh.build_context(ifs, w)),
            "near1_s": best_time(run_near1) / len(probes),
            "near_s": best_time(run_near) / len(probes)}


def measure_row(fh, width_mod, index: int) -> dict:
    """Time the layers of row ``index`` of ``ROWS`` in this process."""
    kind, s, n = ROWS[index]
    if kind == "query":
        return measure_query_row(fh, s, n)
    if kind == "closed":
        name, z, tol = CLOSED_FORMS[s]
        system = fh.complex_base_system(z, 2)
        if tol is None:
            fn, key = (lambda: fh.exact_polygon(system)[0]), "exact_polygon_s"
        else:
            fn, key = (lambda: fh.irrational_polygon(system, tol)), "irrational_polygon_s"
        return {"system": name, "tol": tol, "vertices": len(fn()), key: best_time(fn)}
    if kind == "render":
        ifs = fh.complex_base_ifs(1 + 1j, 2)
        poly, _ = fh.exact_polygon(fh.complex_base_system(1 + 1j, 2))
        cloud = fh.chaos_game_sample(ifs, n, 1).points
        return {"system": "twindragon", "points": n, "vertices": len(poly),
                "chaos_game_sample_s": best_time(lambda: fh.chaos_game_sample(ifs, n, 1)),
                "render_svg_s": best_time(lambda: fh.render_svg(poly, cloud))}
    name, build = SYSTEMS[s]
    ifs = build(fh)
    plan_cls = getattr(width_mod, "_OperatorPlan", None)
    grid = fh.DirectionGrid(n)
    w = fh.solve_width(ifs, n, TOL)
    row = {"system": name, "grid": n, "c": ifs.c, "maps": len(ifs),
           "iterations": w.iterations,
           "plan_build_s": None, "plan_apply_s": None}
    if plan_cls is not None:
        plan = plan_cls(ifs, grid)
        row["plan_build_s"] = best_time(lambda: plan_cls(ifs, grid))
        row["plan_apply_s"] = best_time(lambda: plan.apply(w.values))
    row["selfsim_operator_s"] = best_time(lambda: fh.selfsim_operator(ifs, w))
    row["solve_width_s"] = best_time(lambda: fh.solve_width(ifs, n, TOL))
    try:
        fh.extract_polygon(w)
    except fh.FractalHullError as exc:
        row["extract_polygon_s"] = None
        row["extract_error"] = type(exc).__name__
    else:
        row["extract_polygon_s"] = best_time(lambda: fh.extract_polygon(w))
    row["width_csv_s"] = best_time(lambda: fh.width_csv(w))
    return row


def fold_rounds(rounds: list[dict]) -> dict:
    """One row from its rounds: each timed layer's minimum, and in
    ``spread`` its ``max / min - 1`` over the rounds."""
    row = dict(rounds[0])
    row["spread"] = {}
    for key, value in rounds[0].items():
        if key.endswith("_s") and value is not None:
            times = [r[key] for r in rounds]
            row[key] = min(times)
            row["spread"][key] = max(times) / min(times) - 1.0
    return row


def tree(pair: str) -> tuple[str, str]:
    label, sep, src = pair.partition("=")
    if not (label and sep and src):
        raise argparse.ArgumentTypeError(f"expected label=SRC, got {pair!r}")
    return label, str(Path(src).resolve())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="+", type=tree, metavar="label=SRC",
                    help="column name and the directory holding its fractalhull package")
    ap.add_argument("--out", help="JSON file to write")
    ap.add_argument("--row", type=int, default=None,
                    help="time only this row for the one tree given, in this "
                         "process, and print it as JSON (what each subprocess runs)")
    args = ap.parse_args(argv)

    if args.row is not None:
        if len(args.trees) != 1:
            ap.error("--row times one tree")
        sys.path.insert(0, args.trees[0][1])
        import fractalhull as fh
        import fractalhull.width as width_mod

        print(json.dumps(measure_row(fh, width_mod, args.row)), flush=True)
        return 0
    if not args.out:
        ap.error("--out is required")
    labels = dict(args.trees)
    if len(labels) != len(args.trees):
        ap.error("column labels must differ")

    columns = {label: [] for label in labels}
    for index in range(len(ROWS)):
        rounds = {label: [] for label in labels}
        order = list(labels)
        for _ in range(ROUNDS):
            for label in order:
                proc = subprocess.run(
                    [sys.executable, __file__, "--row", str(index),
                     f"{label}={labels[label]}"],
                    stdout=subprocess.PIPE, text=True, check=True)
                rounds[label].append(json.loads(proc.stdout))
            order.reverse()
        for label in labels:
            row = fold_rounds(rounds[label])
            columns[label].append(row)
            print(label, json.dumps(row), flush=True)
    doc = {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "timing": (f"seconds per call: the best of {ROUNDS} rounds, each the "
                   f"best of {REPEAT} autoranged samples; each round a fresh "
                   "subprocess, the trees alternating A B B A ...; spread is "
                   "max / min - 1 over a tree's rounds"),
        "tol": TOL,
        "columns": columns,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
