"""Per-layer timings of the width solver, polygon extraction and artifacts.

Times, as the best of five samples (each sample loops a call long enough
to be measured, as ``timeit`` does), in this one process:

- ``plan_build_s``: building the operator plan for one (IFS, grid);
- ``plan_apply_s``: one application of a built plan;
- ``selfsim_operator_s``: one public ``selfsim_operator`` call (plan
  build plus one application);
- ``solve_width_s``: the whole fixed-point solve at tol 1e-6 (the CLI's);
- ``extract_polygon_s``: kink detection and polygon extraction;
- ``width_csv_s``: the CSV text of the solved width (``fractalhull solve``).

The matrix is the twindragon (c = 0.707, grid-aligned rotation), |z| = 2
at phi = 1 (c = 0.5, off-grid rotation), |z| = 1.05 and |z| = 1.01 at
phi = 2 (c = 0.95 and 0.99, slow contraction) and one random 4-map affine
system, each at grid sizes 1024, 4096 and 65536.  Two more rows time the
twindragon's ``fractalhull render`` layers at 5 000 and 20 000 points (the
CLI default): ``chaos_game_sample_s``, the chaos-game cloud (seed 1), and
``render_svg_s``, the SVG of its exact polygon and that cloud.  ``--src``
picks the ``fractalhull`` source tree to time, so one file can hold
columns for two versions of the package; a version without an operator
plan reports ``null`` for the plan layers.

    python bench/layers.py --label change --out layers.json
    python bench/layers.py --label parent --src ../parent/src --out layers.json

Each run replaces its own column in ``--out`` and keeps the others.  Set
one BLAS thread (``OPENBLAS_NUM_THREADS=1``) for figures comparable with
``perfbench``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import timeit
from pathlib import Path

import numpy as np

GRIDS = (1024, 4096, 65536)
POINTS = (5000, 20000)
TOL = 1e-6
REPEAT = 5
RANDOM_SEED = 0


def systems(fh):
    """(name, IFS) pairs of the matrix."""
    rng = np.random.default_rng(RANDOM_SEED)
    maps = []
    for _ in range(4):
        a = rng.normal(size=(2, 2))
        a *= rng.uniform(0.4, 0.8) / fh.operator_norm(a)
        maps.append((a, rng.uniform(-1.0, 1.0, 2)))
    return [
        ("twindragon", fh.complex_base_ifs(1 + 1j, 2)),
        ("|z|=2 phi=1", fh.complex_base_ifs(2.0 * complex(math.cos(1.0), math.sin(1.0)), 2)),
        ("|z|=1.05 phi=2", fh.complex_base_ifs(1.05 * complex(math.cos(2.0), math.sin(2.0)), 2)),
        ("|z|=1.01 phi=2", fh.complex_base_ifs(1.01 * complex(math.cos(2.0), math.sin(2.0)), 2)),
        (f"random 4-map affine (seed {RANDOM_SEED})", fh.validate_ifs(maps)),
    ]


def best_time(fn) -> float:
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(REPEAT, number)) / number


def measure(fh, width_mod) -> list[dict]:
    plan_cls = getattr(width_mod, "_OperatorPlan", None)
    rows = []
    for name, ifs in systems(fh):
        for n in GRIDS:
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
            rows.append(row)
            print(json.dumps(row), flush=True)
    ifs = fh.complex_base_ifs(1 + 1j, 2)
    poly, _ = fh.exact_polygon(fh.complex_base_system(1 + 1j, 2))
    for k in POINTS:
        cloud = fh.chaos_game_sample(ifs, k, 1).points
        row = {"system": "twindragon", "points": k, "vertices": len(poly),
               "chaos_game_sample_s": best_time(lambda: fh.chaos_game_sample(ifs, k, 1)),
               "render_svg_s": best_time(lambda: fh.render_svg(poly, cloud))}
        rows.append(row)
        print(json.dumps(row), flush=True)
    return rows


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(here.parent / "src"),
                    help="directory holding the fractalhull package to time")
    ap.add_argument("--label", required=True, help="column name, e.g. parent or change")
    ap.add_argument("--out", required=True, help="JSON file to create or update")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    import fractalhull as fh
    import fractalhull.width as width_mod

    rows = measure(fh, width_mod)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["machine"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    doc["timing"] = f"best of {REPEAT} autoranged samples per layer, seconds per call"
    doc["tol"] = TOL
    doc.setdefault("columns", {})[args.label] = rows
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
