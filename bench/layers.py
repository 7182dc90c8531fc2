"""Per-layer timings of the width solver, polygon extraction and artifacts.

Times, as the best of three samples per round (each sample loops a call
long enough to be measured, as ``timeit`` does):

- ``plan_build_s``: building the operator plan for one (IFS, grid);
- ``plan_apply_s``: one application of a built plan;
- ``selfsim_operator_s``: one public ``selfsim_operator`` call (plan
  build plus one application);
- ``solve_width_s``: the whole fixed-point solve at tol 1e-6 (the CLI's);
- ``detect_kinks_s``: the public kink detection alone (``Kink`` objects);
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
x0; ``l`` cycling through 0.1, 0.01 and 0.001 R, ``k`` through 4 and 12),
and ``near1_root_s``, one ``near1`` call at ``x0 + (2R, 0)``: beyond every
width threshold, so the walk ends at its root and the figure is the fixed
cost of a call.
The closed-form rows time the complex-base hull polygons (two digits):
``exact_polygon_s`` for the twindragon, |z| = 2 at phi = pi/3 and
|z| = 1.2 at phi = pi/64 (k = 64, the largest denominator detected), and
``irrational_polygon_s`` for |z| = 2 at phi = 1 (tol 1e-8) and |z| = 1.05
at phi = 2 (tol 1e-6).  ``hull_contains_s`` times acceptance criterion
6's call: 1e5 twindragon chaos-game points (seed 11) against its width at
grid 4096, slack 1e-4.  ``equal_maps_width_s`` times the shared-matrix
series at its default tol 1e-12 for ``A = c R(1)`` (R(1) the rotation by
one radian) and three translations, at c = 0.999 and c = 1 - 4e-5.

Each ``label=SRC`` pair names a ``fractalhull`` source tree and the
column its figures go to.  Every tree is imported into this one
process under its own package name (``fractalhull_0``, ``fractalhull_1``
...).  Each layer
of a row is timed in ``PAIRS`` pairs of samples, each sample a batch of
the same number of calls (at least ``BATCH_S`` seconds' worth), the
trees taking turns sample by sample (A B B A A B ...), so a slow phase of
the machine lands on both columns alike.  A column keeps each layer's
fastest sample; the second and later columns also hold, per layer, the
quartiles of ``first / this`` over the pairs, with ``resolved`` true when
the interquartile range excludes 1.

    python bench/layers.py parent=../parent/src change=src --out layers.json

Name the first tree twice to measure the harness's resolution floor:

    python bench/layers.py parent=../p/src again=../p/src change=src --out layers.json

The A/A column ``again`` runs the same code as ``parent``, so its
quartiles of ``first / this`` are the spread that machine phases and
import order alone produce; a change's ratio inside that spread is not
a measured difference.

``--out`` is written anew with every row.  Set one BLAS thread
(``OPENBLAS_NUM_THREADS=1``) for figures comparable with ``perfbench``.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import importlib
import importlib.util
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

GRIDS = (1024, 4096, 65536)
POINTS = (5000, 20000)
QUERY_GRID = 4096
QUERY_PROBES = 256
TOL = 1e-6
PAIRS = 15
BATCH_S = 0.02
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
# contraction factors of the equal_maps_width rows
SERIES_C = (0.999, 1.0 - 4e-5)
# one row per (system, grid), one per render point count, one per query
# system, one per closed form, one for hull_contains, one per series factor
ROWS = ([("solve", s, n) for s in range(len(SYSTEMS)) for n in GRIDS]
        + [("render", None, k) for k in POINTS]
        + [("query", q, QUERY_GRID) for q in range(len(QUERY_SYSTEMS))]
        + [("closed", c, None) for c in range(len(CLOSED_FORMS))]
        + [("contains", None, QUERY_GRID)]
        + [("series", c, None) for c in SERIES_C])


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


def query_row(fh, q: int, n: int) -> tuple[dict, dict]:
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

    far = (float(ctx.x0[0] + 2.0 * ctx.radius), float(ctx.x0[1]))
    info = {"system": name, "grid": n, "c": ifs.c, "maps": len(ifs),
            "probes": len(probes)}
    return info, {"build_context_s": (lambda: fh.build_context(ifs, w), 1),
                  "near1_s": (run_near1, len(probes)),
                  "near_s": (run_near, len(probes)),
                  "near1_root_s": (lambda: near1(ctx, far, 0.01 * ctx.radius), 1)}


def row_layers(fh, width_mod, index: int) -> tuple[dict, dict]:
    """Row ``index`` of ``ROWS`` for one tree: its description, and per
    layer a zero-argument call with the number of layer calls it makes."""
    kind, s, n = ROWS[index]
    if kind == "query":
        return query_row(fh, s, n)
    if kind == "contains":
        ifs = fh.complex_base_ifs(1 + 1j, 2)
        w = fh.solve_width(ifs, n, TOL)
        points = fh.chaos_game_sample(ifs, 100_000, 11).points
        return ({"system": "twindragon", "grid": n, "points": len(points)},
                {"hull_contains_s": (lambda: fh.hull_contains(w, points, 1e-4), 1)})
    if kind == "series":
        a = s * np.array([[math.cos(1.0), -math.sin(1.0)], [math.sin(1.0), math.cos(1.0)]])
        ts = np.array([[1.0, 0.0], [0.0, 1.0], [-0.5, 0.3]])
        fn = functools.partial(fh.equal_maps_width, a, ts, (1.0, 0.0))
        return ({"c": s, "translations": len(ts), "value": fn()},
                {"equal_maps_width_s": (fn, 1)})
    if kind == "closed":
        name, z, tol = CLOSED_FORMS[s]
        system = fh.complex_base_system(z, 2)
        if tol is None:
            fn, key = (lambda: fh.exact_polygon(system)[0]), "exact_polygon_s"
        else:
            fn, key = (lambda: fh.irrational_polygon(system, tol)), "irrational_polygon_s"
        return {"system": name, "tol": tol, "vertices": len(fn())}, {key: (fn, 1)}
    if kind == "render":
        ifs = fh.complex_base_ifs(1 + 1j, 2)
        poly, _ = fh.exact_polygon(fh.complex_base_system(1 + 1j, 2))
        cloud = fh.chaos_game_sample(ifs, n, 1).points
        return ({"system": "twindragon", "points": n, "vertices": len(poly)},
                {"chaos_game_sample_s": (lambda: fh.chaos_game_sample(ifs, n, 1), 1),
                 "render_svg_s": (lambda: fh.render_svg(poly, cloud), 1)})
    name, build = SYSTEMS[s]
    ifs = build(fh)
    plan_cls = width_mod._OperatorPlan
    grid = fh.DirectionGrid(n)
    w = fh.solve_width(ifs, n, TOL)
    plan = plan_cls(ifs, grid)
    info = {"system": name, "grid": n, "c": ifs.c, "maps": len(ifs),
            "iterations": w.iterations}
    return info, {"plan_build_s": (lambda: plan_cls(ifs, grid), 1),
                  "plan_apply_s": (lambda: plan.apply(w.values), 1),
                  "selfsim_operator_s": (lambda: fh.selfsim_operator(ifs, w), 1),
                  "solve_width_s": (lambda: fh.solve_width(ifs, n, TOL), 1),
                  "detect_kinks_s": (lambda: fh.detect_kinks(w), 1),
                  "extract_polygon_s": (lambda: fh.extract_polygon(w), 1),
                  "width_csv_s": (lambda: fh.width_csv(w), 1)}


def batch_time(fn, number: int) -> float:
    start = time.perf_counter()
    for _ in range(number):
        fn()
    return time.perf_counter() - start


def time_pairs(calls: list) -> list[list[float]]:
    """``PAIRS`` samples of seconds per call for each of ``calls``, taken
    in turns (A B B A A B ...), every sample a batch of the same number of
    calls, at least ``BATCH_S`` seconds of the first call."""
    number = 1
    while batch_time(calls[0], number) < BATCH_S:
        number *= 2
    samples = [[] for _ in calls]
    order = list(range(len(calls)))
    for _ in range(PAIRS):
        for i in order:
            samples[i].append(batch_time(calls[i], number) / number)
        order.reverse()
    return samples


def quartiles(xs: list[float]) -> list[float]:
    q1, q2, q3 = np.percentile(xs, [25, 50, 75]).tolist()
    return [round(q1, 4), round(q2, 4), round(q3, 4)]


def measure_row(trees: dict, index: int) -> dict:
    """Row ``index`` for every tree: the description and fastest sample
    per layer, and in every column after the first the quartiles of
    ``first / this`` per layer over the pairs."""
    built = {label: row_layers(fh, width_mod, index)
             for label, (fh, width_mod) in trees.items()}
    rows = {label: dict(info) for label, (info, _) in built.items()}
    first = next(iter(trees))
    for key in built[first][1]:
        calls = {label: layers[key] for label, (_, layers) in built.items()}
        samples = dict(zip(calls, time_pairs([fn for fn, _ in calls.values()])))
        for label, times in samples.items():
            rows[label][key] = min(times) / calls[label][1]
            if label != first:
                q = quartiles([a / b for a, b in zip(samples[first], times)])
                rows[label].setdefault("versus", {})[key] = {
                    "quartiles": q, "resolved": q[0] > 1.0 or q[2] < 1.0}
    return rows


def load_tree(name: str, src: str):
    """The ``fractalhull`` package under ``src`` and its ``width`` module,
    imported as the package ``name``."""
    pkg = Path(src) / "fractalhull"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module, importlib.import_module(name + ".width")


def tree(pair: str) -> tuple[str, str]:
    label, sep, src = pair.partition("=")
    if not (label and sep and src):
        raise argparse.ArgumentTypeError(f"expected label=SRC, got {pair!r}")
    return label, str(Path(src).resolve())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="+", type=tree, metavar="label=SRC",
                    help="column name and the directory holding its fractalhull package")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    labels = dict(args.trees)
    if len(labels) != len(args.trees):
        ap.error("column labels must differ")
    trees = {label: load_tree(f"fractalhull_{i}", src)
             for i, (label, src) in enumerate(labels.items())}

    columns = {label: [] for label in labels}
    doc = {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "timing": (f"seconds per call: the fastest of {PAIRS} samples, each a batch "
                   f"of at least {BATCH_S} s; all trees in one process, taking turns "
                   "sample by sample (A B B A ...); versus holds the quartiles of "
                   "first / this over the pairs"),
        "tol": TOL,
        "columns": columns,
    }
    for index in range(len(ROWS)):
        for label, row in measure_row(trees, index).items():
            columns[label].append(dict(row, row=index))
            print(label, json.dumps(row), flush=True)
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
