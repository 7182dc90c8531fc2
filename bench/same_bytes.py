"""Bit-for-bit comparison of ``fractalhull`` source trees on perfbench's inputs.

Each ``label=SRC`` pair names a ``fractalhull`` source tree; every tree is
imported into this one process under its own package name, as
``bench/layers.py`` does (its ``load_tree``).  The inputs are the ones
``perfbench/inputs.make`` builds for each workload and seed, and each is run
through the calls its perfbench workload makes:

- hull-slow: ``solve_width`` then ``extract_polygon``;
- render-fine: the ``render`` route (the exact polygon for a complex base
  at a rational angle, else solve and extract), the chaos-game cloud and
  ``render_svg``;
- query: ``solve_width`` and ``build_context`` per system, then every
  probe's ``near1`` or ``near``.

Per input, and per tree after the first, one line says which outputs are
bit-identical to the first tree's: the solved values, ``iter_error`` and
``iterations``, the kinks, the polygon (vertices, base, method and
``outer_slack``), the SVG, and for query the context and the number of
probes whose ``(hit, complete, depth)`` agree.

    python bench/same_bytes.py parent=../parent/src change=src --seeds 1-10
    python bench/same_bytes.py parent=../parent/src change=src --seeds 1-3 \\
        --workloads query --out same.json

The exit code is 0 when every output of every tree is identical to the
first tree's, else 1.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "perfbench"))

import inputs  # noqa: E402  (perfbench/inputs.py)
from layers import load_tree, tree  # noqa: E402

WORKLOADS = ("hull-slow", "render-fine", "query")


def _bits(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays)


def _build(fh, spec):
    if spec["kind"] == "complex":
        return fh.complex_base_ifs(cmath.rect(spec["r"], spec["phi"]), spec["n"])
    return fh.validate_ifs(spec["maps"])


def _solved(fh, ifs, size) -> tuple[dict, object]:
    """The solve, kink and polygon fingerprints of the ``hull`` route, and
    its polygon."""
    w = fh.solve_width(ifs, size["grid"], size["tol"])
    kinks = fh.detect_kinks(w)
    poly = fh.extract_polygon(w)
    return {"values": _bits(w.values), "iter_error": _bits(w.iter_error),
            "iterations": str(w.iterations).encode(),
            "kinks": _bits([[k.angle, k.left, k.right, k.jump] for k in kinks]),
            "polygon": _polygon(poly)}, poly


def _polygon(poly) -> bytes:
    return _bits(poly.vertices, poly.base, poly.outer_slack) + poly.method.encode()


def fingerprints(fh, workload: str, seed: int) -> list[tuple[str, dict]]:
    """``(input name, {output: bytes})`` per input of one workload and seed."""
    made = inputs.make(workload, seed)
    size = made["size"]
    out = []
    if workload == "hull-slow":
        for i, spec in enumerate(made["systems"]):
            out.append((f"input {i}", _solved(fh, _build(fh, spec), size)[0]))
        return out
    if workload == "render-fine":
        for i, spec in enumerate(made["systems"]):
            ifs = _build(fh, spec)
            prints, poly = {}, None
            if spec["kind"] == "complex":
                system = fh.complex_base_system(cmath.rect(spec["r"], spec["phi"]), spec["n"])
                if system.rational_angle is not None:
                    poly = fh.exact_polygon(system)[0]
                    prints["polygon"] = _polygon(poly)
            if poly is None:
                prints, poly = _solved(fh, ifs, size)
            cloud = fh.chaos_game_sample(ifs, size["points"], spec["chaos_seed"])
            prints["svg"] = fh.render_svg(poly, cloud.points).encode()
            out.append((f"input {i}", prints))
        return out
    contexts = []
    for i, spec in enumerate(made["systems"]):
        ifs = _build(fh, spec)
        w = fh.solve_width(ifs, size["grid"], size["tol"])
        ctx = fh.build_context(ifs, w)
        contexts.append(ctx)
        out.append((f"context {i}", {
            "values": _bits(w.values), "iter_error": _bits(w.iter_error),
            "iterations": str(w.iterations).encode(),
            "context": _bits(ctx.x0, ctx.radius, ctx.c0_bound, ctx.slack)
            + str(ctx.complete).encode()}))
    p = made["probes"]
    answers = {}
    for j, (c, x, kind, l, k) in enumerate(zip(p["ctx"], p["x"], p["kind"], p["l"], p["k"])):
        x = (float(x[0]), float(x[1]))
        res = (fh.near1(contexts[c], x, float(l)) if kind == 0
               else fh.near(contexts[c], x, int(k)))
        answers[f"probe {j}"] = f"{res.hit} {res.complete} {res.depth}".encode()
    out.append(("probes", answers))
    return out


def seeds(text: str) -> list[int]:
    lo, sep, hi = text.partition("-")
    try:
        return list(range(int(lo), int(hi) + 1)) if sep else [int(lo)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or N-M, got {text!r}") from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="+", type=tree, metavar="label=SRC",
                    help="name and the directory holding its fractalhull package; "
                         "the first is the reference")
    ap.add_argument("--seeds", type=seeds, default=[1], help="a seed N or a range N-M")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--out", default=None, help="JSON file for the rows")
    args = ap.parse_args(argv)
    labels = dict(args.trees)
    if len(labels) < 2 or len(labels) != len(args.trees):
        ap.error("give at least two trees, with distinct labels")
    trees = {label: load_tree(f"fractalhull_{i}", src)[0]
             for i, (label, src) in enumerate(labels.items())}
    first, *others = trees
    rows = []
    for workload in args.workloads:
        for seed in args.seeds:
            prints = {label: fingerprints(fh, workload, seed) for label, fh in trees.items()}
            for label in others:
                for (name, ref), (_, got) in zip(prints[first], prints[label]):
                    same = {key: got.get(key) == ref[key] for key in ref}
                    if name == "probes":
                        summary = f"{sum(same.values())} of {len(same)} answers same"
                    else:
                        summary = " ".join(f"{key}={'same' if ok else 'DIFFERS'}"
                                           for key, ok in same.items())
                    rows.append({"workload": workload, "seed": seed, "input": name,
                                 "tree": label, "same": all(same.values()),
                                 "outputs": summary})
                    print(f"{workload} seed {seed} {name} {label}: {summary}", flush=True)
    differing = sum(not r["same"] for r in rows)
    print(f"{len(rows) - differing} of {len(rows)} inputs bit-identical to {first}")
    if args.out:
        Path(args.out).write_text(json.dumps({"reference": first, "rows": rows}, indent=1) + "\n")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
