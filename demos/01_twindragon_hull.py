"""Twindragon walkthrough: solve the width function, extract the hull,
and check everything against the closed forms.

The twindragon is the attractor of the two maps x -> x/z and
x -> (x+1)/z with z = 1+i: the set of fractional parts representable in
base 1+i with binary digits.  Its convex hull is an octagon with area 5/3
and boundary length 2(sqrt(2)+1), which makes it the perfect end-to-end
sanity check: every number below is computed twice, once numerically and
once in closed form.

Run:  python3 demos/01_twindragon_hull.py
Output: demo_output/twindragon.svg
"""

import math
import pathlib

import numpy as np

import fractalhull as fh

OUT = pathlib.Path(__file__).resolve().parent / "demo_output"
OUT.mkdir(exist_ok=True)

# ---------------------------------------------------------------- solve
ifs = fh.complex_base_ifs(1 + 1j, 2)
print(f"maps: {len(ifs.maps)}, contraction factor c = {ifs.c:.6f}")

w = fh.solve_width(ifs, n_grid=4096, tol=1e-6)
print(f"width solved in {w.iterations} iterations")
print(f"  certified iteration error : {w.iter_error:.3g}")
print(f"  interpolation slack       : {w.interp_slack:.3g}")

# ------------------------------------------------- compare to closed form
sys_ = fh.complex_base_system(1 + 1j, 2)
center = fh.symmetry_center(sys_)
print(f"symmetry center: ({center[0]:g}, {center[1]:g})")

centered = fh.rebase_width(w, center)
reference = fh.rational_width(sys_, centered.grid.angles)
err = np.max(np.abs(centered.values - reference))
print(f"max |numeric - closed form| over {w.grid.n} directions: {err:.3g}")

# ------------------------------------------------------------ extraction
kinks = fh.detect_kinks(centered)
print(f"\ndetected {len(kinks)} width-function kinks (hull edges):")
for k in kinks:
    print(f"  normal angle {k.angle:.4f}  edge length ~ {k.jump:.4f}")

numeric = fh.extract_polygon(w)
exact, triangles = fh.exact_polygon(sys_)
print(f"\nnumeric polygon: {len(numeric)} vertices ({numeric.method})")
print(f"exact polygon:   {len(exact)} vertices ({exact.method})")

rows = [
    ("area", fh.polygon_area(numeric), fh.polygon_area(exact), 5.0 / 3.0),
    ("perimeter", fh.polygon_perimeter(numeric), fh.polygon_perimeter(exact),
     2.0 * (math.sqrt(2.0) + 1.0)),
]
print(f"\n{'':12}{'numeric':>14}{'exact poly':>14}{'closed form':>14}")
for name, a, b, c in rows:
    print(f"{name:12}{a:14.9f}{b:14.9f}{c:14.9f}")
print(f"series area     {fh.hull_area(sys_, 1e-12):14.9f}")
print(f"series perimeter{fh.hull_perimeter(sys_):14.9f}")

# -------------------------------------------------------------- rendering
cloud = fh.chaos_game_sample(ifs, 4000, seed=1)
svg = fh.render_svg(exact, cloud.points)
path = OUT / "twindragon.svg"
path.write_text(svg)
print(f"\nwrote {path}")
