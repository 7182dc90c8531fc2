"""Acceptance suite: one runnable check per contract criterion.

Each criterion function returns a :class:`CriterionResult`; ``run_all``
executes all nine at their pinned tolerances in under a few minutes at
desk scale.  The heavyweight shared artifacts (the solved twindragon width
function and the million-point sampling oracle) live in a :class:`Workspace`
built once.

The sampling side always goes through independent machinery (chaos game,
scipy's qhull wrapper, a KD-tree) so that no criterion checks the solver
against itself.  scipy is needed here only, so it is an optional
dependency (the ``verify`` extra), not a runtime one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull, cKDTree

from .analytic import (
    complex_base_system,
    equal_maps_width,
    exact_polygon,
    isodiametric_audit,
    rational_width,
)
from .hull import extract_polygon, polygon_area, polygon_perimeter
from .ifs import chaos_game_sample, complex_base_ifs, validate_ifs
from .query import build_context, near1
from .width import (
    DirectionGrid,
    _OperatorPlan,
    circumradius,
    hull_contains,
    rebase_width,
    solve_width,
)

TWINDRAGON_Z = 1 + 1j
EXACT_AREA = 5.0 / 3.0
EXACT_PERIMETER = 2.0 * (math.sqrt(2.0) + 1.0)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


class Workspace:
    """Shared, lazily built artifacts for the acceptance criteria."""

    @cached_property
    def twindragon(self):
        return complex_base_ifs(TWINDRAGON_Z, 2)

    @cached_property
    def twindragon_sys(self):
        return complex_base_system(TWINDRAGON_Z, 2)

    @cached_property
    def width(self):
        return solve_width(self.twindragon, n_grid=4096, tol=1e-6)

    @cached_property
    def centered_width_samples(self):
        return rebase_width(self.width, (0.0, -0.5))

    @cached_property
    def cloud_1e6(self):
        return chaos_game_sample(self.twindragon, 1_000_000, seed=7).points

    @cached_property
    def cloud_1e5(self):
        return chaos_game_sample(self.twindragon, 100_000, seed=11).points

    @cached_property
    def sample_hull(self):
        return ConvexHull(self.cloud_1e6)

    @cached_property
    def kdtree(self):
        return cKDTree(self.cloud_1e6)


def _random_contraction(rng, c_max: float) -> np.ndarray:
    from .ifs import operator_norm
    a = rng.normal(size=(2, 2))
    return a * (rng.uniform(0.05, c_max) / operator_norm(a))


def criterion_1(ws: Workspace) -> CriterionResult:
    """Operator contraction: |I(f)-I(g)| <= c |f-g| + 2c interp_slack(f-g)
    for 100 random systems and random sample pairs at N=1024; < 10 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240801)
    grid = DirectionGrid(1024)
    worst = -math.inf
    ok = True
    for _ in range(100):
        n_maps = int(rng.integers(1, 5))
        maps = [
            (_random_contraction(rng, 0.9), rng.uniform(-1.0, 1.0, size=2))
            for _ in range(n_maps)
        ]
        ifs = validate_ifs(maps)
        f = rng.uniform(-1.0, 2.0, size=grid.n)
        g = rng.uniform(-1.0, 2.0, size=grid.n)
        plan = _OperatorPlan(ifs, grid)  # the operator of selfsim_operator
        lhs = float(np.max(np.abs(plan.apply(f) - plan.apply(g))))
        diff = f - g
        slack_fg = 0.5 * float(np.max(np.abs(np.roll(diff, -1) - diff)))
        rhs = ifs.c * float(np.max(np.abs(diff))) + 2.0 * ifs.c * slack_fg
        worst = max(worst, lhs - rhs)
        ok = ok and lhs <= rhs + 1e-12
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    return CriterionResult(
        "1 contraction rate", ok,
        f"worst lhs-rhs margin {worst:.3g} (must be <= 0)", elapsed)


def criterion_2(ws: Workspace) -> CriterionResult:
    """Numeric twindragon width matches the closed form after centering:
    max grid error <= 1e-3, with the 2/3 and 5/6 anchors reproduced by an
    independent partial-sum evaluation."""
    start = time.perf_counter()
    r = math.sqrt(2.0)

    def series(alpha: float, terms: int = 400) -> float:
        # direct partial sum of 0.5 * sum_j r^-j |cos(alpha + j pi/4)|
        total = 0.0
        for j in range(1, terms + 1):
            total += r ** (-j) * abs(math.cos(alpha + j * math.pi / 4.0))
        return 0.5 * total

    anchors_ok = (abs(series(0.0) - 2.0 / 3.0) < 1e-9
                  and abs(series(math.pi / 2.0) - 5.0 / 6.0) < 1e-9)
    sys_ = ws.twindragon_sys
    closed_ok = (abs(rational_width(sys_, 0.0) - 2.0 / 3.0) < 1e-12
                 and abs(rational_width(sys_, math.pi / 2.0) - 5.0 / 6.0) < 1e-12)
    centered = ws.centered_width_samples
    err = float(np.max(np.abs(
        centered.values - rational_width(sys_, centered.grid.angles)
    )))
    elapsed = time.perf_counter() - start
    ok = anchors_ok and closed_ok and err <= 1e-3
    return CriterionResult(
        "2 twindragon closed form", ok,
        f"max grid |h_num - h_exact| = {err:.3g} (<= 1e-3), anchors 2/3 and 5/6 "
        f"{'reproduced' if anchors_ok and closed_ok else 'BROKEN'}", elapsed)


def criterion_3(ws: Workspace) -> CriterionResult:
    """Exact octagon metrics (area 5/3, perimeter 2(sqrt(2)+1), both to
    1e-9), numeric extraction within 1e-3, and the hull of 1e6 chaos-game
    samples inside [exact - 0.02, exact] / [exact - 0.03, exact]."""
    start = time.perf_counter()
    poly, _ = exact_polygon(ws.twindragon_sys)
    checks = []
    checks.append(("octagon", len(poly) == 8))
    area = polygon_area(poly)
    perim = polygon_perimeter(poly)
    checks.append(("exact area", abs(area - EXACT_AREA) <= 1e-9))
    checks.append(("exact perimeter", abs(perim - EXACT_PERIMETER) <= 1e-9))
    extracted = extract_polygon(ws.width)
    num_area = polygon_area(extracted)
    num_perim = polygon_perimeter(extracted)
    checks.append(("numeric area", abs(num_area - EXACT_AREA) <= 1e-3))
    checks.append(("numeric perimeter", abs(num_perim - EXACT_PERIMETER) <= 1e-3))
    hull = ws.sample_hull
    sample_area = float(hull.volume)   # scipy 2D: volume == area
    sample_perim = float(hull.area)    # scipy 2D: area == perimeter
    checks.append(("sample area",
                   EXACT_AREA - 0.02 <= sample_area <= EXACT_AREA + 1e-12))
    checks.append(("sample perimeter",
                   EXACT_PERIMETER - 0.03 <= sample_perim <= EXACT_PERIMETER + 1e-12))
    elapsed = time.perf_counter() - start
    bad = [name for name, good in checks if not good]
    return CriterionResult(
        "3 exact polygon metrics", not bad,
        f"area {area:.9f}/{num_area:.6f}/{sample_area:.4f}, perimeter "
        f"{perim:.9f}/{num_perim:.6f}/{sample_perim:.4f}"
        + (f"; FAILED {bad}" if bad else ""), elapsed)


def criterion_4(ws: Workspace) -> CriterionResult:
    """Perimeter does not depend on the base angle: r=2, n=2 across four
    angles, all extracted perimeters within 0.02 of 2."""
    start = time.perf_counter()
    worst = 0.0
    for phi in (math.pi / 6.0, math.pi / 4.0, math.pi / 3.0, 1.0):
        z = 2.0 * complex(math.cos(phi), math.sin(phi))
        ifs = complex_base_ifs(z, 2)
        w = solve_width(ifs, n_grid=4096, tol=1e-6)
        perim = polygon_perimeter(extract_polygon(w))
        worst = max(worst, abs(perim - 2.0))
    elapsed = time.perf_counter() - start
    return CriterionResult(
        "4 perimeter angle-independence", worst <= 0.02,
        f"worst |perimeter - 2| = {worst:.4g} (<= 0.02)", elapsed)


def criterion_5(ws: Workspace) -> CriterionResult:
    """Real base z=2, n=2 degenerates to the unit segment: area <= 1e-6,
    perimeter within 1e-6 of 2, centered width at pi/2 below 1e-6."""
    start = time.perf_counter()
    ifs = complex_base_ifs(2.0 + 0.0j, 2)
    w = solve_width(ifs, n_grid=4096, tol=1e-8)
    centered = rebase_width(w, (0.5, 0.0))
    h_vertical = float(centered.values[centered.grid.n // 4])
    poly = extract_polygon(w)
    area = polygon_area(poly)
    perim = polygon_perimeter(poly)
    ok = area <= 1e-6 and abs(perim - 2.0) <= 1e-6 and h_vertical <= 1e-6
    elapsed = time.perf_counter() - start
    return CriterionResult(
        "5 degenerate real base", ok,
        f"area {area:.2g} (<=1e-6), perimeter {perim:.9f} (2 +- 1e-6), "
        f"h(pi/2) {h_vertical:.2g} (<=1e-6)", elapsed)


def criterion_6(ws: Workspace) -> CriterionResult:
    """Sampling oracle: 1e5 chaos-game points all pass hull_contains at
    slack 1e-4, and per grid direction the sample support comes within
    0.05 R of the solved width."""
    start = time.perf_counter()
    w = ws.width
    inside = hull_contains(w, ws.cloud_1e5, slack=1e-4)
    n_out = int(np.size(inside) - np.count_nonzero(inside))
    hull = ConvexHull(ws.cloud_1e5)
    extremes = ws.cloud_1e5[hull.vertices]
    proj = w.grid.directions @ extremes.T
    sample_h = proj.max(axis=1)
    r = circumradius(w)
    tight_margin = float(np.max(w.values - sample_h))
    ok = n_out == 0 and tight_margin <= 0.05 * r
    elapsed = time.perf_counter() - start
    return CriterionResult(
        "6 oracle containment and tightness", ok,
        f"{n_out} escapees, worst support gap {tight_margin:.4g} "
        f"(<= {0.05 * r:.4g})", elapsed)


def criterion_7(ws: Workspace) -> CriterionResult:
    """near1 soundness: over 1e3 probes (samples plus offsets up to 0.2)
    and l in {0.01, 0.05, 0.2}, every true answer has brute-force distance
    to a 1e6-point cloud below l + 5e-3; < 60 s."""
    start = time.perf_counter()
    ctx = build_context(ws.twindragon, ws.width)
    rng = np.random.default_rng(20240807)
    bases = ws.cloud_1e6[rng.integers(0, ws.cloud_1e6.shape[0], size=1000)]
    deltas = rng.uniform(0.0, 0.2, size=1000)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=1000)
    probes = bases + deltas[:, None] * np.stack(
        [np.cos(angles), np.sin(angles)], axis=1)
    dists = ws.kdtree.query(probes)[0]
    violations = 0
    n_true = 0
    for level in (0.01, 0.05, 0.2):
        for p, dist in zip(probes, dists):
            if near1(ctx, p, level).hit:
                n_true += 1
                if dist > level + 5e-3:
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    return CriterionResult(
        "7 near1 soundness", ok,
        f"{n_true} true answers, {violations} distance violations", elapsed)


def criterion_8(ws: Workspace) -> CriterionResult:
    """Area/perimeter gap audit: nonnegative (>= -1e-12) over the 60x720
    (r, angle) grid; < 5 s."""
    start = time.perf_counter()
    _, _, gaps = isodiametric_audit(60, 720)
    worst = float(gaps.min())
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-12 and elapsed < 5.0
    return CriterionResult(
        "8 inequality audit", ok,
        f"min gap {worst:.4g} (>= -1e-12)", elapsed)


def criterion_9(ws: Workspace) -> CriterionResult:
    """Equal-matrix series: unit-square width 1 +- 1e-9 in direction e1,
    and the one-step self-consistency residual <= 2 tol on 50 random
    equal-matrix systems."""
    start = time.perf_counter()
    a_sq = 0.5 * np.eye(2)
    ts_sq = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])
    square_val = equal_maps_width(a_sq, ts_sq, (1.0, 0.0), tol=1e-12)
    square_ok = abs(square_val - 1.0) <= 1e-9
    rng = np.random.default_rng(20240809)
    tol = 1e-10
    worst = 0.0
    for _ in range(50):
        a = _random_contraction(rng, 0.9)
        ts = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 5)), 2))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        d = np.array([math.cos(ang), math.sin(ang)])
        lhs = equal_maps_width(a, ts, d, tol)
        v = a.T @ d
        nv = float(np.linalg.norm(v))
        hstar = float(np.max(ts @ d))
        rhs = hstar if nv == 0.0 else nv * equal_maps_width(a, ts, v / nv, tol) + hstar
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    ok = square_ok and worst <= 2.0 * tol
    return CriterionResult(
        "9 equal-matrix series", ok,
        f"square width {square_val:.12f}, worst recursion residual {worst:.3g} "
        f"(<= {2 * tol:.1g})", elapsed)


ALL_CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9,
)


def run_all(workspace: Workspace | None = None) -> list[CriterionResult]:
    ws = workspace if workspace is not None else Workspace()
    return [fn(ws) for fn in ALL_CRITERIA]
