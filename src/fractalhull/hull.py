"""Convex hull extraction from a solved width function.

A kink of the width function (unequal one-sided angle derivatives at a
local minimum) corresponds to a straight edge of the hull: the edge lies on
the supporting line at the kink angle and its endpoints sit at the
one-sided derivatives along the line.  Between kinks a smooth cosine arc is
supported by a single point.  Extraction therefore emits edge endpoints at
detected kinks, samples supporting points along smooth stretches, and
cleans the result into a counterclockwise convex polygon.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .ifs import _readonly
from .width import TWO_PI, WidthSamples, eval_width

_KINK_BUFFER_CELLS = 2


@dataclass(frozen=True)
class Kink:
    """One indifferentiability angle with its one-sided derivatives."""

    angle: float
    left: float   # h'(angle-)
    right: float  # h'(angle+)
    jump: float   # right - left; approximates the hull edge length


@dataclass(frozen=True)
class HullPolygon:
    """Ordered convex polygon (counterclockwise vertices) for conv(K).

    ``degenerate`` marks segments and points (< 3 vertices).  ``method``
    records how the polygon was obtained ("kinks", "dense", "exact",
    "series"); ``outer_slack`` is the reported dilation radius within which
    the true hull is certified to lie.
    """

    vertices: np.ndarray  # (k, 2)
    base: np.ndarray  # (2,)
    degenerate: bool = False
    method: str = "kinks"
    outer_slack: float = 0.0

    def __len__(self) -> int:
        return self.vertices.shape[0]


def default_jump_threshold(w: WidthSamples) -> float:
    """Smallest derivative jump distinguishable from discretization noise.

    The second-difference jump estimator sees curvature noise of order
    step * R on smooth cosine arcs and value noise of order
    iter_error / step; jumps below a safety factor of 8 over that floor are
    absorbed into vertex arcs.
    """
    step = w.grid.step
    r_est = max(float(w.values.max()), 0.0) + w.iter_error
    return 8.0 * (step * r_est + w.iter_error / step)


def _one_sided_derivatives(values: np.ndarray, g: int, step: float) -> tuple[float, float]:
    n = values.shape[0]
    v = values
    left = (11.0 * v[g] - 18.0 * v[(g - 1) % n] + 9.0 * v[(g - 2) % n]
            - 2.0 * v[(g - 3) % n]) / (6.0 * step)
    right = (-11.0 * v[g] + 18.0 * v[(g + 1) % n] - 9.0 * v[(g + 2) % n]
             + 2.0 * v[(g + 3) % n]) / (6.0 * step)
    return float(left), float(right)


def detect_kinks(w: WidthSamples, jump_threshold: float | None = None) -> tuple[Kink, ...]:
    """Locate width-function kinks on the grid, sorted by angle.

    The derivative jump at each node is estimated from the cyclic second
    difference (which conserves jump mass when a kink falls between grid
    nodes); nodes above the threshold are clustered, and each cluster's
    one-sided derivatives are refined with third-order stencils whose
    points stay strictly on one side of the cluster.  Returns the tuple of
    :class:`Kink`; it is empty when the width function has no kink.
    """
    if jump_threshold is None:
        jump_threshold = default_jump_threshold(w)
    v = w.values
    n = w.grid.n
    step = w.grid.step
    mass = (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / step
    flagged = np.nonzero(mass > jump_threshold)[0]
    if flagged.size == 0:
        return ()
    groups: list[list[int]] = [[int(flagged[0])]]
    for g in flagged[1:].tolist():
        if g == groups[-1][-1] + 1:
            groups[-1].append(g)
        else:
            groups.append([g])
    if len(groups) > 1 and groups[0][0] == 0 and groups[-1][-1] == n - 1:
        groups[0] = groups.pop() + groups[0]
    kinks = []
    for grp in groups:
        gl, gr = grp[0], grp[-1]
        left, _ = _one_sided_derivatives(v, gl, step)
        _, right = _one_sided_derivatives(v, gr, step)
        jump = right - left
        if jump <= jump_threshold:
            continue
        weights = np.array([max(float(mass[g % n]), 0.0) for g in grp])
        rel = np.array([((g - gl) % n) * step for g in grp])
        angle = (w.grid.angles[gl % n] + float(rel @ weights / weights.sum())) % TWO_PI
        kinks.append(Kink(float(angle), left, right, float(jump)))
    kinks.sort(key=lambda k: k.angle)
    return tuple(kinks)


def _node_derivatives(w: WidthSamples) -> np.ndarray:
    """Central-difference angle derivative at every grid node."""
    return (np.roll(w.values, -1) - np.roll(w.values, 1)) / (2.0 * w.grid.step)


def _dedup_cyclic(points: np.ndarray, tol: float) -> np.ndarray:
    """Drop each point within ``tol`` of the last kept one, cyclically."""
    if points.shape[0] == 0:
        return points
    xs = points[:, 0].tolist()
    ys = points[:, 1].tolist()
    keep = [0]
    kx, ky = xs[0], ys[0]
    for i in range(1, len(xs)):
        x, y = xs[i], ys[i]
        if math.hypot(x - kx, y - ky) > tol:
            keep.append(i)
            kx, ky = x, y
    if len(keep) > 1 and math.hypot(xs[0] - kx, ys[0] - ky) <= tol:
        keep.pop()
    return points[keep]


def _monotone_chain(points: np.ndarray, eps_cross: float) -> np.ndarray:
    """Andrew's monotone chain; counterclockwise output, collinear dropped."""
    pts = np.unique(points, axis=0)
    if pts.shape[0] <= 2:
        return pts
    rows = pts.tolist()

    def build(seq):
        out: list[list[float]] = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= eps_cross:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = build(rows)
    upper = build(rows[::-1])
    hull = lower[:-1] + upper[:-1]
    return np.array(hull) if len(hull) >= 2 else pts[:1]


def extract_polygon(w: WidthSamples) -> HullPolygon:
    """Turn a solved width function into an explicit convex polygon.

    Every kink found by :func:`detect_kinks` contributes the edge segment
    between ``base + h u + h'(a-) u_perp`` and ``base + h u + h'(a+) u_perp``.
    Consecutive edges whose endpoints already coincide (within the merge
    tolerance) share a vertex; wider gaps, up to the next kink (a lone kink
    is its own next, 2 pi on), are filled with supporting points sampled at
    grid angles, which keeps the output a polygonal inner approximation
    even when the boundary is curved, with the reported ``outer_slack``
    dilation certified to contain the hull.  With no kink every grid
    angle's supporting point is a candidate (method flag "dense").

    The base may be any point, inside the hull or not: the width function
    around x, its kinks and the supporting points ``x + h u + h' u_perp``
    are defined for every x, and ``|h'|`` stays below the largest distance
    from x to the hull, the ``R`` of ``interp_slack``.
    """
    ks = detect_kinks(w)
    r_est = max(float(w.values.max()), 0.0) + w.iter_error
    merge_tol = max(1e-9 * r_est, 8.0 * (w.iter_error + w.interp_slack))
    eps_cross = 1e-12 * max(r_est, 1.0) ** 2
    outer = 2.0 * (w.iter_error + w.interp_slack) + merge_tol

    derivs = _node_derivatives(w)
    dirs = w.grid.directions
    perps = np.stack([-dirs[:, 1], dirs[:, 0]], axis=1)
    all_support = w.base + w.values[:, None] * dirs + derivs[:, None] * perps

    step = w.grid.step
    pieces: list[np.ndarray] = [] if ks else [all_support]
    for i, k in enumerate(ks):
        u = np.array([math.cos(k.angle), math.sin(k.angle)])
        uperp = np.array([-u[1], u[0]])
        h = eval_width(w, k.angle)
        p_minus = w.base + h * u + k.left * uperp
        p_plus = w.base + h * u + k.right * uperp
        pieces.append(p_minus[None, :])
        pieces.append(p_plus[None, :])
        nxt = ks[(i + 1) % len(ks)]
        theta0 = k.angle
        theta1 = nxt.angle if nxt.angle > k.angle else nxt.angle + TWO_PI
        g0 = int(math.ceil(theta0 / step)) + _KINK_BUFFER_CELLS
        g1 = int(math.floor(theta1 / step)) - _KINK_BUFFER_CELLS
        if g1 >= g0:
            idx = np.arange(g0, g1 + 1) % w.grid.n
            pieces.append(all_support[idx])
    candidates = _dedup_cyclic(np.concatenate(pieces, axis=0), merge_tol)
    verts = _monotone_chain(candidates, eps_cross)
    return HullPolygon(_readonly(verts), _readonly(np.array(w.base)),
                       degenerate=verts.shape[0] < 3,
                       method="kinks" if ks else "dense", outer_slack=outer)


def polygon_area(p: HullPolygon) -> float:
    """Shoelace area; zero for degenerate polygons."""
    v = p.vertices
    if v.shape[0] < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def polygon_perimeter(p: HullPolygon) -> float:
    """Closed-traversal boundary length; a segment of length L yields 2L."""
    v = p.vertices
    if v.shape[0] < 2:
        return 0.0
    return float(np.sum(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)))


def polygon_width(p: HullPolygon, angles) -> np.ndarray:
    """Support values of the polygon around its base at the given angles."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    rel = p.vertices - p.base
    return np.max(dirs @ rel.T, axis=1)


def polygon_width_samples(p: HullPolygon, grid) -> WidthSamples:
    """Exact width samples of a polygon (useful as a round-trip oracle)."""
    values = polygon_width(p, grid.angles)
    r = float(np.max(np.linalg.norm(p.vertices - p.base, axis=1))) if len(p) else 0.0
    return WidthSamples(grid, _readonly(np.array(p.base)), _readonly(values),
                        iter_error=0.0, interp_slack=r * math.pi / grid.n)


def polygon_json(p: HullPolygon) -> str:
    """JSON export: {"base": [x, y], "vertices": [[x, y], ...]}."""
    doc = {"base": [float(p.base[0]), float(p.base[1])],
           "vertices": [[float(x), float(y)] for x, y in p.vertices]}
    return json.dumps(doc)
