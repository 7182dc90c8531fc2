"""Convex hull extraction from a solved width function.

A kink of the width function (unequal one-sided angle derivatives at a
local minimum) corresponds to a straight edge of the hull: the edge lies on
the supporting line at the kink angle and its endpoints sit at the
one-sided derivatives along the line.  Between kinks a smooth cosine arc is
supported by a single point.  Extraction therefore emits edge endpoints at
detected kinks, samples supporting points along smooth stretches, keeps
after each kept point the first whose path length from it exceeds a merge
tolerance (a dropped point lies within it of a kept one), and cleans the
result into a counterclockwise convex polygon.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass

import numpy as np

from .ifs import _check_finite, _readonly
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

    ``method`` records how the polygon was obtained ("kinks", "dense",
    "exact", "series"); ``outer_slack`` is the dilation radius within which
    the true hull is certified to lie (for "exact", the rounding allowance
    of :func:`exact_polygon`).
    """

    vertices: np.ndarray  # (k, 2)
    base: np.ndarray  # (2,)
    method: str = "kinks"
    outer_slack: float = 0.0

    def __len__(self) -> int:
        return self.vertices.shape[0]

    @property
    def degenerate(self) -> bool:
        """True for segments and points (fewer than 3 vertices)."""
        return len(self) < 3


def _jump_threshold(w: WidthSamples) -> float:
    """Smallest derivative jump distinguishable from discretization noise.

    The second-difference jump estimator sees curvature noise of order
    step * radius on smooth cosine arcs and, from the solver's own step,
    value noise of order iter_error / step; jumps below a safety factor of
    8 over that floor are absorbed into vertex arcs.
    """
    step = w.grid.step
    return 8.0 * (step * w.radius + w.iter_error / step)


def _kinks(w: WidthSamples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angles of the width function's kinks, sorted, and the one-sided
    derivatives ``h'(angle-)`` and ``h'(angle+)`` at each.

    The derivative jump at each node is estimated from the cyclic second
    difference (which conserves jump mass when a kink falls between grid
    nodes); runs of consecutive nodes above the discretization-noise
    threshold, a run through nodes n - 1 and 0 counting as one, are the
    candidate kinks.  A run's angle is its first node's plus the
    mass-weighted mean offset of its nodes, and its one-sided derivatives
    are third-order stencils whose points stay strictly on one side of the
    run.  A run whose derivative jump is below the threshold is dropped.
    """
    threshold = _jump_threshold(w)
    v, n, step = w.values, w.grid.n, w.grid.step
    mass = (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / step
    flagged = np.flatnonzero(mass > threshold)
    if flagged.size == 0:
        return np.empty(0), np.empty(0), np.empty(0)
    # runs of consecutive flagged nodes; the last goes on through node 0
    # into the first when both ends are flagged: rotate it to the front
    starts = np.flatnonzero(np.append(True, flagged[1:] - flagged[:-1] != 1))
    if starts.size > 1 and flagged[0] == 0 and flagged[-1] == n - 1:
        last = flagged.size - starts[-1]
        flagged = np.roll(flagged, last)
        starts = np.append(0, starts[1:-1] + last)
    ends = np.append(starts[1:], flagged.size)
    gl, gr = flagged[starts], flagged[ends - 1]
    cells = np.arange(4)
    s = v[(gl[:, None] - cells) % n]
    left = (11.0 * s[:, 0] - 18.0 * s[:, 1] + 9.0 * s[:, 2] - 2.0 * s[:, 3]) / (6.0 * step)
    s = v[(gr[:, None] + cells) % n]
    right = (-11.0 * s[:, 0] + 18.0 * s[:, 1] - 9.0 * s[:, 2] + 2.0 * s[:, 3]) / (6.0 * step)
    keep = np.flatnonzero(right - left > threshold)
    # each node's offset from its run's first node; flagged masses are
    # positive, so they are the weights as they stand
    rel = (flagged - np.repeat(gl, ends - starts)) % n * step
    weights = mass[flagged]
    offsets = [rel[a:b] @ weights[a:b] / weights[a:b].sum()
               for a, b in zip(starts[keep].tolist(), ends[keep].tolist())]
    angles = np.mod(w.grid.angles[gl[keep]] + offsets, TWO_PI)
    order = np.argsort(angles, kind="stable")
    return angles[order], left[keep][order], right[keep][order]


def detect_kinks(w: WidthSamples) -> tuple[Kink, ...]:
    """The width function's kinks found by :func:`_kinks`, sorted by angle,
    as a tuple of :class:`Kink` (empty when there is none)."""
    return tuple(Kink(a, l, r, r - l) for a, l, r in zip(*(x.tolist() for x in _kinks(w))))


def _node_derivatives(w: WidthSamples) -> np.ndarray:
    """Central-difference angle derivative at every grid node."""
    return (np.roll(w.values, -1) - np.roll(w.values, 1)) / (2.0 * w.grid.step)


def _thin_by_path(points: np.ndarray, tol: float) -> list[int]:
    """Indices kept when cyclic points are thinned by path length (summed
    ``np.hypot`` steps): 0, then after each kept index the first whose path
    length from it exceeds ``tol``, the last dropped if within ``tol`` of
    point 0.  Path length is at least distance, so a dropped point lies within
    ``tol`` (up to rounding) of the kept, or dropped last, point before it."""
    if not len(points):
        return []
    length = memoryview(np.append(0.0, np.cumsum(np.hypot(*np.diff(points, axis=0).T))))
    keep = [0]
    while (j := bisect.bisect_right(length, length[keep[-1]] + tol, keep[-1] + 1)) < len(length):
        keep.append(j)
    if len(keep) > 1 and math.hypot(*(points[0] - points[keep[-1]]).tolist()) <= tol:
        keep.pop()
    return keep


def _monotone_chain(points: np.ndarray, eps_cross: float) -> np.ndarray:
    """Andrew's monotone chain; counterclockwise output, collinear dropped."""
    # rows sorted by x then y, exact repeats dropped
    pts = points[np.lexsort((points[:, 1], points[:, 0]))]
    fresh = np.ones(len(pts), dtype=bool)
    fresh[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    pts = pts[fresh]
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


def _support_shortfall(verts: np.ndarray, w: WidthSamples) -> float:
    """Largest excess of the values over the support, around ``w.base``, of
    the polygon with counterclockwise vertices ``verts``, at the grid angles.

    Vertex i + 1 supports the angles between the outward normals of edges
    i and i + 1, so a search of the sorted normals splits the grid into
    runs of one supporting vertex each.
    """
    rel = verts - w.base
    edges = np.roll(verts, -1, axis=0) - verts
    normals = np.mod(np.arctan2(-edges[:, 0], edges[:, 1]), TWO_PI)
    order = np.argsort(normals)
    ends = (order + 1) % len(verts)
    runs = np.diff(np.searchsorted(w.grid.angles, normals[order]), prepend=0,
                   append=w.grid.n)
    # angles below the least normal belong to the vertex of the greatest
    p = np.repeat(rel[np.concatenate((ends[-1:], ends))], runs, axis=0)
    p *= w.grid.directions
    return float(np.max(w.values - p[:, 0] - p[:, 1]))


def extract_polygon(w: WidthSamples) -> HullPolygon:
    """Turn a solved width function into an explicit convex polygon.

    Every kink found by :func:`_kinks` contributes the edge segment
    between ``base + h u + h'(a-) u_perp`` and ``base + h u + h'(a+) u_perp``.
    The gap up to the next kink (a lone kink is its own next, 2 pi on) is
    filled with supporting points sampled at grid angles, which keeps the
    output a polygonal inner approximation even when the boundary is
    curved, with the reported ``outer_slack`` dilation certified to contain
    the hull.  With no kink every grid angle's supporting point is a
    candidate (method flag "dense").  After each kept candidate the first
    whose path length from it exceeds ``merge_tol`` is kept, so a dropped
    one lies within ``merge_tol`` of a kept one.
    ``outer_slack`` is ``2 slack + merge_tol``, raised to
    ``max_g (h_g - p_g) + bound + 2 interp_slack`` where the
    polygon's support p falls short of the values h at a grid angle by
    more: the cleanup can drop a true vertex.

    The base may be any point, inside the hull or not: the width function
    around x, its kinks and the supporting points ``x + h u + h' u_perp``
    are defined for every x, and ``|h'|`` stays below the largest distance
    from x to the hull, ``w.radius``.
    """
    angles, left, right = _kinks(w)
    r_est = w.radius
    merge_tol = max(1e-9 * r_est, 8.0 * w.slack)
    eps_cross = 1e-12 * max(r_est, 1.0) ** 2

    derivs = _node_derivatives(w)
    dirs = w.grid.directions
    perps = np.stack([-dirs[:, 1], dirs[:, 0]], axis=1)
    all_support = w.base + w.values[:, None] * dirs + derivs[:, None] * perps

    if angles.size:
        # math.cos and math.sin per kink: np.cos and np.sin may differ by an ulp
        u = np.array([(math.cos(a), math.sin(a)) for a in angles.tolist()])
        uperp = np.column_stack((-u[:, 1], u[:, 0]))
        mid = w.base + eval_width(w, angles)[:, None] * u
        # ends[i] holds kink i's edge endpoints p_minus, p_plus
        ends = np.stack((mid + left[:, None] * uperp, mid + right[:, None] * uperp), axis=1)
        # each kink's gap runs to the next kink, 2 pi on for the last one
        nxt = np.roll(angles, -1)
        nxt[nxt <= angles] += TWO_PI
        first = np.ceil(angles / w.grid.step).astype(np.intp) + _KINK_BUFFER_CELLS
        last = np.floor(nxt / w.grid.step).astype(np.intp) - _KINK_BUFFER_CELLS
        pieces = []
        for i, (g0, g1) in enumerate(zip(first.tolist(), last.tolist())):
            pieces += [ends[i], all_support.take(np.arange(g0, g1 + 1), axis=0, mode="wrap")]
    else:
        pieces = [all_support]
    candidates = np.concatenate(pieces, axis=0)
    verts = _monotone_chain(candidates[_thin_by_path(candidates, merge_tol)], eps_cross)
    outer = max(2.0 * w.slack + merge_tol,
                _support_shortfall(verts, w) + w.bound + 2.0 * w.interp_slack)
    return HullPolygon(_readonly(verts), _readonly(np.array(w.base)),
                       method="kinks" if angles.size else "dense", outer_slack=outer)


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
    return float(np.sum(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)))


def polygon_width(p: HullPolygon, angles) -> np.ndarray:
    """Support values of the polygon around its base at the given finite
    angles (a scalar or an array)."""
    angles = np.atleast_1d(_check_finite(angles, "angle"))
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    rel = p.vertices - p.base
    return np.max(dirs @ rel.T, axis=1)


def polygon_width_samples(p: HullPolygon, grid) -> WidthSamples:
    """Exact width samples of a polygon (useful as a round-trip oracle)."""
    values = polygon_width(p, grid.angles)
    r = float(np.max(np.linalg.norm(p.vertices - p.base, axis=1))) if len(p) else 0.0
    return WidthSamples(grid, _readonly(np.array(p.base)), _readonly(values),
                        0.0, r * math.pi / grid.n)


def polygon_json(p: HullPolygon) -> str:
    """JSON export: {"base": [x, y], "vertices": [[x, y], ...]}."""
    doc = {"base": [float(p.base[0]), float(p.base[1])],
           "vertices": [[float(x), float(y)] for x, y in p.vertices]}
    return json.dumps(doc)
