"""Exact oracles for the workloads' outputs, built from numpy alone.

Every check flags an output only when the violation is certified:

* hulls: images of the maps' fixed points under words lie exactly in the
  attractor K, so each must lie within ``outer_slack`` of the polygon;
* complex bases: the hull perimeter is ``2(n-1)/(|z|-1)``, so the polygon's
  may differ by at most ``2 pi outer_slack``; exact-route polygons must
  match it and the area series to 1e-9 relative;
* SVG output: every sampled point drawn must lie within ``outer_slack`` of
  the polygon, up to the six decimals the file carries;
* ``near1``/``near`` hits: a lower bound on ``dist(x, K)`` from nested balls
  around word images must not exceed the claimed distance plus slack.

No check trusts a number the package computed except the claim under test.
"""

from __future__ import annotations

import math
import re

import numpy as np

from inputs import attractor_points, fixed_point, spectral_norm, system_maps

REL_EPS = 1e-9  # rounding allowance, relative to the scale of the set


def _norms2(m: np.ndarray) -> np.ndarray:
    """Spectral norms of a stack of 2x2 matrices."""
    a = m[:, 0, 0] ** 2 + m[:, 1, 0] ** 2
    b = m[:, 0, 1] ** 2 + m[:, 1, 1] ** 2
    d = m[:, 0, 0] * m[:, 0, 1] + m[:, 1, 0] * m[:, 1, 1]
    return np.sqrt(0.5 * (a + b) + np.hypot(0.5 * (a - b), d))


def _segment_dist(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ab = b - a
    den = float(ab @ ab)
    s = np.zeros(len(points)) if den == 0.0 else np.clip((points - a) @ ab / den, 0.0, 1.0)
    return np.linalg.norm(points - (a + s[:, None] * ab), axis=1)


def polygon_distance(vertices: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Exact distance from each point to the closed polygon region (0 inside).

    Works for any simple polygon in either orientation, and for points and
    segments, so a malformed polygon cannot cause a false flag.
    """
    k = len(vertices)
    if k == 0:
        return np.full(len(points), np.inf)
    if k == 1:
        return np.linalg.norm(points - vertices[0], axis=1)
    dist = np.full(len(points), np.inf)
    inside = np.zeros(len(points), dtype=bool)
    x, y = points[:, 0], points[:, 1]
    for j in range(k):
        a, b = vertices[j], vertices[(j + 1) % k]
        dist = np.minimum(dist, _segment_dist(points, a, b))
        if k >= 3 and a[1] != b[1]:
            crosses = (a[1] > y) != (b[1] > y)
            xc = a[0] + (y - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
            inside ^= crosses & (x < xc)
    return np.where(inside, 0.0, dist)


def outside_excess(vertices: np.ndarray, points: np.ndarray, slack: float) -> float:
    """Largest certified ``dist(p, polygon) - slack`` over the points (<= 0 is fine).

    A cheap half-plane pass picks candidates (exact for the convex polygon
    the package promises); the exact distance then decides, so a point is
    never flagged by mistake, whatever the polygon's shape.
    """
    if len(vertices) >= 3:
        e = np.roll(vertices, -1, axis=0) - vertices
        n = np.stack([e[:, 1], -e[:, 0]], axis=1)
        n /= np.maximum(np.linalg.norm(n, axis=1), 1e-300)[:, None]
        if np.sum(e[:, 0] * (np.roll(vertices[:, 1], -1) + vertices[:, 1])) > 0:
            n = -n  # clockwise polygon: flip the outward normals
        cand = np.zeros(len(points), dtype=bool)
        for lo in range(0, len(points), 4096):
            blk = points[lo:lo + 4096]
            ex = np.einsum("pkd,kd->pk", blk[:, None, :] - vertices[None], n)
            cand[lo:lo + 4096] = ex.max(axis=1) > slack
        points = points[cand]
    if len(points) == 0:
        return -slack
    return float(np.max(polygon_distance(vertices, points))) - slack


def perimeter(v: np.ndarray) -> float:
    if len(v) < 2:
        return 0.0
    return float(np.sum(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)))


def area(v: np.ndarray) -> float:
    if len(v) < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def complex_area(r: float, phi: float, n: int) -> float:
    """Hull area of the (z, n) complex-base attractor from its series,
    ``(n-1)^2/(r^2-1) sum_{v>0} |sin(v phi)| r^-v``, tail below 1e-16 relative."""
    pref = (n - 1) ** 2 / (r * r - 1.0)
    terms = math.ceil(math.log(1e16 / (r - 1.0)) / math.log(r)) + 1
    v = np.arange(1, terms + 1, dtype=float)
    return pref * float(np.sum(np.abs(np.sin(v * phi)) * r ** (-v)))


def _svg_points(svg: str) -> np.ndarray:
    pts = re.findall(r'<circle cx="([-0-9.]+)" cy="([-0-9.]+)"', svg)
    arr = np.array(pts, dtype=float).reshape(-1, 2)
    arr[:, 1] = -arr[:, 1]  # the file flips y
    return arr


def check_hull(spec: dict, out: dict, seed: int) -> list[str]:
    """Problems certified in one polygon (and its SVG, if any); [] when sound."""
    maps = system_maps(spec)
    verts = np.array(out["vertices"], dtype=float).reshape(-1, 2)
    slack = float(out["outer_slack"])
    pts = attractor_points(maps, np.random.default_rng(seed))
    scale = max(1.0, float(np.max(np.abs(pts))))
    eps = REL_EPS * scale
    problems = []
    ex = outside_excess(verts, pts, slack + eps)
    if ex > 0:
        problems.append(f"attractor point {ex:.3g} beyond the dilated polygon")
    if spec["kind"] == "complex":
        r, phi, n = spec["r"], spec["phi"], spec["n"]
        exact = 2.0 * (n - 1) / (r - 1.0)
        got = perimeter(verts)
        if out["method"] == "exact":
            if abs(got - exact) > REL_EPS * exact:
                problems.append(f"exact perimeter {got!r} != {exact!r}")
            want = complex_area(r, phi, n)
            if abs(area(verts) - want) > REL_EPS * want:
                problems.append(f"exact area {area(verts)!r} != {want!r}")
        elif abs(got - exact) > 2.0 * math.pi * slack + REL_EPS * exact:
            problems.append(f"perimeter {got:.9g} off {exact:.9g} by more than 2 pi slack")
    if "svg" in out:
        cloud = _svg_points(out["svg"])
        # coordinates carry six decimals: allow half a unit in each
        ex = outside_excess(verts, cloud, slack + eps + 1e-6)
        if ex > 0:
            problems.append(f"drawn point {ex:.3g} beyond the dilated polygon")
    return problems


class DistanceOracle:
    """Certified lower bounds on dist(x, K) by branch and bound over words.

    For a word w the image f_w(K) lies in the ball around f_w(x0) of radius
    ||M_w|| rho, where K lies in B(x0, rho); f_w(p) for a fixed point p lies
    in K.  A query is settled as soon as some f_w(p) is within the threshold
    (not far) or every ball is beyond it (certified far).  ``checked`` and
    ``undecided`` count the hits put to ``check_query`` and those the search
    could not settle within its limits.
    """

    def __init__(self, spec: dict, x0, max_level: int = 80, max_frontier: int = 50000):
        maps = system_maps(spec)
        self.a = np.stack([m[0] for m in maps])
        self.t = np.stack([m[1] for m in maps])
        self.x0 = np.asarray(x0, dtype=float)
        self.p0 = fixed_point(*maps[0])
        c = max(spectral_norm(m[0]) for m in maps)
        self.rho = max(float(np.linalg.norm(a @ self.x0 + t - self.x0))
                       for a, t in maps) / (1.0 - c)
        self.eps = REL_EPS * max(1.0, self.rho + float(np.max(np.abs(self.x0))))
        self.max_level = max_level
        self.max_frontier = max_frontier
        self.checked = self.undecided = 0

    def far(self, x, threshold: float) -> bool | None:
        """True: dist(x, K) > threshold is certified.  False: it is not.
        None: undecided within the search limits (never flagged)."""
        x = np.asarray(x, dtype=float)
        thr = threshold + self.eps
        m = np.eye(2)[None]
        v = np.zeros((1, 2))
        for _ in range(self.max_level):
            pts = m @ self.p0 + v
            if np.any(np.linalg.norm(pts - x, axis=1) <= threshold):
                return False
            lower = np.linalg.norm(m @ self.x0 + v - x, axis=1) - _norms2(m) * self.rho
            keep = lower <= thr
            if not keep.any():
                return True
            m, v = m[keep], v[keep]
            if len(m) * len(self.a) > self.max_frontier:
                return None
            v = (np.einsum("fij,kj->fki", m, self.t) + v[:, None, :]).reshape(-1, 2)
            m = np.einsum("fij,kjl->fkil", m, self.a).reshape(-1, 2, 2)
        return None


def check_query(oracle: DistanceOracle, ctx: dict, probe: tuple, out: dict) -> str | None:
    """A problem when a hit's claimed distance is certified wrong; else None."""
    if not out["hit"]:
        return None
    x, kind, l, k = probe
    if kind == 0:
        claim = l + ctx["slack"]
    else:
        c = max(spectral_norm(a) for a in oracle.a)
        claim = ctx["c0_bound"] * c ** k + ctx["slack"]
    far = oracle.far(x, claim)
    oracle.checked += 1
    oracle.undecided += far is None
    if far:
        what = f"near1(l={l:.4g})" if kind == 0 else f"near(k={k})"
        return f"{what} hit at {list(x)} but dist(x, K) > {claim:.4g} is certified"
    return None
