"""Closed-form width functions and hull geometry for solvable families.

Two exactly solvable situations are covered.  When every map of the IFS
shares one matrix A, the width fixed-point equation telescopes into the
series ``h(d) = sum_i |B^i d| h*(dir(B^i d))`` with ``B = A^T`` and
``h*(e) = max_j t_j^T e``, truncated here with a certified geometric tail
bound.

The planar complex-base family (maps ``x -> (x + i)/z`` for digits
``i = 0..n-1``, ``|z| = r > 1``, ``arg z = phi``) admits a full analysis:
the attractor is centrally symmetric about ``(n-1)/(2(z-1))``, its centered
width is the series ``h(a) = (n-1)/2 * sum_{j>0} r^-j |cos(a + j phi)|``,
and when ``phi`` is a rational multiple of pi the series collapses to a
finite form whose kinks build an explicit polygon, edge by edge.  Boundary
length is ``2(n-1)/(r-1)`` independently of ``phi``; the area series drives
a nonnegativity audit of the induced trigonometric inequality
``sum_{j>0} |sin(j phi)| r^-j <= (r+1)/(pi (r-1))`` (isoperimetry: among
convex bodies of given boundary length the disk maximizes area).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import FractalHullError, ValidationError
from .hull import HullPolygon, _dedup_cyclic, _monotone_chain
from .ifs import _readonly, operator_norm
from .width import _check_tol

_RATIONAL_ANGLE_TOL = 1e-12
_MAX_DENOMINATOR = 64


@dataclass(frozen=True)
class ComplexBaseSystem:
    """The (z, n) complex-base family with optional exact-angle metadata.

    ``rational_angle = (l, k)`` records ``arg z = pi l / k`` in lowest
    terms, unlocking the finite width form and the exact polygon; ``None``
    selects the series forms.
    """

    z: complex
    n: int
    rational_angle: tuple[int, int] | None = None

    @property
    def r(self) -> float:
        return abs(self.z)

    @property
    def phi(self) -> float:
        if self.rational_angle is not None:
            l, k = self.rational_angle
            return math.pi * l / k
        return cmath.phase(self.z)


def complex_base_system(z: complex, n: int) -> ComplexBaseSystem:
    """Build a validated :class:`ComplexBaseSystem`.

    The rational angle is detected: denominators up to 64 are searched for
    a rational multiple of pi within 1e-12 of ``arg z`` (floating-point
    angles are never exactly rational).  An angle not found is treated as
    irrational.
    """
    z = complex(z)
    if abs(z) <= 1.0:
        raise ValidationError("complex base needs |z| > 1")
    if n != int(n) or int(n) < 2:
        raise ValidationError("digit count n must be an integer >= 2")
    return ComplexBaseSystem(z, int(n), _detect_rational_angle(cmath.phase(z)))


def _detect_rational_angle(phi: float) -> tuple[int, int] | None:
    for k in range(1, _MAX_DENOMINATOR + 1):
        l = round(phi * k / math.pi)
        if abs(phi - math.pi * l / k) <= _RATIONAL_ANGLE_TOL:
            if math.gcd(abs(l), k) == 1:
                return (int(l), k)
    return None


def equal_maps_width(a, ts, d, tol: float = 1e-12) -> float:
    """Width around 0 in direction d for an IFS whose maps share matrix A.

    Evaluates ``sum_{i>=0} |B^i d| h*(dir(B^i d))`` with ``B = A^T`` and
    ``h*(e) = max_j t_j^T e``, truncated once the geometric tail
    ``c^J max|t| / (1 - c)`` drops below ``tol``; the result is certified
    within ``tol``.  Works in any dimension.
    """
    a = np.asarray(a, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 2 or ts.shape[1] != a.shape[0]:
        raise ValidationError("translations must be rows matching the matrix dimension")
    _check_tol(tol)
    c = operator_norm(a)
    if c >= 1.0:
        raise ValidationError(f"matrix is not contracting, c={c:.6g}")
    d = np.asarray(d, dtype=float)
    nd = float(np.linalg.norm(d))
    if nd == 0.0:
        raise ValidationError("direction must be nonzero")
    u = d / nd
    tmax = float(np.max(np.linalg.norm(ts, axis=1)))
    if tmax == 0.0:
        return 0.0
    if c == 0.0:
        terms = 1
    else:
        terms = max(1, math.ceil(math.log(tol * (1.0 - c) / tmax) / math.log(c)))
    b = a.T
    total = 0.0
    scale = 1.0
    for _ in range(terms):
        total += scale * float(np.max(ts @ u))
        v = b @ u
        nv = float(np.linalg.norm(v))
        scale *= nv
        if scale == 0.0:
            break
        u = v / nv
    return total


def symmetry_center(sys: ComplexBaseSystem) -> np.ndarray:
    """Center of symmetry (n-1)/(2(z-1)) of the attractor, as a 2D point."""
    w = (sys.n - 1) / (2.0 * (sys.z - 1.0))
    return np.array([w.real, w.imag])


def _series_terms(pref: float, r: float, tol: float) -> int:
    """Smallest J >= 1 whose geometric tail ``pref * r^-J / (r-1)`` is <= tol."""
    _check_tol(tol)
    return max(1, math.ceil(math.log(pref / (tol * (r - 1.0))) / math.log(r)))


def _abs_cos_series(pref: float, sys: ComplexBaseSystem, alpha, terms: int):
    """``pref * sum_{j=1..terms} r^-j |cos(alpha + j phi)|`` for a scalar
    angle (returns a float) or an array of angles."""
    r, phi = sys.r, sys.phi
    j = np.arange(1, terms + 1)
    alpha_arr = np.asarray(alpha, dtype=float)
    angles = alpha_arr[..., None] + j * phi
    out = pref * np.sum(np.abs(np.cos(angles)) * r ** (-j), axis=-1)
    if np.ndim(alpha) == 0:
        return float(out)
    return out


def centered_width(sys: ComplexBaseSystem, alpha, tol: float = 1e-12):
    """Width around the symmetry center via the series
    ``(n-1)/2 * sum_{j>=1} r^-j |cos(alpha + j phi)|``.

    Truncated at J with tail ``(n-1)/2 * r^-J / (r-1) <= tol``.  Accepts a
    scalar angle or an array.
    """
    pref = 0.5 * (sys.n - 1)
    return _abs_cos_series(pref, sys, alpha, _series_terms(pref, sys.r, tol))


def rational_width(sys: ComplexBaseSystem, alpha):
    """Exact finite width form for rational angles:
    ``h(a) = (n-1)/(2(1-r^-k)) * sum_{j=1..k} r^-j |cos(a + j phi)|``."""
    if sys.rational_angle is None:
        raise ValidationError("rational_width needs a declared rational angle")
    _, k = sys.rational_angle
    return _abs_cos_series((sys.n - 1) / (2.0 * (1.0 - sys.r ** (-k))), sys, alpha, k)


@dataclass(frozen=True)
class TriangleParams:
    """One hull edge in base-triangle form: supporting distance a at normal
    angle, endpoint offsets b (counterclockwise side) and c (clockwise)."""

    j: int
    angle: float
    a: float
    b: float
    c: float


def _abs_cos_derivative(angle: float) -> float:
    """d/da |cos(a)|, taken as 0 exactly at the cosine zeros (the kink's own
    family there, accounted in the jump instead)."""
    c = math.cos(angle)
    if abs(c) < 1e-13:
        return 0.0
    return -math.sin(angle) * (1.0 if c > 0.0 else -1.0)


def _edge_family(sys: ComplexBaseSystem, a_vals, inner: int,
                 scale: float) -> list[TriangleParams]:
    """Edges j = 1..len(a_vals) with normals ``pi/2 - j phi``.

    ``a_vals`` holds the supporting distances.  Edge j has length
    ``scale * r^-j``; its endpoint asymmetry b - c is ``scale`` times the
    one-sided width derivative summed over the other families i = 1..inner.
    """
    r, phi = sys.r, sys.phi
    tris = []
    for j, a_j in enumerate(a_vals, start=1):
        ang = 0.5 * math.pi - j * phi
        bc_sum = scale * r ** (-j)
        s = 0.0
        for i in range(1, inner + 1):
            if i == j:
                continue
            s += r ** (-i) * _abs_cos_derivative(ang + i * phi)
        bc_diff = scale * s
        tris.append(TriangleParams(j, ang, float(a_j),
                                   0.5 * (bc_sum + bc_diff),
                                   0.5 * (bc_sum - bc_diff)))
    return tris


def _chain_edges(tris: list[TriangleParams], center, angle_tol: float,
                 close_tol: float | None, merge_tol: float) -> np.ndarray:
    """Chain an edge family and its antipodes into the polygon's vertices.

    Edges sharing a support line (normals within ``angle_tol``) merge
    first.  Members of one family carry identical endpoint asymmetry b - c
    (their smooth derivative sums coincide) while their lengths add up, so
    the merged edge keeps the shared asymmetry and sums the lengths.
    Needed whenever the infinite edge family is evaluated at a rational
    angle, where infinitely many indices land on finitely many lines.
    The merged edges, ordered by normal angle, then chain end to end;
    raises if a declared-exact chain (``close_tol`` given) fails to close.
    """
    def merge(prev, a, b, c):
        total = (prev[2] + prev[3]) + (b + c)
        diff = prev[2] - prev[3]
        prev[1] = max(prev[1], a)
        prev[2] = 0.5 * (total + diff)
        prev[3] = 0.5 * (total - diff)

    edges = sorted((theta % (2.0 * math.pi), t.a, t.b, t.c)
                   for t in tris for theta in (t.angle, t.angle + math.pi))
    merged: list[list[float]] = []
    for theta, a, b, c in edges:
        if merged and theta - merged[-1][0] <= angle_tol:
            merge(merged[-1], a, b, c)
        else:
            merged.append([theta, a, b, c])
    if len(merged) > 1 and (merged[0][0] + 2.0 * math.pi - merged[-1][0]) <= angle_tol:
        merge(merged[-1], *merged.pop(0)[1:])
    points = []
    for theta, a, b, c in merged:
        u = np.array([math.cos(theta), math.sin(theta)])
        uperp = np.array([-u[1], u[0]])
        points.append(center + a * u - c * uperp)
        points.append(center + a * u + b * uperp)
    # each edge's start against the previous edge's end, cyclically
    gaps = [float(np.linalg.norm(points[i] - points[i - 1]))
            for i in range(0, len(points), 2)]
    if close_tol is not None and max(gaps) > close_tol:
        raise FractalHullError(
            f"edge chain failed to close (worst gap {max(gaps):.3g} > {close_tol:.3g})"
        )
    return _dedup_cyclic(np.array(points), merge_tol)


def exact_polygon(sys: ComplexBaseSystem) -> tuple[HullPolygon, list[TriangleParams]]:
    """Exact hull polygon for a rational-angle system.

    Emits the 2k edges with normals ``pi/2 - j phi`` (j = 1..k) and their
    antipodes; endpoints follow from the supporting distance and the
    one-sided width derivatives, and consecutive edges share endpoints by
    construction (validated).  k edge families always suffice.  Also
    returns the k edges in base-triangle form.
    """
    if sys.rational_angle is None:
        raise ValidationError("exact_polygon needs a declared rational angle")
    _, k = sys.rational_angle
    r, phi, n = sys.r, sys.phi, sys.n
    a_vals = [rational_width(sys, 0.5 * math.pi - j * phi) for j in range(1, k + 1)]
    tris = _edge_family(sys, a_vals, k, (n - 1) / (1.0 - r ** (-k)))
    center = symmetry_center(sys)
    scale = max(max(abs(t.a) for t in tris), max(t.b + t.c for t in tris))
    verts = _chain_edges(tris, center, angle_tol=1e-12, close_tol=1e-9 * scale,
                         merge_tol=1e-9 * scale)
    poly = HullPolygon(_readonly(verts), _readonly(center), method="exact",
                       outer_slack=0.0)
    return poly, tris


def irrational_polygon(sys: ComplexBaseSystem, tol: float) -> HullPolygon:
    """Hull polygon from the truncated infinite edge family.

    Edge j has normal ``pi/2 - j phi`` and length ``(n-1) r^-j``; the family
    is cut once the remaining total edge length ``(n-1) r^-J / (r-1)`` is
    below ``tol``, so the support function of the result is within ``tol``
    of the true width everywhere.  Rational systems are accepted too (their
    sub-edges chain along shared support lines).
    """
    r, phi, n = sys.r, sys.phi, sys.n
    terms = _series_terms(n - 1, r, tol)
    inner_tol = min(tol * 1e-3, 1e-14 * (n - 1) / (r - 1.0)) + 1e-300
    inner = max(terms, _series_terms(n - 1, r, inner_tol))
    angles = 0.5 * math.pi - np.arange(1, terms + 1) * phi
    a_vals = centered_width(sys, angles, tol=min(tol * 1e-3, 1e-14))
    center = symmetry_center(sys)
    tris = _edge_family(sys, a_vals, inner, n - 1)
    scale = max(max(abs(t.a) for t in tris), 1e-300)
    verts = _chain_edges(tris, center, angle_tol=1e-9, close_tol=None,
                         merge_tol=1e-9 * scale)
    # only strictly reflex points may go: collinear joints between short
    # sub-edges carry real support and must survive the cleanup
    verts = _monotone_chain(verts, eps_cross=0.0)
    return HullPolygon(_readonly(verts), _readonly(center), method="series",
                       outer_slack=float(tol))


def hull_perimeter(sys: ComplexBaseSystem) -> float:
    """Boundary length 2(n-1)/(r-1); independent of the base angle."""
    return 2.0 * (sys.n - 1) / (sys.r - 1.0)


def hull_area(sys: ComplexBaseSystem, tol: float = 1e-12) -> float:
    """Hull area ``(n-1)^2/(r^2-1) * sum_{v>0} |sin(v phi)| r^-v``,
    truncated with tail bound ``prefactor * r^-V / (r-1) <= tol``."""
    r, phi, n = sys.r, sys.phi, sys.n
    pref = (n - 1) ** 2 / (r * r - 1.0)
    v = np.arange(1, _series_terms(pref, r, tol) + 1)
    return pref * float(np.sum(np.abs(np.sin(v * phi)) * r ** (-v.astype(float))))


def isodiametric_gap(r: float, phi):
    """Slack of the induced trigonometric inequality at (r, phi):
    ``(r+1)/(pi (r-1)) - sum_{j>0} |sin(j phi)| r^-j`` (machine-tail
    truncation); isoperimetry puts it at >= 0.  Accepts a scalar angle
    (returns a float) or an array of angles."""
    if r <= 1.0:
        raise ValidationError("r must exceed 1")
    bound = (r + 1.0) / (math.pi * (r - 1.0))
    target = 1e-16 * max(1.0, 1.0 / (r - 1.0))
    j = np.arange(1, _series_terms(1.0, r, target) + 1)
    gaps = bound - np.abs(np.sin(np.outer(phi, j))) @ (r ** (-j.astype(float)))
    if np.ndim(phi) == 0:
        return float(gaps[0])
    return gaps


def isodiametric_audit(r_count: int = 60, phi_count: int = 720):
    """Gap values over a log-spaced r grid in [1.05, 4] and a uniform phi
    grid in [0, 2 pi).  Returns (r values, phi values, gap matrix).  Both
    counts must be at least 1."""
    if r_count < 1 or phi_count < 1:
        raise ValidationError("audit grid counts must be at least 1")
    rs = np.geomspace(1.05, 4.0, r_count)
    phis = np.arange(phi_count) * (2.0 * math.pi / phi_count)
    gaps = np.empty((r_count, phi_count))
    for i, r in enumerate(rs.tolist()):
        gaps[i] = isodiametric_gap(r, phis)
    return rs, phis, gaps
