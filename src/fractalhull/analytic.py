"""Closed-form width functions and hull geometry for solvable families.

Two exactly solvable situations are covered.  When every map of the IFS
shares one matrix A, the width fixed-point equation telescopes into the
series ``h(d) = sum_i |B^i d| h*(dir(B^i d))`` with ``B = A^T`` and
``h*(e) = max_j t_j^T e``, truncated here with a certified geometric tail
bound.

The planar complex-base family (maps ``x -> (x + i)/z`` for digits
``i = 0..n-1``, ``|z| = r > 1``, ``arg z = phi``) admits a full analysis:
the attractor is the set of digit expansions ``sum_{j>0} d_j z^-j``, so
its hull is a Minkowski sum of segments, ``conv K = sum_j [0, (n-1) z^-j]``
(``conv(A + B) = conv A + conv B``; Schneider, *Convex Bodies: The
Brunn-Minkowski Theory*): centrally symmetric about ``(n-1)/(2(z-1))``,
with centered width ``h(a) = (n-1)/2 * sum_{j>0} r^-j |cos(a + j phi)|``.
One zonogon helper makes both hull polygons.  When ``phi = pi l / k``,
``z^-k = +-r^-k`` folds the segments into k generators and the polygon is
exact; otherwise the first J segments give the hull of the J-digit
expansions, points of the attractor, so that polygon lies inside the hull
and within the tail length ``(n-1) r^-J / (r-1) <= tol`` of it.  Boundary
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

from .errors import ValidationError
from .hull import HullPolygon
from .ifs import (_check_complex_base, _check_finite, _check_int, _check_square,
                  _readonly, _row_blocks, operator_norm)
from .width import _check_tol

_RATIONAL_ANGLE_TOL = 1e-12
_MAX_DENOMINATOR = 64
# a truncated series sums at most this many terms
_MAX_TERMS = 2**20
_SERIES_ENTRIES = 2**20  # equal_maps_width's own blocks: its bits depend on them
# an isodiametric audit evaluates at most this many (r, phi) gaps
_MAX_AUDIT = 2**22


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
    z, n = _check_complex_base(z, n)
    return ComplexBaseSystem(z, n, _detect_rational_angle(cmath.phase(z)))


def _detect_rational_angle(phi: float) -> tuple[int, int] | None:
    for k in range(1, _MAX_DENOMINATOR + 1):
        l = round(phi * k / math.pi)
        if abs(phi - math.pi * l / k) <= _RATIONAL_ANGLE_TOL:
            if math.gcd(abs(l), k) == 1:
                return (int(l), k)
    return None


def equal_maps_width(a, ts, d, tol: float = 1e-12) -> float:
    """Width around 0 in direction d for an IFS whose maps share matrix A.

    Evaluates ``sum_{i>=0} h*(B^i d)`` with ``B = A^T`` and ``h*(e) =
    max_j t_j^T e``, truncated once the tail ``c^J max|t| / (1 - c)`` drops
    below ``tol``: the result is within ``tol`` plus a rounding allowance
    of a few ``eps J max|t| / (1 - c)`` (eps the float64 machine epsilon).
    Works in any dimension: ``a`` is a finite square matrix, ``ts`` finite
    rows of its dimension and ``d`` a finite nonzero vector of it."""
    a = _check_square(a)
    m = a.shape[0]
    ts = _check_finite(ts, "translations", (None, m))
    if not len(ts):
        raise ValidationError("equal_maps_width needs at least one translation")
    _check_tol(tol)
    c = operator_norm(a)
    if c >= 1.0:
        raise ValidationError(f"matrix is not contracting, c={c:.6g}")
    d = _check_finite(d, "direction", (m,))
    nd = float(np.linalg.norm(d))
    if nd == 0.0:
        raise ValidationError("direction must be nonzero")
    tmax = float(np.max(np.linalg.norm(ts, axis=1)))
    # one term when its tail already meets tol (and always for c = 0),
    # which also keeps 1/c finite for a tiny c
    terms = (1 if c * tmax <= tol * (1.0 - c)
             else _series_terms(tmax / c, 1.0 / c, tol))

    def support(j, buf):
        # row i is (B^(j[0] + i) d / |d|)^T, doubled out from row 0
        k = len(j)
        rows, proj = buf[:k * m].reshape(k, m), buf[k * m:].reshape(k, -1)
        rows[0], power, done = d / nd @ np.linalg.matrix_power(a, j[0]), a, 1
        while done < k:
            np.matmul(rows[:k - done][:done], power, out=rows[done:2 * done])
            power, done = power @ power, 2 * done
        return np.max(np.matmul(rows, ts.T, out=proj), axis=1).sum(keepdims=True)

    return float(np.sum(_row_blocks(range(terms), m + len(ts), support, _SERIES_ENTRIES)))


def symmetry_center(sys: ComplexBaseSystem) -> np.ndarray:
    """Center of symmetry (n-1)/(2(z-1)) of the attractor, as a 2D point."""
    w = (sys.n - 1) / (2.0 * (sys.z - 1.0))
    return np.array([w.real, w.imag])


def _series_terms(pref: float, r: float, tol: float) -> int:
    """Smallest J >= 1 whose geometric tail ``pref * r^-J / (r-1)`` is <= tol;
    a J above ``_MAX_TERMS`` = 2**20 (r too near 1 or tol too small) is
    refused before anything is allocated."""
    _check_tol(tol)
    ratio = pref / (tol * (r - 1.0))  # 0 when a huge r underflows it
    terms = 1.0 if ratio <= r else math.log(ratio) / math.log(r)
    if not terms <= _MAX_TERMS:  # an infinite ratio too
        raise ValidationError(f"the series needs {terms:.3g} terms, more than "
                              f"{_MAX_TERMS}: r is too near 1 or tol too small")
    return math.ceil(terms)


def _abs_series(r: float, terms: int, angles, trig, ufunc, slope: float = 1.0):
    """``sum_{j=1..terms} r^-j |trig(ufunc(j slope, a))|`` per finite angle a,
    each bit for bit as if alone: a float for a scalar, else an array."""
    angles = _check_finite(angles, "angle")
    j = np.arange(1, terms + 1)
    lhs, weights = j * slope, r ** (-j.astype(float))

    def rows(a, buf):
        buf = ufunc(lhs, a[:, None], out=buf.reshape(len(a), terms))
        np.abs(trig(buf, out=buf), out=buf)
        return np.sum(np.multiply(buf, weights, out=buf), axis=-1)

    out = _row_blocks(angles.reshape(-1), terms, rows).reshape(angles.shape)
    return float(out) if angles.ndim == 0 else out


def centered_width(sys: ComplexBaseSystem, alpha, tol: float = 1e-12):
    """Width around the symmetry center via the series
    ``(n-1)/2 * sum_{j>=1} r^-j |cos(alpha + j phi)|``.

    Truncated at J with tail ``(n-1)/2 * r^-J / (r-1) <= tol``.  Accepts a
    finite scalar angle or an array of finite angles.
    """
    pref = 0.5 * (sys.n - 1)
    terms = _series_terms(pref, sys.r, tol)
    return pref * _abs_series(sys.r, terms, alpha, np.cos, np.add, sys.phi)


def rational_width(sys: ComplexBaseSystem, alpha):
    """Exact finite width form for rational angles:
    ``h(a) = (n-1)/(2(1-r^-k)) * sum_{j=1..k} r^-j |cos(a + j phi)|``.
    Accepts a finite scalar angle or an array of finite angles."""
    if sys.rational_angle is None:
        raise ValidationError("rational_width needs a declared rational angle")
    _, k = sys.rational_angle
    pref = (sys.n - 1) / (2.0 * _one_minus_inv_pow(sys.r, k))
    return pref * _abs_series(sys.r, k, alpha, np.cos, np.add, sys.phi)


def _one_minus_inv_pow(r: float, k: int) -> float:
    """``1 - r^-k`` to a few ulps: the subtraction ``1.0 - r ** -k`` cancels
    for r near 1 (relative error 2e-11 at r = 1 + 1e-6)."""
    return -math.expm1(-k * math.log1p(r - 1.0))


@dataclass(frozen=True)
class TriangleParams:
    """One hull edge in base-triangle form: supporting distance a at normal
    angle, endpoint offsets b (counterclockwise side) and c (clockwise)."""

    j: int
    angle: float
    a: float
    b: float
    c: float


def _zonogon(center, gens: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Counterclockwise vertices of ``center + sum_j [-1/2, 1/2] gens[j]``.

    The generators, turned into the upper half-plane and stable-sorted by
    angle, are walked as ``+g`` then ``-g`` steps from ``center - sum(g)/2``
    (Ziegler, *Lectures on Polytopes*, 7.3), starting at the edge of least
    outward normal angle in [0, 2 pi).  ``normals[j]``, the closed-form
    normal angle of the edge along ``-gens[j]``, decides that start where a
    normal lies within rounding of 0.
    """
    flip = (gens[:, 1] < 0.0) | ((gens[:, 1] == 0.0) & (gens[:, 0] < 0.0))
    up = np.where(flip[:, None], -gens, gens)
    order = np.argsort(np.arctan2(up[:, 1], up[:, 0]), kind="stable")
    steps = np.concatenate((up[order], -up[order]))
    verts = center - 0.5 * up.sum(axis=0) + np.cumsum(steps, axis=0)
    # a +g step runs along -gens[j] exactly when gens[j] was flipped
    half = np.where(flip[order], 0.0, math.pi)
    turn = np.tile(normals[order], 2) + np.concatenate((half, math.pi - half))
    start = int(np.argmin(np.mod(turn, 2.0 * math.pi)))
    # verts[i] ends step i, so step ``start`` begins at verts[start - 1]
    return np.roll(verts, -start + 1, axis=0)


def _digit_generators(sys: ComplexBaseSystem, terms: int, scale: float):
    """``scale * z^-j`` as vectors, and their edges' normals ``pi/2 - j phi``,
    for j = 1..terms."""
    j = np.arange(1, terms + 1)
    jphi = j * sys.phi
    gens = (scale * sys.r ** -j.astype(float))[:, None] * np.column_stack(
        (np.cos(jphi), -np.sin(jphi)))
    return gens, 0.5 * math.pi - jphi


def exact_polygon(sys: ComplexBaseSystem) -> tuple[HullPolygon, list[TriangleParams]]:
    """Exact hull polygon for a rational angle ``phi = pi l / k``.

    ``z^-(j+k) = +-r^-k z^-j`` folds the digit segments into k generators
    ``G_j = (n-1)/(1-r^-k) z^-j``: the hull is the zonogon
    ``center + sum_j [-1/2, 1/2] G_j``, with 2k vertices (2 when k = 1).
    Also returns its k edges with normals ``pi/2 - j phi`` in base-triangle
    form: ``a`` from :func:`rational_width`, ``b + c`` the edge length,
    ``b - c`` the one-sided width derivatives of the other families.
    The polygon's ``outer_slack`` is its rounding allowance, ``max(1e-12,
    8 eps (k + 2) (n - 1) / (r - 1))``: it grows with the hull's size.
    """
    if sys.rational_angle is None:
        raise ValidationError("exact_polygon needs a declared rational angle")
    _, k = sys.rational_angle
    r, phi, n = sys.r, sys.phi, sys.n
    scale = (n - 1) / _one_minus_inv_pow(r, k)
    gens, normals = _digit_generators(sys, k, scale)
    center = symmetry_center(sys)
    verts = _zonogon(center, gens, normals)
    j = np.arange(1, k + 1)
    weights = r ** -j.astype(float)
    # d/da |cos| at normal j of family i, i != j: its cosine is never 0
    at = normals[:, None] + j * phi
    slopes = -np.sin(at) * np.sign(np.cos(at))
    np.fill_diagonal(slopes, 0.0)
    lengths, diffs = scale * weights, scale * (slopes @ weights)
    rows = zip(j.tolist(), normals.tolist(), rational_width(sys, normals).tolist(),
               (0.5 * (lengths + diffs)).tolist(), (0.5 * (lengths - diffs)).tolist())
    tris = [TriangleParams(*row) for row in rows]
    # the vertices sum k + 2 terms of size up to (n-1)/(r-1), each rounded
    slack = max(1e-12, 8.0 * np.finfo(float).eps * (k + 2) * (n - 1) / (r - 1.0))
    poly = HullPolygon(_readonly(verts), _readonly(center), method="exact",
                       outer_slack=slack)
    return poly, tris


def irrational_polygon(sys: ComplexBaseSystem, tol: float) -> HullPolygon:
    """Hull of the J-digit expansions ``sum_{j<=J} d_j z^-j``, the zonogon
    of the segments ``[0, (n-1) z^-j]``, j <= J.

    Those are points of the attractor, so the polygon lies inside the hull,
    and within the left-out segments' total length ``(n-1) r^-J / (r-1)``,
    J the least that makes it ``<= tol``.  Rational systems are accepted
    too (their parallel edges follow one another).
    """
    gens, normals = _digit_generators(sys, _series_terms(sys.n - 1, sys.r, tol), sys.n - 1)
    verts = _zonogon(0.5 * gens.sum(axis=0), gens, normals)
    return HullPolygon(_readonly(verts), _readonly(symmetry_center(sys)),
                       method="series", outer_slack=float(tol))


def hull_perimeter(sys: ComplexBaseSystem) -> float:
    """Boundary length 2(n-1)/(r-1); independent of the base angle."""
    return 2.0 * (sys.n - 1) / (sys.r - 1.0)


def hull_area(sys: ComplexBaseSystem, tol: float = 1e-12) -> float:
    """Hull area ``(n-1)^2/(r^2-1) * sum_{v>0} |sin(v phi)| r^-v``,
    truncated with tail bound ``prefactor * r^-V / (r-1) <= tol``."""
    r, n = sys.r, sys.n
    pref = (n - 1) ** 2 / (r * r - 1.0)
    return pref * _abs_series(r, _series_terms(pref, r, tol), sys.phi, np.sin, np.multiply)


def isodiametric_gap(r: float, phi):
    """Slack of the induced trigonometric inequality at (r, phi):
    ``(r+1)/(pi (r-1)) - sum_{j>0} |sin(j phi)| r^-j`` (machine-tail
    truncation); isoperimetry puts it at >= 0.  ``r`` must be a finite
    number > 1.  Accepts a finite scalar angle (returns a float) or an
    array of finite angles."""
    r = float(_check_finite(r, "r", ()))
    if r <= 1.0:
        raise ValidationError("r must exceed 1")
    bound = (r + 1.0) / (math.pi * (r - 1.0))
    target = 1e-16 * max(1.0, 1.0 / (r - 1.0))
    return bound - _abs_series(r, _series_terms(1.0, r, target), phi, np.sin, np.multiply)


def isodiametric_audit(r_count: int = 60, phi_count: int = 720):
    """Gap values over a log-spaced r grid in [1.05, 4] and a uniform phi
    grid in [0, 2 pi).  Returns (r values, phi values, gap matrix).  Both
    counts must be integers >= 1 (an integral float counts) whose product
    is at most ``_MAX_AUDIT`` = 2**22, checked before any allocation."""
    r_count = _check_int(r_count, "r_count", 1)
    phi_count = _check_int(phi_count, "phi_count", 1)
    if r_count * phi_count > _MAX_AUDIT:
        raise ValidationError(f"r_count x phi_count must be at most {_MAX_AUDIT}, "
                              f"got {r_count} x {phi_count}")
    rs = np.geomspace(1.05, 4.0, r_count)
    phis = np.arange(phi_count) * (2.0 * math.pi / phi_count)
    return rs, phis, np.array([isodiametric_gap(r, phis) for r in rs.tolist()])
