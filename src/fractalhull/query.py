"""Sound point-proximity predicates built on a solved width function.

The single-direction quick test checks a candidate point only against the
supporting half-plane in its own direction from the base point: cheap, and
a failure certifies the point lies outside the hull (hence outside the
attractor).  Passing it places the point in a superset of the hull whose
Hausdorff excess over the attractor is bounded by a constant C0; pulling
the point back through the inverse maps shrinks that excess by the
contraction factor per level.  One pull-back walk serves both predicates;
they differ only in the rule that stops it with a true answer:

* ``near(x, k)``   -- stop after k levels; a true answer bounds
  dist(x, attractor) by C0 * c^k plus the width slack.  ``near(x, 0)`` is
  the quick test alone.
* ``near1(x, l)``  -- distance-threshold form: stop as soon as the level
  budget ``l / (c_i1 ... c_im)`` reaches C0, so a true answer certifies
  dist(x, attractor) <= l plus the width slack.

The base point is the centroid of the maps' fixed points, which lies in
the hull, so point and segment attractors are walked like any other.

Most quick tests need no angle.  Every threshold ``h(angle) + slack`` the
test interpolates from values in [lo, hi] lies, as computed in floating
point, between ``r_in = (lo + slack)(1 - 8 eps)`` (``slack`` when lo < 0)
and ``r_out = (max(hi, 0) + slack)(1 + 8 eps)``, eps the float64 machine
epsilon: its five roundings move it by about 2 eps relative.  So a point
within r_in of the base passes and one beyond r_out fails exactly as the
full test would decide, and only points between the two circles pay for
``atan2`` and the interpolation; every answer is the full test's.

Both predicates take a finite 2-vector x (else :class:`ValidationError`,
also for strings, complex numbers and other non-numbers).
The walk is depth first, maps in index order, and is one loop over an
explicit stack (map 0's child is descended into in place, not pushed), so
a deep walk (large k, or a tiny l with c near 1) answers like a shallow
one.  Results are frozen and compare by value, so a walk shallower than
64 levels returns a shared :class:`QueryResult` rather than a new one.

Singular maps cannot be inverted and are skipped, as the pull-back demands;
results then carry ``complete=False`` to flag that a false answer may be
spurious.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .ifs import IFS, _check_int, map_fixed_point
from .width import TWO_PI, WidthSamples, circumradius, rebase_width

_SINGULAR_RTOL = 1e-12
_EPS = sys.float_info.epsilon
# eight of the smallest subnormal: the absolute rounding of an interpolant
# whose terms underflow, which no relative margin covers
_TINY = 8.0 * math.ulp(0.0)


@dataclass(frozen=True)
class QueryContext:
    """Immutable bundle of everything the predicates need."""

    ifs: IFS
    width: WidthSamples  # rebased to x0
    x0: np.ndarray
    radius: float        # certified circumradius around x0
    c0_bound: float      # upper bound on the quick-test set's excess over K
    c0_mode: str         # "paper" (R/sqrt(2)) or "safe" (2R)
    complete: bool       # False when singular maps had to be skipped
    slack: float         # width uncertainty granted on the permissive side

    # flat copies for the walk's hot path: x0, the values with their
    # first two repeated at the end (so a cell never wraps), the inverse
    # maps, the same without map 0 in the order the walk pushes them
    # (last map first), and the annulus (r_in, r_out) that settles most
    # quick tests
    _xy: tuple[float, float] = (0.0, 0.0)
    _values: tuple[float, ...] = ()
    _coeff: tuple[tuple[float, ...], ...] = ()
    _tail: tuple[tuple[float, ...], ...] = ()
    _annulus: tuple[float, float] = (0.0, math.inf)


@dataclass(frozen=True)
class QueryResult:
    """Predicate outcome with soundness metadata.

    ``complete=False`` warns that singular maps were skipped, so a false
    answer may be spurious; ``depth`` is the deepest level of the walk
    visited.  Truthiness follows ``hit``.
    """

    hit: bool
    complete: bool
    depth: int

    def __bool__(self) -> bool:
        return self.hit


# _SHARED[hit][complete][depth]: the walk's results for depths below 64
_SHARED_DEPTHS = 64
_SHARED = tuple(tuple(tuple(QueryResult(hit, complete, depth)
                            for depth in range(_SHARED_DEPTHS))
                      for complete in (False, True))
                for hit in (False, True))


def _result(hit: bool, complete: bool, depth: int) -> QueryResult:
    """The shared result for a depth below ``_SHARED_DEPTHS``, else a new one."""
    if depth < _SHARED_DEPTHS:
        return _SHARED[hit][complete][depth]
    return QueryResult(hit, complete, depth)


def build_context(ifs: IFS, w: WidthSamples, c0_mode: str = "paper") -> QueryContext:
    """Prepare a query context from a solved width function.

    The base point ``x0`` is the centroid of the per-map fixed points: each
    fixed point lies in the attractor, so the centroid lies in its convex
    hull without solving anything.  ``c0_mode="paper"`` uses the excess
    constant R/sqrt(2); ``"safe"`` substitutes the conservative 2R for
    callers who prefer a bound derivable from the ball inclusion alone.
    """
    if ifs.dim != 2:
        raise ValidationError("queries need a two-dimensional system")
    if c0_mode not in ("paper", "safe"):
        raise ValidationError('c0_mode must be "paper" or "safe"')
    x0 = np.mean([map_fixed_point(m) for m in ifs.maps], axis=0)
    w0 = rebase_width(w, x0)
    radius = circumradius(w0)
    c0 = radius / math.sqrt(2.0) if c0_mode == "paper" else 2.0 * radius
    coeff = []
    for m in ifs.maps:
        if np.linalg.svd(m.a, compute_uv=False)[-1] <= _SINGULAR_RTOL * max(m.c, 1e-300):
            continue
        inv = np.linalg.inv(m.a)
        coeff.append((
            float(inv[0, 0]), float(inv[0, 1]), float(inv[1, 0]), float(inv[1, 1]),
            float(m.t[0]), float(m.t[1]), float(m.c),
        ))
    slack = w0.slack
    values = w0.values.tolist()
    values += values[:2]
    return QueryContext(
        ifs=ifs, width=w0, x0=x0, radius=radius, c0_bound=c0, c0_mode=c0_mode,
        complete=len(coeff) == len(ifs.maps),
        slack=slack,
        _xy=(float(x0[0]), float(x0[1])),
        _values=tuple(values),
        _coeff=tuple(coeff),
        _tail=tuple(coeff[:0:-1]),
        _annulus=_annulus(float(w0.values.min()), float(w0.values.max()), slack),
    )


def _annulus(lo: float, hi: float, slack: float) -> tuple[float, float]:
    """Radii ``(r_in, r_out)`` around x0 inside which the quick test passes
    and beyond which it fails, whatever the direction.

    A computed threshold ``(1 - f) v0 + f v1 + slack``, v0 and v1 in
    [lo, hi], takes five roundings of at most half an eps each (the weight
    ``1 - f``, two products, two sums), and its two weights sum to within
    half an eps of 1.  So it is at least ``(lo + slack)(1 - 2 eps)`` when
    lo >= 0, and at most ``(max(hi, 0) + slack)(1 + 2 eps)`` (to first
    order) for any lo.  The radii, rounded themselves, stay more than
    5 eps beyond those bounds, so ``dist <= r_in`` passes and
    ``dist > r_out`` fails exactly where the full test does.  ``_TINY``
    covers subnormal values, whose roundings are absolute, not relative.
    """
    r_in = slack
    if lo >= 0.0:
        r_in = max((lo + slack) * (1.0 - 8.0 * _EPS) - _TINY, slack)
    return r_in, (max(hi, 0.0) + slack) * (1.0 + 8.0 * _EPS) + _TINY


def _walk(ctx: QueryContext, x, budget: float, levels: float) -> QueryResult:
    """Depth-first pull-back walk, maps in index order: a point passing
    the quick test ends it with true once ``depth >= levels`` or
    ``budget >= C0``; each level divides the budget by the map's
    contraction factor.  A passing node pushes its children for maps
    m-1 .. 1 and the inner loop carries on with its map-0 child, the one
    the stack would give back next; a failing node, or a passing one with
    no invertible map, hands over to the top of the stack."""
    try:  # any shape but (2,) or a dtype _check_finite refuses fails to unpack
        # a tuple or list of two Python floats, the common call, unpacks as
        # it is; anything else is read through an array
        if not (type(x) in (tuple, list) and len(x) == 2
                and type(x[0]) is float and type(x[1]) is float):
            x = np.asarray(x)
            x = x.tolist() if x.dtype.kind in "biuf" else ()
        px, py = x
        finite = math.isfinite(px) and math.isfinite(py)
    except (TypeError, ValueError):
        finite = False
    if not finite:
        raise ValidationError("query point must be a finite 2-vector")
    x0, y0 = ctx._xy
    r_in, r_out = ctx._annulus
    slack = ctx.slack
    values = ctx._values
    n = len(values) - 2
    c0 = ctx.c0_bound
    hypot, atan2 = math.hypot, math.atan2
    coeff = ctx._coeff
    if coeff:
        j11, j12, j21, j22, jx, jy, jc = coeff[0]
    tail = ctx._tail
    stack = []
    pop, push = stack.pop, stack.append
    depth = max_depth = 0
    while True:
        while True:
            if depth > max_depth:
                max_depth = depth
            dx = px - x0
            dy = py - y0
            dist = hypot(dx, dy)
            # the quick test; inside r_in it passes, beyond r_out it fails,
            # and NaN falls through to the interpolated test as any other
            # distance
            if not dist <= r_in:
                if dist > r_out:
                    break
                pos = (atan2(dy, dx) % TWO_PI) * n / TWO_PI
                g0 = int(pos)  # n when pos rounds up to n: values wraps there
                frac = pos - g0
                if not dist <= (1.0 - frac) * values[g0] + frac * values[g0 + 1] + slack:
                    break
            if depth >= levels or budget >= c0:
                return _result(True, ctx.complete, max_depth)
            if not coeff:
                break
            depth += 1
            for i11, i12, i21, i22, tx, ty, ci in tail:
                qx = px - tx
                qy = py - ty
                push((i11 * qx + i12 * qy, i21 * qx + i22 * qy, budget / ci, depth))
            qx = px - jx
            qy = py - jy
            px = j11 * qx + j12 * qy
            py = j21 * qx + j22 * qy
            budget /= jc
        if not stack:
            return _result(False, ctx.complete, max_depth)
        px, py, budget, depth = pop()


def near(ctx: QueryContext, x, k: int) -> QueryResult:
    """Does x survive k pull-back levels of the quick test?

    A true answer means x lies in the k-fold image of the quick-test set
    (within slack), hence within ``C0 * c^k`` of the attractor.  ``k`` is
    a nonnegative Python or numpy integer, or an integral float; the walk
    tries maps in index order and short-circuits on the first success;
    levels beyond k are never visited.
    """
    # a budget of -inf never reaches C0, even a C0 of zero
    return _walk(ctx, x, -math.inf, _check_int(k, "k", 0))


def near1(ctx: QueryContext, x, l: float) -> QueryResult:
    """Is x certifiably within distance l of the attractor?

    Exact transcription of the threshold recursion: fail the quick test ->
    false; budget ``l >= C0`` -> true; otherwise descend into each
    invertible map with the budget inflated to ``l / c_i``.  A true answer
    certifies dist(x, attractor) <= l + slack under the configured C0
    bound.  Budgets grow by at least 1/c per level, so the depth never
    exceeds ``ceil(log(C0/l) / log(1/c)) + 1``.
    """
    try:
        invalid = not l > 0.0  # also NaN, whose budget never reaches C0
    except (TypeError, ValueError):  # a string, an array or another non-number
        invalid = True
    if invalid:
        raise ValidationError("distance threshold must be positive")
    return _walk(ctx, x, float(l), math.inf)
