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

Both predicates take a finite 2-vector x (else :class:`ValidationError`).
The walk recurses once per level, so one that goes deeper than Python's
recursion limit (large k, or a tiny l with c near 1) raises
:class:`FractalHullError` naming the level it reached.

Singular maps cannot be inverted and are skipped, as the recursion demands;
results then carry ``complete=False`` to flag that a false answer may be
spurious.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import FractalHullError, ValidationError
from .ifs import IFS, map_fixed_point
from .width import WidthSamples, circumradius, rebase_width

_SINGULAR_RTOL = 1e-12


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

    # flat copies for the recursion hot path
    _values: tuple[float, ...] = ()
    _coeff: tuple[tuple[float, ...], ...] = ()


@dataclass(frozen=True)
class QueryResult:
    """Predicate outcome with soundness metadata.

    ``complete=False`` warns that singular maps were skipped, so a false
    answer may be spurious; ``depth`` is the deepest recursion level
    reached.  Truthiness follows ``hit``.
    """

    hit: bool
    complete: bool
    depth: int

    def __bool__(self) -> bool:
        return self.hit


def _min_singular_value(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False)[-1])


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
        if _min_singular_value(m.a) <= _SINGULAR_RTOL * max(m.c, 1e-300):
            continue
        inv = np.linalg.inv(m.a)
        coeff.append((
            float(inv[0, 0]), float(inv[0, 1]), float(inv[1, 0]), float(inv[1, 1]),
            float(m.t[0]), float(m.t[1]), float(m.c),
        ))
    return QueryContext(
        ifs=ifs, width=w0, x0=x0, radius=radius, c0_bound=c0, c0_mode=c0_mode,
        complete=len(coeff) == len(ifs.maps),
        slack=w0.iter_error + w0.interp_slack,
        _values=tuple(w0.values.tolist()),
        _coeff=tuple(coeff),
    )


def _quick_inside(ctx: QueryContext, x: float, y: float) -> bool:
    dx = x - float(ctx.x0[0])
    dy = y - float(ctx.x0[1])
    dist = math.hypot(dx, dy)
    if dist <= ctx.slack:
        return True
    n = len(ctx._values)
    pos = (math.atan2(dy, dx) % (2.0 * math.pi)) * n / (2.0 * math.pi)
    g0 = int(pos) % n
    frac = pos - int(pos)
    h = (1.0 - frac) * ctx._values[g0] + frac * ctx._values[(g0 + 1) % n]
    return dist <= h + ctx.slack


def _walk(ctx: QueryContext, x, budget: float, levels: float) -> QueryResult:
    """Depth-first pull-back walk: a point passing the quick test ends it
    with true once ``depth >= levels`` or ``budget >= C0``; each level
    divides the budget by the map's contraction factor."""
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise ValidationError("query point must be a finite 2-vector")
    px, py = float(x[0]), float(x[1])
    if not (math.isfinite(px) and math.isfinite(py)):
        raise ValidationError("query point must be a finite 2-vector")
    coeff = ctx._coeff
    c0 = ctx.c0_bound
    max_depth = 0

    def walk(px: float, py: float, budget: float, depth: int) -> bool:
        nonlocal max_depth
        if depth > max_depth:
            max_depth = depth
        if not _quick_inside(ctx, px, py):
            return False
        if depth >= levels or budget >= c0:
            return True
        for i11, i12, i21, i22, tx, ty, ci in coeff:
            qx = px - tx
            qy = py - ty
            if walk(i11 * qx + i12 * qy, i21 * qx + i22 * qy, budget / ci, depth + 1):
                return True
        return False

    try:
        hit = walk(px, py, budget, 0)
    except RecursionError:
        raise FractalHullError(
            f"pull-back walk reached level {max_depth}, past the recursion "
            f"limit ({sys.getrecursionlimit()})") from None
    return QueryResult(hit, ctx.complete, max_depth)


def near(ctx: QueryContext, x, k: int) -> QueryResult:
    """Does x survive k pull-back levels of the quick test?

    A true answer means x lies in the k-fold image of the quick-test set
    (within slack), hence within ``C0 * c^k`` of the attractor.  The walk
    tries maps in index order and short-circuits on the first success;
    levels beyond k are never visited.
    """
    if not 0 <= k < math.inf:  # also rejects NaN, which int() cannot take
        raise ValidationError("k must be nonnegative and finite")
    # a budget of -inf never reaches C0, even a C0 of zero
    return _walk(ctx, x, -math.inf, int(k))


def near1(ctx: QueryContext, x, l: float) -> QueryResult:
    """Is x certifiably within distance l of the attractor?

    Exact transcription of the threshold recursion: fail the quick test ->
    false; budget ``l >= C0`` -> true; otherwise recurse into each
    invertible map with the budget inflated to ``l / c_i``.  A true answer
    certifies dist(x, attractor) <= l + slack under the configured C0
    bound.  Budgets grow by at least 1/c per level, so the depth never
    exceeds ``ceil(log(C0/l) / log(1/c)) + 1``.
    """
    if not l > 0.0:  # also rejects NaN, whose budget never reaches C0
        raise ValidationError("distance threshold must be positive")
    return _walk(ctx, x, float(l), math.inf)
