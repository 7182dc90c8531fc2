"""Support-function ("width") solver for planar IFS attractors.

The width function of a compact set K around a base point x assigns to each
unit direction d the offset ``h_x(d) = sup_{y in K} (y - x)^T d`` of the
supporting half-plane; it determines conv(K) exactly.  For an IFS attractor
it satisfies a self-similarity fixed-point equation

    h(d) = max_i [ |A_i^T d| * h(dir(A_i^T d)) + t_i^T d ]

whose right-hand side is a sup-norm contraction with the IFS factor c, so
iterating it from a constant function converges geometrically and the final
step size yields a certified a-posteriori error bound.

Directions are discretized on a uniform angle grid with periodic linear
interpolation in between; the interpolation error is covered separately by
a Lipschitz bound (any support function around a base inside B(base, R) is
R-Lipschitz in the angle), reported as ``interp_slack``.

Only the sample values change from one sweep to the next.  Everything else
in the operator (for each map and grid direction: the grid cell of
``dir(A_i^T d)`` with its two interpolation weights, ``|A_i^T d|`` and
``t_i^T d``) is an :class:`_OperatorPlan`, built once per (IFS, grid);
``solve_width`` reuses one plan for every sweep and ``selfsim_operator``
builds one and applies it once.

When every map shares one linear part and it is a nonzero rotation-scaling
(a complex multiplier ``1/z``, as in the complex-base systems), the maximum
picks ``max_i t_i^T d`` whatever the values, so the discrete equation is
linear, ``v = S v + b``, with ``S`` circulant up to rounding of the image
cells.  ``solve_width`` then starts from the exact fixed point of the
circulant of the plan's first row, one real FFT and one inverse; every
other system starts from a constant ball bound.  The start is only a
start: the same sweeps and stopping rule certify the result either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, InvalidBaseError, ValidationError
from .ifs import IFS, _readonly

TWO_PI = 2.0 * math.pi
_ITERATION_CAP = 1_000_000
# a sweep rounds each value by a few ulps of the largest, so steps below
# this multiple of eps * max|h| are rounding, not convergence
_ROUNDING_FLOOR = 4.0 * np.finfo(float).eps


def _check_tol(tol: float) -> float:
    """Return ``tol`` if it is a positive finite number, else raise."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValidationError("tol must be a positive finite number")
    return tol


class DirectionGrid:
    """Uniform angle grid on the circle; even size keeps antipodes on-grid."""

    __slots__ = ("n", "angles", "directions")

    def __init__(self, n: int):
        n = int(n)
        if n < 64:
            raise ValidationError("direction grid needs at least 64 angles")
        if n % 2:
            raise ValidationError("direction grid size must be even")
        self.n = n
        self.angles = _readonly(TWO_PI * np.arange(n) / n)
        self.directions = _readonly(
            np.stack([np.cos(self.angles), np.sin(self.angles)], axis=1)
        )

    @property
    def step(self) -> float:
        return TWO_PI / self.n

    def __repr__(self) -> str:
        return f"DirectionGrid(n={self.n})"


@dataclass(frozen=True)
class WidthSamples:
    """Width function sampled on a direction grid, with its error budget.

    ``iter_error`` bounds the sup-norm distance to the fixed point of the
    discretized operator (from the contraction-based stopping rule);
    ``interp_slack`` bounds the linear-interpolation error between grid
    angles.  Both are certified bounds, tracked separately on purpose: the
    discrete fixed point itself sits within an interpolation-driven offset
    of the continuum width function.
    """

    grid: DirectionGrid
    base: np.ndarray  # (2,)
    values: np.ndarray  # (n,)
    iter_error: float
    interp_slack: float
    iterations: int = 0

    @property
    def slack(self) -> float:
        """Total pointwise uncertainty iter_error + interp_slack."""
        return self.iter_error + self.interp_slack


def _grid_cell(n: int, angles):
    """Cell of each angle on an n-point grid: left node ``g0`` in [0, n) and
    the fraction ``frac`` of the way to node ``(g0 + 1) % n``."""
    pos = np.mod(np.multiply(angles, n / TWO_PI), n)
    floor = np.floor(pos)
    return floor.astype(np.intp) % n, pos - floor


def _interp_periodic(values: np.ndarray, angles):
    """Linear interpolation of grid samples, periodic in the angle."""
    n = values.shape[0]
    g0, frac = _grid_cell(n, angles)
    g1 = (g0 + 1) % n
    return (1.0 - frac) * values[g0] + frac * values[g1]


def make_width_samples(grid: DirectionGrid, base, values,
                       iter_error: float, interp_slack: float) -> WidthSamples:
    """Assemble width samples from raw arrays, checking basic invariants."""
    base = _readonly(np.array(base, dtype=float))
    values = _readonly(np.array(values, dtype=float))
    if base.shape != (2,):
        raise ValidationError("base point must be a 2-vector")
    if values.shape != (grid.n,):
        raise ValidationError(
            f"expected {grid.n} samples, got shape {values.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise ValidationError("width samples must be finite")
    if iter_error < 0.0 or interp_slack < 0.0:
        raise ValidationError("error bounds must be nonnegative")
    return WidthSamples(grid, base, values, float(iter_error), float(interp_slack))


class _OperatorPlan:
    """The value-independent part of the self-similarity operator on a grid.

    For each map and grid direction d it holds the image cell ``g0`` and
    weights ``w0 = 1 - frac``, ``w1 = frac`` of ``dir(A^T d)``, the factor
    ``|A^T d|`` and the shift ``t^T d``, so one application is two gathers,
    a multiply-add and a running max, with no trigonometry.
    """

    __slots__ = ("_maps",)

    def __init__(self, ifs: IFS, grid: DirectionGrid):
        dirs = grid.directions
        self._maps = []
        for m in ifs.maps:
            v = dirs @ m.a  # row g holds (A^T d_g)^T
            g0, frac = _grid_cell(grid.n, np.arctan2(v[:, 1], v[:, 0]))
            # norms == 0 makes the h-term vanish, leaving t^T d: the correct limit
            self._maps.append((g0, 1.0 - frac, frac,
                               np.hypot(v[:, 0], v[:, 1]), dirs @ m.t))

    def circulant_fixed_point(self) -> np.ndarray:
        """Fixed point of ``v = S v + b`` with ``b = max_i t_i^T d`` and ``S``
        the circulant whose every row is map 0's first row: the factor
        ``s = |A^T d_0|``, weights ``w0, w1`` on cells ``k, k + 1``, ``k = g0``.

        ``S`` has the eigenvalues ``s (w0 + w1 e^{2 pi i j/n}) e^{2 pi i j k/n}``
        on the Fourier modes, all of modulus at most ``s < 1``, so the fixed
        point is one real FFT, a division by ``1 - lambda`` and the inverse.
        """
        g0, w0, w1, norms, _ = self._maps[0]
        n = g0.shape[0]
        b = self._maps[0][4]
        for *_, shift in self._maps[1:]:
            b = np.maximum(b, shift)
        modes = np.arange(n // 2 + 1)
        phase = 2j * math.pi / n
        # reduce j * k mod n in integers so the phase stays exact for large n
        lam = (norms[0] * (w0[0] + w1[0] * np.exp(phase * modes))
               * np.exp(phase * (modes * int(g0[0]) % n)))
        return np.fft.irfft(np.fft.rfft(b) / (1.0 - lam), n)

    def apply(self, values: np.ndarray) -> np.ndarray:
        ext = np.append(values, values[0])  # ext[g0 + 1] is values[(g0 + 1) % n]
        nxt = ext[1:]
        best = None
        for g0, w0, w1, norms, shift in self._maps:
            # the operation order of norms * _interp_periodic(...) + shift,
            # so the bits match it
            term = w0 * ext[g0]
            term += w1 * nxt[g0]
            term *= norms
            term += shift
            if best is None:
                best = term
            else:
                np.maximum(best, term, out=best)
        return best


def _shares_similarity(ifs: IFS) -> bool:
    """True iff every map has the same linear part ``[[p, -q], [q, p]]`` with
    ``det = p^2 + q^2 > 0``: one orientation-preserving similarity."""
    a = ifs.maps[0].a
    return bool(a[0, 0] == a[1, 1] and a[0, 1] == -a[1, 0]
                and a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0] > 0.0
                and all(np.array_equal(m.a, a) for m in ifs.maps[1:]))


def selfsim_operator(ifs: IFS, w: WidthSamples) -> WidthSamples:
    """One application of the self-similarity operator to width samples around 0.

    Value at grid direction d:  ``max_i [ |A_i^T d| h(dir(A_i^T d)) + t_i^T d ]``
    with h read off by periodic linear interpolation; a vanishing image
    ``A_i^T d = 0`` degenerates the i-th term to ``t_i^T d``.  Error fields
    are carried through unchanged.
    """
    if ifs.dim != 2:
        raise ValidationError("the width solver is two-dimensional only")
    if not np.allclose(w.base, 0.0, atol=1e-15):
        raise ValidationError("the operator is defined for widths around the origin")
    out = _OperatorPlan(ifs, w.grid).apply(w.values)
    return replace(w, values=_readonly(out))


def solve_width(ifs: IFS, n_grid: int = 4096, tol: float = 1e-6) -> WidthSamples:
    """Solve the width fixed-point equation around the origin.

    Parameters
    ----------
    ifs : IFS
        Two-dimensional system to solve.
    n_grid : int
        Number of grid angles (even, >= 64).
    tol : float
        Target for the a-posteriori bound: iteration stops once
        ``step * c / (1 - c) <= tol``, or once the step is within rounding
        of one sweep, ``step <= 4 eps max|h|`` (eps the float64 machine
        epsilon), where further sweeps cannot shrink it.  Must be positive
        and finite.

    Returns
    -------
    WidthSamples
        Samples around base 0 with ``iter_error = step * c / (1 - c)``
        (above ``tol`` when the rounding floor stopped the sweeps) and
        ``interp_slack = R * pi / n_grid`` where R bounds the circumradius;
        ``iterations`` counts the planned sweeps.

    When all maps share one nonzero rotation-scaling linear part (every
    complex-base system), the start vector is the exact fixed point of the
    plan's first-row circulant (:meth:`_OperatorPlan.circulant_fixed_point`),
    and one sweep usually meets ``tol``.  Any other system starts from the
    constant ``R0 = max_i |t_i| / (1 - c)``, the width of a ball certain to
    contain the attractor.  Either way the sweeps and their stopping rule
    alone certify the result.  The operator plan is built once per solve
    and reused by every sweep.
    """
    if ifs.dim != 2:
        raise ValidationError("the width solver is two-dimensional only")
    _check_tol(tol)
    grid = DirectionGrid(n_grid)
    plan = _OperatorPlan(ifs, grid)
    c = ifs.c
    if _shares_similarity(ifs):
        values = plan.circulant_fixed_point()
    else:
        r0 = max(float(np.linalg.norm(m.t)) for m in ifs.maps) / (1.0 - c)
        values = np.full(grid.n, r0)
    delta = math.inf
    iterations = 0
    # top bounds max|values| (each sweep moves it by at most delta), so the
    # rounding floor costs a pass over the values only once delta is near it
    top = float(np.max(np.abs(values)))
    while iterations < _ITERATION_CAP:
        new = plan.apply(values)
        delta = float(np.max(np.abs(new - values)))
        values = new
        iterations += 1
        top += delta
        if delta * c <= tol * (1.0 - c) or (
                delta <= _ROUNDING_FLOOR * top
                and delta <= _ROUNDING_FLOOR * float(np.max(np.abs(new)))):
            break
    else:
        raise ConvergenceError(
            f"width iteration did not converge within {_ITERATION_CAP} steps"
        )
    iter_error = delta * c / (1.0 - c)
    r_bound = max(float(values.max()), 0.0) + iter_error
    interp_slack = r_bound * math.pi / grid.n
    return WidthSamples(grid, _readonly(np.zeros(2)), _readonly(values),
                        iter_error, interp_slack, iterations)


def rebase_width(w: WidthSamples, new_base) -> WidthSamples:
    """Translate the base point: h_new(d) = h_old(d) + (old - new)^T d."""
    new_base = np.asarray(new_base, dtype=float)
    shift = w.grid.directions @ (w.base - new_base)
    return replace(w, base=_readonly(new_base.copy()),
                   values=_readonly(w.values + shift))


def eval_width(w: WidthSamples, angle):
    """Width at an arbitrary angle by periodic linear interpolation.

    Point uncertainty is ``w.iter_error + w.interp_slack``.  Accepts a
    scalar or an array of angles.
    """
    out = _interp_periodic(w.values, angle)
    if np.isscalar(angle) or np.ndim(angle) == 0:
        return float(out)
    return out


def circumradius(w: WidthSamples) -> float:
    """Certified upper bound on sup_d h(d), the hull radius around the base.

    Raises :class:`InvalidBaseError` when the base lies outside the hull:
    the query layer's excess constant C0 is derived from this radius for a
    base inside the hull.
    """
    worst = float(w.values.min())
    if worst < -w.iter_error - 1e-15:
        raise InvalidBaseError(
            f"base point lies outside the hull (min width {worst:.6g} "
            f"< -iter_error {-w.iter_error:.6g})"
        )
    return float(w.values.max()) + w.iter_error + w.interp_slack


def hull_contains(w: WidthSamples, x, slack: float = 0.0):
    """Full-direction membership test against the sampled hull.

    True iff ``(x - base)^T e <= h(e) + iter_error + slack`` for every grid
    direction e.  Accepts one point of shape (2,) or a batch of shape
    (k, 2); the batch form returns a boolean array.
    """
    x = np.asarray(x, dtype=float)
    budget = w.values + (w.iter_error + slack)
    if x.ndim == 1:
        proj = w.grid.directions @ (x - w.base)
        return bool(np.all(proj <= budget))
    out = np.empty(x.shape[0], dtype=bool)
    block = max(1, 2**24 // max(w.grid.n, 1))  # cap the projection buffer
    for lo in range(0, x.shape[0], block):
        proj = (x[lo:lo + block] - w.base) @ w.grid.directions.T
        out[lo:lo + block] = np.all(proj <= budget, axis=1)
    return out


def width_csv(w: WidthSamples) -> str:
    """CSV export: header ``angle,h``, one row per grid angle (radians, 12
    significant digits), '\\n' line endings."""
    lines = ["angle,h"]
    for angle, value in zip(w.grid.angles.tolist(), w.values.tolist()):
        lines.append(f"{angle:.12g},{value:.17g}")
    return "\n".join(lines) + "\n"
