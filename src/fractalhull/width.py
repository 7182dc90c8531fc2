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
interpolation in between.  :class:`WidthSamples` composes the error budget
once: ``bound`` at the grid angles, ``slack`` at any angle and ``radius``
for the scale of the hull around the base; every certified claim reads
one of the three.  The ledger behind them records the sources apart:
``iter_error``, the solver's distance to the discrete fixed point, and
``interp_slack``, the interpolation error between grid angles (any support
function around a base inside B(base, R) is R-Lipschitz in the angle).

Only the sample values change from one sweep to the next.  Everything else
in the operator is an :class:`_OperatorPlan`, built once per (IFS, grid),
with one entry per distinct linear part ``A``: for each grid direction the
grid cell of ``dir(A^T d)``, its two interpolation weights times
``|A^T d|``, and ``max_i t_i^T d`` over the maps sharing ``A``.
``solve_width`` reuses one plan for every sweep and ``selfsim_operator``
builds one and applies it once.  A similarity (a rotation or reflection
times a ratio) sends grid direction k to cell ``(o + k) % n`` or
``(o - k) % n``, so the plan reads its cells as a strided slice of the
periodically extended values; other linear parts gather them by index.
Both read the same elements in the same operation order, so the bits
agree.

The start rule (:func:`_solve`).  When every map shares one linear part
and it is a nonzero rotation-scaling (a complex multiplier ``1/z``, as in
the complex-base systems), the maximum picks ``max_i t_i^T d`` whatever the
values, so the discrete equation is linear, ``v = S v + b``, with ``S``
circulant up to rounding of the image cells: the solve starts from the
exact fixed point of the circulant of the plan's first row, one real FFT
and one inverse.  Every other system starts from the constant
``R0 = max_i |t_i| / (1 - c)``, the width of a ball certain to contain the
attractor, on fewer than 2048 angles.  On more it starts from the solve on
``n // 16 * 2`` angles (started by the same rule, so 16384 -> 2048 -> 256),
swept only until its error bound is within the finer grid's interpolation
slack and interpolated to the finer grid (one-way multigrid: Chow &
Tsitsiklis, IEEE Trans. Automatic Control 36(8), 1991); the coarse plan is
freed before the finer one is built, so two plans never coexist.  The
start is only a start: the sweeps on the requested grid and their stopping
rule certify the result either way, and ``iterations`` counts those sweeps
alone.

The stopping test (:func:`_sweep`) is one pass over the step
``new - values``; one entry of the step screens it.  The entry where the
last tested step was largest bounds the step from below, and while it
alone rules out every stop condition the sweep skips the pass.  A skipped
test would have failed, so the stops, the sweep counts and every value
are those of testing every sweep.  Slowly contracting systems skip most
tests: four similarity systems with c from 0.9 to 0.97 ran the full test
on 4-16 of their 99-262 sweeps at 4096 angles.

The extrapolation (:func:`_sweep`).  Near c = 1 the error left after many
sweeps is a few slow modes of modulus about c, rotating from sweep to
sweep, which plain sweeps shrink by only c each.  When ``c**20 >= 1/4``
(c >= 0.933), every 20 sweeps the last six iterates give a reduced-rank
extrapolation ``s`` (Sidi, *Vector Extrapolation Methods with
Applications*, SIAM 2017; with the later iterate of each step weighted,
as in Anderson mixing, J. ACM 12, 1965): the affine combination of the
iterates whose steps cancel best.  One check sweep takes ``s`` to ``T(s)``,
and the sweeps go on from ``T(s)`` only if its step is no larger than
the last plain step; otherwise from where they were.  The stop rule, the
screen and ``iter_error`` stay as they are: any start is certified by
the step of the sweep that leaves it, so the values returned are still
a sweep of their predecessor, within ``step * c / (1 - c)`` of the fixed
point.  ``iterations`` counts the check sweeps.  A faster system never
extrapolates and keeps its sweeps and bits.  Hull-slow's c = 0.944 and
0.961 similarities went from 168-173 and 248-262 sweeps to 81-105 and
67-127 at 4096 angles (seeds 1-10), and ROADMAP item 1's c = 0.9903 system
from 2989 to 593 at 64 angles.

Sizes are capped before anything is allocated: a grid holds at most
2**20 angles (an operator plan holds 32 bytes per angle per distinct
linear part, 24 when its cells are a slice).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, ValidationError
from .ifs import IFS, _check_finite, _check_int, _readonly, _row_blocks

TWO_PI = 2.0 * math.pi
_ITERATION_CAP = 1_000_000
# a sweep rounds each value by a few ulps of the largest, so steps below
# this multiple of eps * max|h| are rounding, not convergence
_ROUNDING_FLOOR = 4.0 * np.finfo(float).eps
# an operator plan holds 32 bytes per angle per distinct linear part (24
# when its cells are a slice): ~34 MB per linear part here
_MAX_GRID = 2**20
# the least grid with a nested start (see the module docstring)
_NESTED_MIN = 2048
# the extrapolation of _sweep: every _WINDOW sweeps, from the last _KEPT
# iterates, for systems whose c**_WINDOW is at least 1/4 (c >= 0.933)
_WINDOW = 20
_KEPT = 6
# hull_contains works in blocks of at most this many float64 entries (1 MiB):
# its three passes over a block stay in a 2 MiB L2 cache
_CONTAINS_ENTRIES = 2**17


def _check_tol(tol: float) -> float:
    """Return ``tol`` if it is a positive finite number, else raise."""
    try:
        valid = math.isfinite(tol) and tol > 0.0
    except TypeError:  # a string or another non-number
        valid = False
    if not valid:
        raise ValidationError("tol must be a positive finite number")
    return tol


def _check_grid(n: int) -> int:
    """Return ``n`` as an int if it is an even integer from 64 to
    ``_MAX_GRID`` = 2**20 (an integral float counts), else raise before
    anything is allocated."""
    n = _check_int(n, "direction grid size", 64)
    if n > _MAX_GRID:
        raise ValidationError(f"direction grid size must be at most {_MAX_GRID}, got {n}")
    if n % 2:
        raise ValidationError("direction grid size must be even")
    return n


class DirectionGrid:
    """Uniform angle grid on the circle; even size keeps antipodes on-grid."""

    __slots__ = ("n", "angles", "directions")

    def __init__(self, n: int):
        self.n = n = _check_grid(n)
        self.angles = _readonly(TWO_PI * np.arange(n) / n)
        self.directions = _readonly(
            np.stack([np.cos(self.angles), np.sin(self.angles)], axis=1)
        )

    @property
    def step(self) -> float:
        return TWO_PI / self.n

    def __repr__(self) -> str:
        return f"DirectionGrid(n={self.n})"


@lru_cache(maxsize=8)
def _shared_grid(n: int) -> DirectionGrid:
    """One read-only grid per size, shared by every solve of that size (a
    nested start reads up to three sizes per solve)."""
    return DirectionGrid(n)


@dataclass(frozen=True)
class WidthSamples:
    """Width function sampled on a direction grid, with its error budget.

    Three properties compose the budget, and every certified claim reads
    them: ``bound`` bounds ``|values - h|`` at the grid angles
    (:func:`hull_contains`, :func:`circumradius`, the polygon's shortfall
    term in ``outer_slack``); ``slack = bound + interp_slack`` bounds it at
    any angle (:func:`eval_width`, the query thresholds, the extraction's
    merge tolerance); ``radius``, the largest value plus ``bound``, scales
    ``interp_slack`` and the kink and merge thresholds; the hull's reach R,
    up to ``R step**2 / 8`` beyond it, is bounded by :func:`circumradius`.
    ``iter_error`` (the solver's distance to the discrete fixed point) and
    ``interp_slack`` (the Lipschitz bound ``radius * pi / n`` between grid
    angles) are the ledger the three are composed from.
    """

    grid: DirectionGrid
    base: np.ndarray  # (2,)
    values: np.ndarray  # (n,)
    iter_error: float
    interp_slack: float
    iterations: int = 0

    @property
    def bound(self) -> float:
        return self.iter_error

    @property
    def slack(self) -> float:
        return self.bound + self.interp_slack

    @property
    def radius(self) -> float:
        return max(float(self.values.max()), 0.0) + self.bound


def _grid_cell(n: int, angles):
    """Cell of each angle on an n-point grid: left node ``g0`` in [0, n) and
    the fraction ``frac`` of the way to node ``(g0 + 1) % n``.

    The grid position ``x = angle * n / 2 pi`` is taken mod n.  When every
    ``|x| < n`` (``arctan2``'s angles, in [-pi, pi], give about n / 2 at
    most), ``fmod`` is exact, so ``np.mod(x, n)`` is ``x + n`` for ``x < 0``
    and ``x`` otherwise (``0.0`` for ``-0.0``, which gives the same cell and
    fraction): one masked add gives the same bits.  Either way ``x + n``
    rounds to ``n`` for ``x`` just below 0, the cell of node 0.  A finite
    angle whose ``x`` overflows (``|angle|`` above about 2.8e305 at n =
    4096) is reduced mod 2 pi before it is scaled.
    """
    pos = np.multiply(angles, n / TWO_PI)
    if np.ndim(pos) and pos.size and -n < pos.min() and pos.max() < n:
        np.add(pos, n, out=pos, where=pos < 0.0)
    else:
        pos = np.mod(np.where(np.isinf(pos), np.mod(angles, TWO_PI) * (n / TWO_PI), pos), n)
    floor = np.floor(pos)
    g0 = floor.astype(np.intp)
    return np.where(g0 == n, 0, g0), pos - floor


def _interp_periodic(values: np.ndarray, angles):
    """Linear interpolation of grid samples, periodic in the angle."""
    n = values.shape[0]
    g0, frac = _grid_cell(n, angles)
    g1 = (g0 + 1) % n
    return (1.0 - frac) * values[g0] + frac * values[g1]


class _OperatorPlan:
    """The value-independent part of the self-similarity operator on a grid.

    The plan holds one entry per distinct linear part ``A`` (maps whose
    matrices are equal bit for bit form one group).  For each grid
    direction d an entry holds the image cell of ``dir(A^T d)``, the folded
    weights ``a0 = (1 - frac) |A^T d|`` and ``a1 = frac |A^T d|`` and the
    shift ``max_i t_i^T d`` over the group's maps, so one application is
    two reads, ``a0 buf + a1 nxt + shift`` and a running max per group,
    with no trigonometry.  Grouping keeps the bits of the per-map terms:
    rounding is monotone, so ``max_i fl(x + s_i) = fl(x + max_i s_i)``.
    An entry holds 32 bytes per angle (24 when its cells are a slice):
    the complex-base systems, whose digits share one ``A``, hold one.

    The cells are an index into the values extended periodically (the
    ``buf`` of :meth:`apply`).  For a similarity (a rotation or reflection
    times a ratio) the cell of direction ``k`` is ``(o + k) % n`` or
    ``(o - k) % n``, unless the rotation falls within rounding of a cell
    boundary; such an entry stores the cells as a slice of ``buf``, so its
    two reads are strided views.  Any other entry stores them as an integer
    array and pays two gathers.  Both read the same elements, so the bits
    agree.
    """

    __slots__ = ("_groups",)

    def __init__(self, ifs: IFS, grid: DirectionGrid):
        dirs = grid.directions
        groups: dict[bytes, tuple] = {}
        for m in ifs.maps:
            shift = dirs @ m.t
            key = m.a.tobytes()
            if key in groups:
                np.maximum(groups[key][3], shift, out=groups[key][3])
                continue
            v = dirs @ m.a  # row g holds (A^T d_g)^T
            g0, frac = _grid_cell(grid.n, np.arctan2(v[:, 1], v[:, 0]))
            # norms == 0 makes the h-term vanish, leaving t^T d: the correct limit
            norms = np.hypot(v[:, 0], v[:, 1])
            groups[key] = (_progression(g0), (1.0 - frac) * norms,
                           np.multiply(frac, norms, out=frac), shift)
        self._groups = list(groups.values())

    def circulant_fixed_point(self) -> np.ndarray:
        """Fixed point of ``v = S v + b`` for a plan of one entry: ``b`` its
        shift and ``S`` the circulant whose every row is its first row,
        weights ``a0, a1`` on cells ``k, k + 1``, ``k`` the image cell of
        ``d_0``.

        ``S`` has the eigenvalues ``(a0 + a1 e^{2 pi i j/n}) e^{2 pi i j k/n}``
        on the Fourier modes, all of modulus at most ``|A^T d_0| < 1``, so
        the fixed point is one real FFT, a division by ``1 - lambda`` and
        the inverse.
        """
        cells, a0, a1, b = self._groups[0]
        n = a0.shape[0]
        k = (cells.start if isinstance(cells, slice) else int(cells[0])) % n
        modes = np.arange(n // 2 + 1)
        phase = 2j * math.pi / n
        # reduce j * k mod n in integers so the phase stays exact for large n
        lam = (a0[0] + a1[0] * np.exp(phase * modes)) * np.exp(phase * (modes * k % n))
        return np.fft.irfft(np.fft.rfft(b) / (1.0 - lam), n)

    def apply(self, values: np.ndarray) -> np.ndarray:
        # buf[j] is values[j % n] for j <= 2n, and nxt[j] is buf[j + 1]
        buf = np.concatenate((values, values, values[:1]))
        nxt = buf[1:]
        best = None
        for cells, a0, a1, shift in self._groups:
            term = a0 * buf[cells]
            term += a1 * nxt[cells]
            term += shift
            if best is None:
                best = term
            else:
                np.maximum(best, term, out=best)
        return best


def _progression(g0: np.ndarray):
    """The image cells ``g0`` (in [0, n)) as an index into the doubled
    buffer of :meth:`_OperatorPlan.apply`: a slice when
    ``g0[k] = (o + k) % n`` or ``(o - k) % n`` for every k, else ``g0``.

    A few probed cells reject other maps in O(1); a probe that passes is
    confirmed on every cell: each step ``g0[k + 1] - g0[k]`` must be
    ``step`` mod n, that is ``step`` or, where the cells wrap, ``step -
    step * n``.
    """
    n = g0.shape[0]
    o = int(g0[0])
    step = (int(g0[1]) - o) % n
    if step == n - 1:
        step = -1
    elif step != 1:
        return g0
    if any(int(g0[k]) != (o + step * k) % n for k in (n // 4, n // 3, n - 1)):
        return g0
    d = g0[1:] - g0[:-1]
    if not ((d == step) | (d == step * (1 - n))).all():
        return g0
    # reflections read buf[n + o - k] for k = 0 .. n - 1
    return slice(o, o + n) if step == 1 else slice(n + o, o, -1)


def _shares_similarity(ifs: IFS) -> bool:
    """True iff every map has the same linear part ``[[p, -q], [q, p]]`` with
    ``det = p^2 + q^2 > 0``: one orientation-preserving similarity, equal
    bit for bit, so the operator plan holds one entry."""
    a = ifs.maps[0].a
    key = a.tobytes()
    return bool(a[0, 0] == a[1, 1] and a[0, 1] == -a[1, 0]
                and a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0] > 0.0
                and all(m.a.tobytes() == key for m in ifs.maps[1:]))


def selfsim_operator(ifs: IFS, w: WidthSamples) -> WidthSamples:
    """One application of the self-similarity operator to width samples around 0.

    Value at grid direction d:  ``max_i [ |A_i^T d| h(dir(A_i^T d)) + t_i^T d ]``
    with h read off by periodic linear interpolation; a vanishing image
    ``A_i^T d = 0`` degenerates the i-th term to ``t_i^T d``.  Error fields
    are carried through unchanged.  A base other than exactly 0 is refused.
    """
    if ifs.dim != 2:
        raise ValidationError("the width solver is two-dimensional only")
    if w.base.any():
        raise ValidationError("the operator is defined for widths around the origin")
    out = _OperatorPlan(ifs, w.grid).apply(w.values)
    return replace(w, values=_readonly(out))


def _stops(new: np.ndarray, delta: float, top: float, c: float, tol: float,
           finer: int) -> bool:
    """The stopping test of :func:`_sweep` for a sweep to ``new`` by a step
    of ``delta``, with ``top`` an upper bound on ``max|new|`` that screens
    the passes over ``new``."""
    if delta * c <= tol * (1.0 - c) or (
            delta <= _ROUNDING_FLOOR * top
            and delta <= _ROUNDING_FLOOR * float(np.max(np.abs(new)))):
        return True
    # top bounds max(new, 0) too, so it screens the pass over new
    err = delta * c / (1.0 - c)
    return bool(finer) and (
        err <= (top + err) * math.pi / finer
        and err <= (max(float(new.max()), 0.0) + err) * math.pi / finer)


def _affine_weights(gram: list) -> list | None:
    """The weights ``gamma`` that minimise ``|sum_j gamma_j d_j|`` subject to
    ``sum_j gamma_j = 1``, from the Gram matrix of the ``d_j`` (a list of
    rows, which the elimination overwrites): ``G^-1 1`` normalised to sum
    1, or ``None`` if it is not defined.

    Symmetric Gaussian elimination on Python floats.  When a few slow
    modes make the steps dependent up to rounding, ``G`` is singular up to
    rounding too; a relative ridge of 1e-12 on the diagonal, above the
    rounding of its dot products, keeps the pivots positive.
    """
    k = len(gram)
    y = [1.0] * k
    for i in range(k):
        gram[i][i] *= 1.0 + 1e-12
    for i in range(k):
        top = gram[i]
        if not top[i] > 0.0:
            return None
        for r in range(i + 1, k):
            row = gram[r]
            f = row[i] / top[i]
            for j in range(i + 1, k):
                row[j] -= f * top[j]
            y[r] -= f * y[i]
    for i in reversed(range(k)):
        y[i] = (y[i] - sum(gram[i][j] * y[j] for j in range(i + 1, k))) / gram[i][i]
    total = sum(y)
    if not (math.isfinite(total) and total):
        return None
    return [v / total for v in y]


def _extrapolate(kept: list):
    """Reduced-rank extrapolation of consecutive sweeps ``kept = [x_0 ..
    x_k]``; return the point ``s = sum_j gamma_j x_{j+1}``, whose weights
    minimise ``|sum_j gamma_j (x_{j+1} - x_j)|`` subject to ``sum_j
    gamma_j = 1``, and the last step ``max|x_k - x_{k-1}|``.  ``s`` is
    ``None`` when the weights are not defined.

    The steps overwrite ``x_0 .. x_{k-1}`` in place, so the extrapolation
    allocates only ``s``; ``x_k`` is left as it is.
    """
    steps = kept[:-1]
    for j, x in enumerate(steps):
        np.subtract(kept[j + 1], x, out=x)
    last = max(float(steps[-1].max()), -float(steps[-1].min()))
    gram = [[0.0] * len(steps) for _ in steps]
    for i, a in enumerate(steps):
        for j in range(i, len(steps)):
            gram[i][j] = gram[j][i] = float(np.dot(a, steps[j]))
    gamma = _affine_weights(gram)
    if gamma is None:
        return None, last
    # s = x_k - sum_i (sum_{j<i} gamma_j) d_i: the weights multiply steps,
    # not values, so s carries no rounding of the values' size
    s = kept[-1].copy()
    for g, step in zip(itertools.accumulate(gamma), steps[1:]):
        s -= g * step
    return s, last


def _sweep(plan: _OperatorPlan, values: np.ndarray, c: float, tol: float,
           finer: int = 0):
    """Sweep ``values`` toward the plan's fixed point; return the last
    values, the last step ``delta`` and the number of sweeps, check sweeps
    included.

    The sweeps stop once ``delta * c / (1 - c) <= tol``, or once the step is
    within rounding of one sweep, ``delta <= 4 eps max|h|``.  With ``finer``
    they also stop once ``delta * c / (1 - c)`` is within the interpolation
    slack ``R * pi / finer`` of a grid of ``finer`` angles, with ``R =
    max(values, 0) + delta * c / (1 - c)``: the values are then as close to
    the fixed point as that grid can read them, so sweeping on is waste.

    A screen spares most sweeps the full test.  A full test keeps ``probe``,
    the index of the step's largest entry, and each later sweep first reads
    that entry alone, ``x = |new[probe] - values[probe]|``, a lower bound on
    its step.  A skipped sweep adds to ``top`` twice ``c**j * delta``, the
    contraction's bound on the step ``j`` sweeps after the last full test
    (the factor 2 covers rounding), so ``top`` still bounds ``max|values|``.
    When ``x`` meets no stop condition, with ``top`` in place of the
    maxima, the step meets none either, and the sweep goes on untested.
    Any other sweep, the first among them, runs the full test, so the
    stops, ``delta`` and the sweep count are those of testing every sweep.
    The screen reads the same ``c`` as the stop rule and must follow it if
    the rule's rate changes.

    When ``c**_WINDOW >= 1/4``, every ``_WINDOW`` sweeps the last
    ``_KEPT`` iterates give a reduced-rank extrapolation ``s`` (see
    :func:`_extrapolate`), and one check sweep takes ``s`` to ``T(s)``.
    The sweeps go on from ``T(s)`` only if its step ``|T(s) - s|`` is no
    larger than the last plain step, and then the check sweep runs the
    full test with ``probe`` and ``top`` taken afresh from it; otherwise
    they go on from the last plain sweep.  Check sweeps count in the
    number of sweeps.  Either way the values returned are a sweep of
    their predecessor and ``delta`` is that sweep's step, so the stop rule
    certifies them as it does without the extrapolation.
    """
    delta = math.inf
    iterations = 0
    # top bounds max|values| (each sweep moves it by at most delta), so the
    # rounding floor costs a pass over the values only once delta is near it
    top = float(np.max(np.abs(values)))
    probe = -1
    # a window that plain sweeps already shrink the error 4-fold is left alone
    window = _WINDOW if c ** _WINDOW >= 0.25 else 0
    since, kept = 0, []
    while iterations < _ITERATION_CAP:
        if len(kept) == _KEPT:  # the window's last sweep did not stop
            s, last = _extrapolate(kept)
            since, kept = 0, []
            if s is not None:
                new = plan.apply(s)
                iterations += 1
                diff = new - s
                np.abs(diff, out=diff)
                j = int(diff.argmax())
                if diff.item(j) <= last:  # a nan step is refused too
                    values, delta = new, diff.item(j)
                    # the screen restarts from this full test: top bounded
                    # the plain sweeps, not T(s)
                    bound, probe, top = delta, j, float(np.max(np.abs(new)))
                    if _stops(new, delta, top, c, tol, finer):
                        break
                continue
        new = plan.apply(values)
        iterations += 1
        if window:
            since += 1
            if since > window - _KEPT:
                kept.append(new)
        if probe >= 0:
            x = abs(new.item(probe) - values.item(probe))
            bound *= c
            reach = top + 2.0 * bound
            err = x * c / (1.0 - c)
            if (x * c > tol * (1.0 - c) and x > _ROUNDING_FLOOR * reach
                    and not (finer and err <= (reach + err) * math.pi / finer)):
                values, top = new, reach
                continue
        diff = new - values
        np.abs(diff, out=diff)
        probe = int(diff.argmax())
        delta = bound = float(diff[probe])
        values = new
        top += delta
        if _stops(new, delta, top, c, tol, finer):
            break
    else:
        raise ConvergenceError(
            f"width iteration did not converge within {_ITERATION_CAP} steps"
        )
    return values, delta, iterations


def _solve(ifs: IFS, n: int, tol: float, finer: int = 0):
    """Solve on ``n`` angles from the start the module docstring states;
    return what :func:`_sweep` returns (``finer`` is passed on to it)."""
    grid = _shared_grid(n)
    if _shares_similarity(ifs):
        plan = _OperatorPlan(ifs, grid)
        return _sweep(plan, plan.circulant_fixed_point(), ifs.c, tol, finer)
    if n < _NESTED_MIN:
        r0 = max(float(np.linalg.norm(m.t)) for m in ifs.maps) / (1.0 - ifs.c)
        start = np.full(n, r0)
    else:
        start = _interp_periodic(_solve(ifs, n // 16 * 2, tol, n)[0], grid.angles)
    return _sweep(_OperatorPlan(ifs, grid), start, ifs.c, tol, finer)


def solve_width(ifs: IFS, n_grid: int = 4096, tol: float = 1e-6) -> WidthSamples:
    """Solve the width fixed-point equation around the origin.

    Parameters
    ----------
    ifs : IFS
        Two-dimensional system to solve.
    n_grid : int
        Number of grid angles: an even integer from 64 to 2**20 (an
        integral float counts; any other float, a string or a bool is
        refused).
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
        ``interp_slack = radius * pi / n_grid``;
        ``iterations`` counts the sweeps on the ``n_grid`` angles only,
        the extrapolation's check sweeps among them, not those of a
        coarse start.

    The start vector follows the rule in the module docstring; the sweeps
    on ``n_grid`` angles and their stopping rule alone certify the result.
    """
    if ifs.dim != 2:
        raise ValidationError("the width solver is two-dimensional only")
    _check_tol(tol)
    n = _check_grid(n_grid)
    values, delta, iterations = _solve(ifs, n, tol)
    c = ifs.c
    w = WidthSamples(_shared_grid(n), _readonly(np.zeros(2)), _readonly(values),
                     delta * c / (1.0 - c), 0.0, iterations)
    return replace(w, interp_slack=w.radius * math.pi / n)


def rebase_width(w: WidthSamples, new_base) -> WidthSamples:
    """Translate the base point: h_new(d) = h_old(d) + (old - new)^T d.

    ``new_base`` must be a finite 2-vector; it is copied, so the caller's
    array stays writeable.
    """
    new_base = _check_finite(new_base, "base point", (2,))
    shift = w.grid.directions @ (w.base - new_base)
    return replace(w, base=_readonly(new_base.copy()),
                   values=_readonly(w.values + shift))


def eval_width(w: WidthSamples, angle):
    """Width at an arbitrary angle by periodic linear interpolation.

    Point uncertainty is ``w.slack``.  Accepts a finite scalar angle
    (returns a float) or an array of finite angles.
    """
    angle = _check_finite(angle, "angle")
    with np.errstate(over="ignore"):  # see _grid_cell for overflowing positions
        out = _interp_periodic(w.values, angle)
    if angle.ndim == 0:
        return float(out)
    return out


def circumradius(w: WidthSamples) -> float:
    """Certified upper bound on sup_d h(d), the largest distance from the
    base to a point of the hull.

    The bound ``max h + bound + interp_slack`` holds for any base,
    inside the hull or not, so no base is rejected.
    """
    return float(w.values.max()) + w.bound + w.interp_slack


def hull_contains(w: WidthSamples, x, slack: float = 0.0):
    """Full-direction membership test against the sampled hull.

    True iff ``(x - base)^T e <= h(e) + w.bound + slack`` for every grid
    direction e.  Accepts one finite point of shape (2,) or a batch of
    shape (k, 2); the batch form returns a boolean array.  ``slack`` is a
    finite number >= 0.
    """
    x = _check_finite(x, "x")
    if x.shape != (2,):
        x = _check_finite(x, "x", (None, 2))
    slack = float(_check_finite(slack, "slack", ()))
    if slack < 0.0:
        raise ValidationError(f"slack must be nonnegative, got {slack!r}")
    budget = w.values + (w.bound + slack)
    cos, sin = w.grid.directions.T

    def inside(points, buf):
        # x0 cos + x1 sin term by term: BLAS rounds a lone point unlike a batch
        proj, term = buf.reshape(2, len(points), w.grid.n)
        np.multiply(points[:, :1] - w.base[0], cos, out=proj)
        proj += np.multiply(points[:, 1:] - w.base[1], sin, out=term)
        return np.all(proj <= budget, axis=1)

    out = _row_blocks(x.reshape(-1, 2), 2 * w.grid.n, inside, _CONTAINS_ENTRIES)
    return bool(out[0]) if x.ndim == 1 else out


def width_csv(w: WidthSamples) -> str:
    """CSV export: header ``angle,h``, one row per grid angle (radians, 12
    significant digits), '\\n' line endings."""
    rows = np.column_stack((w.grid.angles, w.values)).ravel().tolist()
    return "\n".join(["angle,h"] + ["%.12g,%.17g"] * w.grid.n) % tuple(rows) + "\n"
