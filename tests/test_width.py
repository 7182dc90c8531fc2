import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fractalhull as fh
from conftest import disk_width, distance_to_polygon, width_samples

TWO_PI = 2.0 * math.pi


def random_samples(grid, rng, lo=-1.0, hi=2.0):
    return width_samples(grid, (0.0, 0.0),
                         rng.uniform(lo, hi, size=grid.n), 0.0, 0.0)


class TestDirectionGrid:
    def test_rejects_odd(self):
        with pytest.raises(fh.ValidationError):
            fh.DirectionGrid(65)

    def test_rejects_small(self):
        with pytest.raises(fh.ValidationError):
            fh.DirectionGrid(32)

    def test_antipodes_on_grid(self):
        grid = fh.DirectionGrid(128)
        assert np.allclose(grid.directions[64], -grid.directions[0])


class TestSelfsimOperator:
    def test_zero_matrices_fix_translation_support(self):
        # with all A_i = 0 the operator output is max_i t_i^T d, fixed thereafter
        ifs = fh.validate_ifs([
            (np.zeros((2, 2)), (0.0, 0.0)),
            (np.zeros((2, 2)), (1.0, 0.0)),
        ])
        grid = fh.DirectionGrid(256)
        w = width_samples(grid, (0, 0), np.full(grid.n, 7.0), 0, 0)
        out = fh.selfsim_operator(ifs, w)
        expected = np.maximum(0.0, np.cos(grid.angles))
        assert np.allclose(out.values, expected, atol=1e-15)
        again = fh.selfsim_operator(ifs, out)
        assert np.array_equal(again.values, out.values)

    def test_scaling_of_constant(self):
        ifs = fh.validate_ifs([(0.5 * np.eye(2), (0.0, 0.0))])
        grid = fh.DirectionGrid(128)
        w = width_samples(grid, (0, 0), np.ones(grid.n), 0, 0)
        out = fh.selfsim_operator(ifs, w)
        assert np.allclose(out.values, 0.5, atol=1e-15)

    def test_twindragon_one_step_from_zero(self, twindragon_ifs):
        grid = fh.DirectionGrid(256)
        w = width_samples(grid, (0, 0), np.zeros(grid.n), 0, 0)
        out = fh.selfsim_operator(twindragon_ifs, w)
        t1 = twindragon_ifs.maps[1].t
        expected = np.maximum(0.0, grid.directions @ t1)
        assert np.allclose(out.values, expected, atol=1e-15)

    def test_requires_origin_base(self, twindragon_ifs):
        grid = fh.DirectionGrid(128)
        w = width_samples(grid, (1.0, 0.0), np.ones(grid.n), 0, 0)
        with pytest.raises(fh.ValidationError):
            fh.selfsim_operator(twindragon_ifs, w)

    def test_requires_origin_base_at_every_scale(self, twindragon_ifs):
        # the twindragon scaled by 2**-60 and rebased to (2**-61, 0), where
        # the unscaled system's base would be (0.5, 0): refused as that is
        s = 2.0**-60
        ifs = fh.validate_ifs([(m.a, s * m.t) for m in twindragon_ifs.maps])
        w = fh.rebase_width(fh.solve_width(ifs, 256, s * 1e-6), (s / 2.0, 0.0))
        with pytest.raises(fh.ValidationError, match="around the origin"):
            fh.selfsim_operator(ifs, w)

    def test_rejects_other_dimensions(self):
        ifs = fh.validate_ifs([(0.5 * np.eye(3), np.zeros(3))])
        grid = fh.DirectionGrid(128)
        w = width_samples(grid, (0, 0), np.ones(grid.n), 0, 0)
        with pytest.raises(fh.ValidationError):
            fh.selfsim_operator(ifs, w)

    def test_contraction_bound(self):
        rng = np.random.default_rng(17)
        grid = fh.DirectionGrid(512)
        for _ in range(25):
            n_maps = int(rng.integers(1, 5))
            maps = []
            for _ in range(n_maps):
                a = rng.normal(size=(2, 2))
                a *= rng.uniform(0.05, 0.9) / fh.operator_norm(a)
                maps.append((a, rng.uniform(-1, 1, size=2)))
            ifs = fh.validate_ifs(maps)
            f = random_samples(grid, rng)
            g = random_samples(grid, rng)
            lhs = np.max(np.abs(fh.selfsim_operator(ifs, f).values
                                - fh.selfsim_operator(ifs, g).values))
            diff = f.values - g.values
            slack = 0.5 * np.max(np.abs(np.roll(diff, -1) - diff))
            assert lhs <= ifs.c * np.max(np.abs(diff)) + 2 * ifs.c * slack + 1e-12

    def test_monotonicity(self, twindragon_ifs):
        rng = np.random.default_rng(23)
        grid = fh.DirectionGrid(256)
        f = random_samples(grid, rng)
        g = width_samples(grid, (0, 0),
                          f.values + rng.uniform(0, 1, size=grid.n), 0, 0)
        lo = fh.selfsim_operator(twindragon_ifs, f).values
        hi = fh.selfsim_operator(twindragon_ifs, g).values
        assert np.all(lo <= hi + 1e-12)


def reference_cell(n, angles):
    """Grid cell and fraction of each angle by a float ``np.mod``, as an oracle."""
    pos = np.mod(np.multiply(angles, n / TWO_PI), n)
    floor = np.floor(pos)
    return floor.astype(np.intp) % n, pos - floor


def reference_operator(ifs, grid, values):
    """The per-map operator formula, trigonometry on every call, as an
    oracle: ``a0 h(g0) + a1 h(g1) + t^T d`` with the factor ``|A^T d|``
    folded into the weights ``a0 = (1 - frac) |A^T d|``, ``a1 = frac |A^T d|``."""
    n = grid.n
    dirs = grid.directions
    best = None
    for m in ifs.maps:
        v = dirs @ m.a
        norms = np.hypot(v[:, 0], v[:, 1])
        g0, frac = reference_cell(n, np.arctan2(v[:, 1], v[:, 0]))
        g1 = (g0 + 1) % n
        term = ((1.0 - frac) * norms) * values[g0] + (frac * norms) * values[g1] + dirs @ m.t
        best = term if best is None else np.maximum(best, term)
    return best


def rotation_scaling(ratio, angle):
    return ratio * np.array([[math.cos(angle), -math.sin(angle)],
                             [math.sin(angle), math.cos(angle)]])


translations = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@st.composite
def operator_maps(draw):
    """1-4 planar maps: general, rank one (``|A^T d|`` vanishes on a line),
    the zero matrix (it vanishes everywhere), or similarities, whose image
    cells are a progression the plan reads as a slice: a rotation, a
    reflection, ``c I``, or a rotation by a multiple of pi/4, on the grid
    whenever 8 divides n (the plan may then fall back to gathers)."""
    maps = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["general", "rank-one", "zero", "rotation",
                                     "reflection", "grid-aligned", "scalar"]))
        c = draw(st.floats(0.05, 0.95))
        if kind == "zero":
            a = np.zeros((2, 2))
        elif kind == "scalar":
            a = c * np.eye(2)
        elif kind in ("rotation", "grid-aligned"):
            th = (draw(st.floats(0.0, TWO_PI)) if kind == "rotation"
                  else TWO_PI * draw(st.integers(0, 7)) / 8)
            a = rotation_scaling(c, th)
        elif kind == "reflection":
            th = draw(st.floats(0.0, TWO_PI))
            a = c * np.array([[math.cos(th), math.sin(th)], [math.sin(th), -math.cos(th)]])
        elif kind == "rank-one":
            th, ph = draw(st.floats(0.0, TWO_PI)), draw(st.floats(0.0, TWO_PI))
            a = c * np.outer([math.cos(th), math.sin(th)], [math.cos(ph), math.sin(ph)])
        else:
            a = np.array([[draw(st.floats(-1.0, 1.0)) for _ in range(2)]
                          for _ in range(2)])
            norm = fh.operator_norm(a)
            a = c * a / norm if norm > 0.0 else a
        maps.append((a, (draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))))
    return fh.validate_ifs(maps)


@st.composite
def grouped_maps(draw):
    """Systems whose maps repeat linear parts: a self-affine carpet (2-8
    maps sharing one anisotropic A), a complex base with 2-64 digits (one
    rotation-scaling), or 2-8 maps whose linear parts are drawn, with
    repeats and in any order, from those of operator_maps()."""
    kind = draw(st.sampled_from(["carpet", "complex-base", "mixed"]))
    if kind == "complex-base":
        z = cmath.rect(draw(st.floats(1.05, 4.0)), draw(st.floats(0.0, TWO_PI)))
        return fh.complex_base_ifs(z, draw(st.integers(2, 64)))
    ts = draw(st.lists(translations, min_size=2, max_size=8))
    if kind == "carpet":
        a = np.diag([draw(st.floats(0.1, 0.9)), draw(st.floats(0.1, 0.9))])
        return fh.validate_ifs([(a, t) for t in ts])
    parts = [m.a for m in draw(operator_maps()).maps]
    picks = st.integers(0, len(parts) - 1)
    return fh.validate_ifs([(parts[draw(picks)], t) for t in ts])


class TestOperatorPlanProperties:
    @settings(max_examples=80, deadline=None)
    @given(ifs=operator_maps(), half=st.integers(32, 2048),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_map_formula_bitwise(self, ifs, half, seed):
        grid = fh.DirectionGrid(2 * half)
        values = np.random.default_rng(seed).uniform(-1.0, 2.0, grid.n)
        w = width_samples(grid, (0.0, 0.0), values, 0.0, 0.0)
        got = fh.selfsim_operator(ifs, w).values
        assert np.array_equal(got, reference_operator(ifs, grid, values))

    @settings(max_examples=60, deadline=None)
    @given(ifs=grouped_maps(), half=st.integers(32, 2048),
           seed=st.integers(0, 2**32 - 1))
    def test_one_entry_per_linear_part_matches_per_map_formula(self, ifs, half, seed):
        grid = fh.DirectionGrid(2 * half)
        values = np.random.default_rng(seed).uniform(-1.0, 2.0, grid.n)
        plan = fh.width._OperatorPlan(ifs, grid)
        assert len(plan._groups) == len({m.a.tobytes() for m in ifs.maps})
        assert np.array_equal(plan.apply(values), reference_operator(ifs, grid, values))

    def test_complex_base_plan_holds_one_entry(self):
        # 4096 digits share one linear part: the plan is one entry of at
        # most 32 bytes per angle (512 KiB here), where one entry per map
        # would take 4096 times as much
        ifs = fh.complex_base_ifs(cmath.rect(1.5, 1.0), 4096)
        grid = fh.DirectionGrid(2**14)
        tracemalloc.start()
        try:
            plan = fh.width._OperatorPlan(ifs, grid)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(plan._groups) == 1
        assert size <= 32 * grid.n + 2**12
        assert peak < 2**21  # the build's temporaries included

    @pytest.mark.parametrize("seed", range(8))
    def test_similarity_maps_read_as_slices(self, seed):
        # 2-4 random similarities with c near 0.96, the first a reflection:
        # every map's image cells are a progression, so no map pays gathers
        rng = np.random.default_rng(seed)
        maps = []
        for i in range(2 + seed % 3):
            flip = np.diag([1.0, -1.0]) if i == 0 or rng.uniform() < 0.5 else np.eye(2)
            a = rotation_scaling(rng.uniform(0.95, 0.97), rng.uniform(0.0, TWO_PI)) @ flip
            maps.append((a, rng.uniform(-1.0, 1.0, 2)))
        plan = fh.width._OperatorPlan(fh.validate_ifs(maps), fh.DirectionGrid(4096))
        assert all(isinstance(cells, slice) for cells, *_ in plan._groups)

    @pytest.mark.parametrize("n", [64, 4096, 16384])
    def test_cells_match_mod_formula_bitwise(self, n):
        # arctan2's outputs with its extremes +-pi, both zeros and a negative
        # angle so small that its position + n rounds to n (node 0); then
        # angles beyond one turn, and one scalar of each kind
        tiny = -1e-300
        assert np.mod(np.multiply(tiny, n / TWO_PI), n) == n
        rng = np.random.default_rng(n)
        v = rng.normal(size=(n, 2))
        batches = [
            np.concatenate((np.arctan2(v[:, 1], v[:, 0]),
                            [math.pi, -math.pi, 0.0, -0.0, tiny])),
            np.concatenate((rng.uniform(-50.0, 50.0, n), [TWO_PI, -TWO_PI, 3 * math.pi])),
            tiny, -0.0, 7.5, -7.5,
        ]
        for angles in batches:
            got = fh.width._grid_cell(n, angles)
            for a, b in zip(got, reference_cell(n, angles)):
                a, b = np.asarray(a), np.asarray(b)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n", [64, 4096, 16384])
    def test_plan_cells_and_weights_match_mod_formula(self, n):
        # one anisotropic map (gathers) and one rotation-scaling (a slice)
        grid = fh.DirectionGrid(n)
        ifs = fh.validate_ifs([(np.array([[0.5, 0.2], [-0.1, 0.3]]), (1.0, 0.0)),
                               (rotation_scaling(0.5, 1.0), (0.0, 1.0))])
        plan = fh.width._OperatorPlan(ifs, grid)
        assert len(plan._groups) == 2
        for m, (cells, a0, a1, shift) in zip(ifs.maps, plan._groups):
            v = grid.directions @ m.a
            norms = np.hypot(v[:, 0], v[:, 1])
            g0, frac = reference_cell(n, np.arctan2(v[:, 1], v[:, 0]))
            assert np.array_equal(np.arange(2 * n + 1)[cells] % n, g0)
            assert a0.tobytes() == ((1.0 - frac) * norms).tobytes()
            assert a1.tobytes() == (frac * norms).tobytes()
            assert shift.tobytes() == (grid.directions @ m.t).tobytes()


def value_iteration(ifs, n, tol):
    """The sweep loop started from the constant ball bound R0, as the solver
    ran every system before the circulant start: values, iter_error,
    interp_slack, iterations."""
    plan = fh.width._OperatorPlan(ifs, fh.DirectionGrid(n))
    c = ifs.c
    r0 = max(float(np.linalg.norm(m.t)) for m in ifs.maps) / (1.0 - c)
    values = np.full(n, r0)
    iterations = 0
    while True:
        new = plan.apply(values)
        delta = float(np.max(np.abs(new - values)))
        values = new
        iterations += 1
        if delta * c <= tol * (1.0 - c):
            break
    iter_error = delta * c / (1.0 - c)
    r_bound = max(float(values.max()), 0.0) + iter_error
    return values, iter_error, r_bound * math.pi / n, iterations



@st.composite
def single_similarity_systems(draw):
    """1-4 maps x -> x/z + t, |z| in [1.005, 4]: the linear part of a
    complex-base system, with arbitrary translations."""
    r, phi = draw(st.floats(1.005, 4.0)), draw(st.floats(0.0, TWO_PI))
    w = 1.0 / complex(r * math.cos(phi), r * math.sin(phi))
    a = [[w.real, -w.imag], [w.imag, w.real]]
    return fh.validate_ifs([(a, t) for t in draw(st.lists(translations, min_size=1,
                                                           max_size=4))])


@st.composite
def other_systems(draw):
    """Systems that do not share one orientation-preserving similarity: an
    equal non-conformal or reflecting linear part, A = 0 everywhere, or
    distinct rotation-scalings."""
    kind = draw(st.sampled_from(["non-conformal", "reflection", "zero", "distinct"]))
    ts = draw(st.lists(translations, min_size=1 if kind != "distinct" else 2,
                       max_size=4))
    c = draw(st.floats(0.05, 0.9))
    if kind == "distinct":
        angles = [draw(st.floats(0.0, TWO_PI)) for _ in ts]
        # ratios differ map to map, so no two linear parts are equal
        return fh.validate_ifs([(rotation_scaling(c * (1.0 - 0.1 * i), ang), t)
                                for i, (ang, t) in enumerate(zip(angles, ts))])
    if kind == "zero":
        a = np.zeros((2, 2))
    elif kind == "reflection":
        th = draw(st.floats(0.0, TWO_PI))
        a = c * np.array([[math.cos(th), math.sin(th)], [math.sin(th), -math.cos(th)]])
    else:
        s1, s2 = c, draw(st.floats(0.01, 0.99)) * c  # unequal singular values
        a = (rotation_scaling(1.0, draw(st.floats(0.0, TWO_PI))) @ np.diag([s1, s2])
             @ rotation_scaling(1.0, draw(st.floats(0.0, TWO_PI))))
    return fh.validate_ifs([(a, t) for t in ts])


class TestSolverStart:
    @settings(max_examples=25, deadline=None)
    @given(ifs=single_similarity_systems(), half=st.integers(32, 2048),
           tol=st.sampled_from([1e-4, 1e-6, 1e-9]))
    def test_single_similarity_matches_fine_value_iteration(self, ifs, half, tol):
        n = 2 * half
        w = fh.solve_width(ifs, n, tol)
        assert w.iter_error <= tol
        ref, ref_error, _, _ = value_iteration(ifs, n, 1e-12)
        # Rounding allowance: a computed sweep is within a few ulps of
        # |S v| + |b| <= max|h| + max|t| of the exact one, and a contraction
        # at rate c gathers such per-sweep errors to at most 1/(1 - c) times
        # one of them, once for each of the two solves.  Below the normal
        # range rounding is absolute: one subnormal spacing per grid point.
        scale = float(np.max(np.abs(ref))) + max(float(np.max(np.abs(m.t))) for m in ifs.maps)
        allowance = (8.0 * np.finfo(float).eps * scale / (1.0 - ifs.c)
                     + n * np.finfo(float).smallest_subnormal)
        assert np.max(np.abs(w.values - ref)) <= w.iter_error + ref_error + allowance

    @settings(max_examples=60, deadline=None)
    @given(ifs=other_systems(), half=st.integers(32, 512),
           tol=st.sampled_from([1e-3, 1e-6, 1e-9]))
    def test_other_systems_keep_the_constant_start_bitwise(self, ifs, half, tol):
        w = fh.solve_width(ifs, 2 * half, tol)
        values, iter_error, interp_slack, iterations = value_iteration(ifs, 2 * half, tol)
        assert np.array_equal(w.values, values)
        assert (w.iter_error, w.interp_slack, w.iterations) == (
            iter_error, interp_slack, iterations)


def nested_value_iteration(ifs, n, tol, finer=0):
    """value_iteration started as the solver starts a system without one
    shared similarity on n >= 2048 angles: from this function's values on
    n // 16 * 2 angles (started the same way), swept until delta c / (1 - c)
    is at most tol or R pi / n with R = max(values, 0) + delta c / (1 - c),
    and interpolated linearly to the n angles.  Returns what
    value_iteration returns; coarse sweeps are not counted."""
    if n < 2048 and not finer:
        return value_iteration(ifs, n, tol)
    grid = fh.DirectionGrid(n)
    c = ifs.c
    if n >= 2048:
        m = n // 16 * 2
        coarse = width_samples(fh.DirectionGrid(m), (0.0, 0.0),
                               nested_value_iteration(ifs, m, tol, n)[0], 0.0, 0.0)
        values = fh.eval_width(coarse, grid.angles)
    else:
        values = np.full(n, max(float(np.linalg.norm(m.t)) for m in ifs.maps) / (1.0 - c))
    plan = fh.width._OperatorPlan(ifs, grid)
    iterations = 0
    while True:
        new = plan.apply(values)
        delta = float(np.max(np.abs(new - values)))
        values = new
        iterations += 1
        err = delta * c / (1.0 - c)
        if delta * c <= tol * (1.0 - c) or finer and err <= (
                max(float(values.max()), 0.0) + err) * math.pi / finer:
            break
    r_bound = max(float(values.max()), 0.0) + err
    return values, err, r_bound * math.pi / n, iterations


def plain_fixed_point(ifs, n):
    """The discrete fixed point as plain sweeps from the ball bound reach
    it: swept until the step is within rounding of one sweep, ``delta <= 4
    eps max|h|``.  Returns the values and their bound ``delta c / (1 - c)``."""
    plan = fh.width._OperatorPlan(ifs, fh.DirectionGrid(n))
    c = ifs.c
    values = np.full(n, max(float(np.linalg.norm(m.t)) for m in ifs.maps) / (1.0 - c))
    for _ in range(100_000):
        new = plan.apply(values)
        delta = float(np.max(np.abs(new - values)))
        values = new
        if delta <= 4.0 * np.finfo(float).eps * float(np.max(np.abs(new))):
            return values, delta * c / (1.0 - c)
    raise AssertionError("plain sweeps did not reach the rounding floor")


def assert_certified_solve(ifs, w, tol):
    """A solve holds its certificate: its step meets the stop rule, one more
    sweep moves its values by at most c times that step, and they lie within
    ``iter_error`` of the discrete fixed point of plain sweeps."""
    c, n = ifs.c, w.grid.n
    eps = np.finfo(float).eps
    top = float(np.max(np.abs(w.values)))
    step = w.iter_error * (1.0 - c) / c  # the last step, up to its rounding
    assert w.iter_error <= tol or step <= 4.0 * eps * top * (1.0 + 1e-9)
    # the values are a sweep of their predecessor p, so exactly |T v - v| <=
    # c |v - p|; each computed sweep rounds by ~2 eps (max|h| + max|t|)
    scale = top + max(float(np.max(np.abs(m.t))) for m in ifs.maps)
    again = fh.width._OperatorPlan(ifs, w.grid).apply(w.values)
    assert np.max(np.abs(again - w.values)) <= c * step * (1.0 + 1e-9) + 8.0 * eps * scale
    ref, ref_error = plain_fixed_point(ifs, n)
    # the allowance of test_single_similarity_matches_fine_value_iteration
    scale = float(np.max(np.abs(ref))) + max(float(np.max(np.abs(m.t))) for m in ifs.maps)
    allowance = 8.0 * eps * scale / (1.0 - c) + n * np.finfo(float).smallest_subnormal
    assert np.max(np.abs(w.values - ref)) <= w.iter_error + ref_error + allowance


@st.composite
def other_systems_to_095(draw):
    """other_systems() with every linear part scaled so that c is drawn
    from [0.05, 0.95] (A = 0 systems stay A = 0)."""
    ifs = draw(other_systems())
    scale = draw(st.floats(0.05, 0.95)) / ifs.c if ifs.c > 0.0 else 1.0
    return fh.validate_ifs([(scale * m.a, m.t) for m in ifs.maps])


# the solver extrapolates the sweeps of a system with c**20 >= 1/4, that is
# c >= 0.93303; these ranges keep clear of the gate's rounding
BELOW_GATE, ABOVE_GATE = (0.90, 0.933), (0.934, 0.97)


@st.composite
def slow_similarity_systems(draw, c_range):
    """2-4 similarities, one of them a reflection, the largest ratio c drawn
    from ``c_range``, within [0.90, 0.97]: the sweep-bound systems of
    perfbench's hull-slow."""
    c = draw(st.floats(*c_range))
    ts = draw(st.lists(translations, min_size=2, max_size=4))
    flip = draw(st.integers(0, len(ts) - 1))
    maps = []
    for i, t in enumerate(ts):
        a = rotation_scaling(c if i == 0 else draw(st.floats(0.9, 1.0)) * c,
                             draw(st.floats(0.0, TWO_PI)))
        maps.append((a @ np.diag([1.0, -1.0]) if i == flip else a, t))
    return fh.validate_ifs(maps)


class TestNestedStart:
    @settings(max_examples=20, deadline=None)
    @given(ifs=other_systems(), n=st.sampled_from([2048, 4096, 8192]),
           tol=st.sampled_from([1e-3, 1e-6, 1e-9]))
    def test_matches_nested_value_iteration_bitwise(self, ifs, n, tol):
        w = fh.solve_width(ifs, n, tol)
        values, iter_error, interp_slack, iterations = nested_value_iteration(ifs, n, tol)
        assert np.array_equal(w.values, values)
        assert (w.iter_error, w.interp_slack, w.iterations) == (
            iter_error, interp_slack, iterations)

    @settings(max_examples=12, deadline=None)
    @given(ifs=slow_similarity_systems(BELOW_GATE))
    def test_slow_similarities_match_nested_value_iteration_bitwise(self, ifs):
        # 80-170 sweeps per level, most of them spared the full stopping
        # test: the stops are still those of testing every sweep, and below
        # the gate nothing is extrapolated
        w = fh.solve_width(ifs, 4096, 1e-6)
        values, iter_error, interp_slack, iterations = nested_value_iteration(ifs, 4096, 1e-6)
        assert np.array_equal(w.values, values)
        assert (w.iter_error, w.interp_slack, w.iterations) == (
            iter_error, interp_slack, iterations)

    @settings(max_examples=12, deadline=None)
    @given(ifs=slow_similarity_systems(ABOVE_GATE))
    def test_slow_similarities_above_the_gate_stay_certified(self, ifs):
        # extrapolated sweeps take other values than plain ones, so the
        # check is against the fixed point, not bit for bit
        assert_certified_solve(ifs, fh.solve_width(ifs, 4096, 1e-6), 1e-6)

    def test_nests_down_to_the_constant_start(self):
        # 16384 starts from 2048, which starts from 256
        ifs = fh.validate_ifs([(rotation_scaling(0.8, 0.3), (1.0, 0.0)),
                               (rotation_scaling(0.7, -1.1), (-0.5, 0.5))])
        w = fh.solve_width(ifs, 16384, 1e-6)
        values, iter_error, _, iterations = nested_value_iteration(ifs, 16384, 1e-6)
        assert np.array_equal(w.values, values)
        assert (w.iter_error, w.iterations) == (iter_error, iterations)

    @settings(max_examples=20, deadline=None)
    @given(ifs=other_systems_to_095(), n=st.sampled_from([2048, 4096, 8192]),
           tol=st.sampled_from([1e-3, 1e-6, 1e-9]))
    def test_within_certified_error_of_fine_value_iteration(self, ifs, n, tol):
        w = fh.solve_width(ifs, n, tol)
        eps = np.finfo(float).eps
        top = float(np.max(np.abs(w.values)))
        # above tol only when the rounding floor stopped the sweeps
        assert w.iter_error <= tol or (
            w.iter_error * (1.0 - ifs.c) / ifs.c <= 4.0 * eps * top * (1.0 + 1e-9))
        ref, ref_error, _, _ = value_iteration(ifs, n, 1e-12)
        # the allowance of test_single_similarity_matches_fine_value_iteration
        scale = float(np.max(np.abs(ref))) + max(float(np.max(np.abs(m.t))) for m in ifs.maps)
        allowance = (8.0 * eps * scale / (1.0 - ifs.c)
                     + n * np.finfo(float).smallest_subnormal)
        assert np.max(np.abs(w.values - ref)) <= w.iter_error + ref_error + allowance

    def test_zero_maps_same_bytes_at_every_tol(self):
        # the first sweep lands on max_i t_i^T d whatever the start
        ts = [(1.0, 0.0), (-0.5, 0.8), (0.2, -1.3)]
        ifs = fh.validate_ifs([(np.zeros((2, 2)), t) for t in ts])
        coarse = fh.solve_width(ifs, 4096, 1e-2)
        fine = fh.solve_width(ifs, 4096, 1e-8)
        assert coarse.values.tobytes() == fine.values.tobytes()
        assert (coarse.iter_error, coarse.iterations) == (fine.iter_error, fine.iterations)
        shifts = [fine.grid.directions @ np.array(t) for t in ts]
        assert np.array_equal(fine.values, np.max(shifts, axis=0))


# ROADMAP item 1's system: c = 0.9903, ~3000 plain sweeps at 64 angles
ITEM_1 = fh.validate_ifs([
    ([[0.6110814953236943, 0.779269987756455], [0.779269987756455, -0.6110814953236943]],
     (-1.303157231604361, 0.9053558666731177)),
    ([[-0.6712496229095514, 0.7264604859787882], [0.45575492863718975, 0.3676974352021378]],
     (0.02842224131579679, 0.5467129866124469)),
])


@st.composite
def slowly_contracting_systems(draw):
    """2-4 maps, the largest norm c drawn from [0.95, 0.995], each a
    similarity, a reflection or a non-conformal map: every one extrapolated."""
    c = draw(st.floats(0.95, 0.995))
    maps = []
    for i, t in enumerate(draw(st.lists(translations, min_size=2, max_size=4))):
        a = rotation_scaling(c if i == 0 else draw(st.floats(0.8, 1.0)) * c,
                             draw(st.floats(0.0, TWO_PI)))
        # the second factor keeps the norm: singular values ci and ci * s
        a = a @ np.diag([1.0, draw(st.sampled_from([1.0, -1.0, 0.5, -0.8]))])
        maps.append((a, t))
    return fh.validate_ifs(maps)


class SweepRecorder:
    """An operator plan that checks, sweep by sweep, the rules of an
    extrapolating ``_sweep``.

    A plain sweep starts from the previous sweep's output.  After every 20
    plain sweeps a check sweep may start from an extrapolated point s; the
    next sweep starts from the check's output T(s) if ``|T(s) - s|`` is no
    larger than the last plain step, else from the last plain output.
    Plain sweeps and accepted check sweeps are tested: the sweeps stop at
    the first that meets the stop rule, and not before.
    """

    def __init__(self, ifs, n, tol, finer=0):
        self.plan = fh.width._OperatorPlan(ifs, fh.DirectionGrid(n))
        self.c, self.tol, self.finer = ifs.c, tol, finer
        self.prev = self.before = None  # the last two outputs
        self.plain = self.checks = self.refused = self.calls = 0
        self.last_plain = self.pending = self.step = None
        self.stopped = False

    def meets_stop_rule(self, step, out):
        c, finer = self.c, self.finer
        err = step * c / (1.0 - c)
        return (step * c <= self.tol * (1.0 - c)
                or step <= 4.0 * np.finfo(float).eps * float(np.max(np.abs(out)))
                or bool(finer) and err <= (max(float(out.max()), 0.0) + err) * math.pi / finer)

    def apply(self, values):
        assert not self.stopped, "swept on past a sweep that meets the stop rule"
        out = self.plan.apply(values)
        step = float(np.max(np.abs(out - values)))
        check = False
        if self.pending is not None:  # the sweep after a check sweep
            assert np.array_equal(values, self.prev if self.pending else self.before)
            self.pending = None
        elif self.prev is not None and not np.array_equal(values, self.prev):
            assert self.plain > 0 and self.plain % 20 == 0, self.plain
            check, self.plain = True, 0
            self.pending = step <= self.last_plain
            self.checks += 1
            self.refused += not self.pending
        if not check:
            self.plain += 1
            self.last_plain = step
        self.stopped = (not check or self.pending) and self.meets_stop_rule(step, out)
        self.step = step
        self.calls += 1
        # the solver may overwrite the arrays it holds, so keep copies
        self.before, self.prev = self.prev, out.copy()
        return out

    def finish(self, result):
        values, delta, iterations = result
        assert self.stopped
        assert np.array_equal(values, self.prev)
        assert (delta, iterations) == (self.step, self.calls)


class TestExtrapolation:
    @settings(max_examples=10, deadline=None)
    @given(ifs=slowly_contracting_systems(), half=st.integers(32, 2048),
           tol=st.sampled_from([1e-6, 1e-9, 1e-11]))
    @example(ifs=ITEM_1, half=32, tol=1e-11)
    def test_slow_systems_stay_certified(self, ifs, half, tol):
        assert_certified_solve(ifs, fh.solve_width(ifs, 2 * half, tol), tol)

    @pytest.mark.parametrize("start,tol,finer", [
        ("ball", 1e-6, 0), ("ball", 1e-6, 4096), ("zero", 1e-300, 0), ("zero", 1e-9, 2048),
    ])
    @pytest.mark.parametrize("ifs", [
        ITEM_1,
        fh.validate_ifs([(rotation_scaling(0.96, 1.0), (1.0, 0.0)),
                         (rotation_scaling(0.93, 2.5) @ np.diag([1.0, -1.0]), (-0.3, 0.8)),
                         (rotation_scaling(0.95, -0.7), (0.2, -0.9))]),
        fh.validate_ifs([(0.999 * np.eye(2), (1.0, 0.5))]),
    ], ids=["item-1", "similarities", "point-0.999"])
    def test_jumps_and_stops_follow_the_rules(self, ifs, start, tol, finer):
        # from the ball bound, as the solver starts, and from 0, below the
        # fixed point: the stops read the step, not the start.  From 0 the
        # point's first jump lands ~1000 times farther out than the plain
        # sweeps had come, beyond what the stop screen's bound had followed
        n = 256
        r0 = max(float(np.linalg.norm(m.t)) for m in ifs.maps) / (1.0 - ifs.c)
        recorder = SweepRecorder(ifs, n, tol, finer)
        values = np.full(n, r0 if start == "ball" else 0.0)
        recorder.finish(fh.width._sweep(recorder, values, ifs.c, tol, finer))
        assert recorder.checks > 0

    def test_the_rules_see_refused_and_taken_jumps(self):
        # the rows above include jumps of both kinds, so each rule is read
        recorder = SweepRecorder(ITEM_1, 256, 1e-300)
        recorder.finish(fh.width._sweep(recorder, np.zeros(256), ITEM_1.c, 1e-300))
        assert 0 < recorder.refused < recorder.checks

    def test_extrapolation_cancels_four_modes(self):
        # x_{j+1} = M x_j + b, M diagonal with four eigenvalues: the errors of
        # the six iterates lie in four modes, which the weights cancel
        lam = np.repeat([0.97, -0.9, 0.6, 0.2], 50)
        b = np.random.default_rng(1).uniform(-1.0, 1.0, lam.size)
        fixed = b / (1.0 - lam)
        kept = [np.zeros(lam.size)]
        for _ in range(5):
            kept.append(lam * kept[-1] + b)
        error = np.max(np.abs(kept[-1] - fixed))
        last = float(np.max(np.abs(kept[-1] - kept[-2])))
        s, step = fh.width._extrapolate(kept)
        assert step == last
        assert np.max(np.abs(s - fixed)) <= 1e-6 * error


class TestSizeCaps:
    # 2**20 + 2 is even, so the cap is the only rule it breaks; tracemalloc
    # sees numpy's buffers, so a grid built before the check would show
    @pytest.mark.parametrize("make", [
        lambda n: fh.DirectionGrid(n),
        lambda n: fh.solve_width(fh.validate_ifs([(0.5 * np.eye(2), (1.0, 0.0))]), n),
    ])
    def test_grid_above_cap_refused_before_allocation(self, make):
        tracemalloc.start()
        try:
            with pytest.raises(fh.ValidationError, match="at most 1048576"):
                make(2**20 + 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # the grid's angles alone would take 8 MiB

    def test_grid_at_cap_accepted(self):
        assert fh.width._check_grid(2**20) == 2**20


class TestSolveWidth:
    def test_point_attractor(self):
        ifs = fh.validate_ifs([(0.5 * np.eye(2), (0.0, 0.0))])
        w = fh.solve_width(ifs, 64, 1e-8)
        assert np.max(np.abs(w.values)) <= 1e-8

    def test_iteration_cap_raises(self, monkeypatch):
        # two linear parts: the sweeps start from the ball bound and need
        # far more than two steps to reach tol
        monkeypatch.setattr(fh.width, "_ITERATION_CAP", 2)
        ifs = fh.validate_ifs([(0.5 * np.eye(2), (0.0, 0.0)),
                               ([[0.0, -0.6], [0.6, 0.0]], (0.5, 0.0))])
        with pytest.raises(fh.ConvergenceError, match="within 2 steps"):
            fh.solve_width(ifs, 64, 1e-12)

    def test_two_point_attractor_exact(self):
        # maps with A=0 land on the fixed point set {0, e1} in one step
        ifs = fh.validate_ifs([
            (np.zeros((2, 2)), (0.0, 0.0)),
            (np.zeros((2, 2)), (1.0, 0.0)),
        ])
        w = fh.solve_width(ifs, 256, 1e-9)
        expected = np.maximum(0.0, np.cos(w.grid.angles))
        assert w.iter_error == 0.0
        assert np.allclose(w.values, expected, atol=1e-15)

    @pytest.mark.parametrize("z,digits", [
        (1 + 1j, 2),
        (2.0 * complex(math.cos(1.0), math.sin(1.0)), 2),
        (1.01 * complex(math.cos(2.0), math.sin(2.0)), 2),
        (1.5j, 3),
    ])
    def test_complex_base_certified_in_one_sweep(self, z, digits):
        # the circulant start is the fixed point up to rounding of the cells
        w = fh.solve_width(fh.complex_base_ifs(z, digits), 4096, 1e-6)
        assert w.iterations == 1
        assert w.iter_error <= 1e-10

    def test_rounding_floor_stops_the_sweeps(self):
        # tol 1e-12 asks for steps below one sweep's rounding (widths ~200,
        # c = 0.995); the sweeps stop at the rounding floor and report the
        # bound they reached, as they do at tol 1e-6
        ifs = fh.complex_base_ifs(1.005 * complex(math.cos(2.0), math.sin(2.0)), 4)
        w = fh.solve_width(ifs, 4096, 1e-12)
        assert w.iterations <= 2
        assert w.iter_error > 0.0
        assert w.iter_error == fh.solve_width(ifs, 4096, 1e-6).iter_error

    @pytest.mark.parametrize("maps", [
        [(rotation_scaling(0.9, 1.0), (1.0, 0.0)),
         (rotation_scaling(0.8, 0.3) @ np.diag([1.0, -1.0]), (-0.3, 0.8))],
        [([[0.6, 0.1], [-0.2, 0.3]], (1.0, 0.5)), (rotation_scaling(0.4, 2.0), (-0.5, 0.2))],
    ], ids=["rotation-reflection", "non-conformal"])
    def test_rounding_floor_stop_is_the_per_sweep_test_stop(self, maps):
        # tol 1e-300 lies below any step a sweep resolves, so only the
        # rounding floor stops the sweeps; a sweep the screen spares the
        # full test must not be one where testing every sweep would stop
        ifs = fh.validate_ifs(maps)
        n, c = 1024, ifs.c
        w = fh.solve_width(ifs, n, 1e-300)
        plan = fh.width._OperatorPlan(ifs, fh.DirectionGrid(n))
        values = np.full(n, max(float(np.linalg.norm(m.t)) for m in ifs.maps) / (1.0 - c))
        for iterations in range(1, 10_000):
            new = plan.apply(values)
            delta = float(np.max(np.abs(new - values)))
            values = new
            if delta <= 4.0 * np.finfo(float).eps * float(np.max(np.abs(new))):
                break
        assert delta > 0.0
        assert np.array_equal(w.values, values)
        assert (w.iter_error, w.iterations) == (delta * c / (1.0 - c), iterations)

    def test_twindragon_matches_closed_form(self, twindragon_ifs, twindragon_sys):
        w = fh.solve_width(twindragon_ifs, 1024, 1e-6)
        wc = fh.rebase_width(w, (0.0, -0.5))
        ref = fh.rational_width(twindragon_sys, wc.grid.angles)
        assert np.max(np.abs(wc.values - ref)) <= 1e-3

    def test_iteration_count_near_geometric_bound(self, twindragon_ifs):
        w = fh.solve_width(twindragon_ifs, 128, 1e-6)
        c = twindragon_ifs.c
        r0 = max(np.linalg.norm(m.t) for m in twindragon_ifs.maps) / (1 - c)
        bound = math.ceil(math.log(1e-6 * (1 - c) / r0) / math.log(c)) + 1
        assert w.iterations <= bound + 10

    def test_fixed_point_residual(self, twindragon_width, twindragon_ifs):
        w = twindragon_width
        res = np.max(np.abs(
            fh.selfsim_operator(twindragon_ifs, w).values - w.values))
        c = twindragon_ifs.c
        assert res <= 1e-6 * (1 - c) / c + 2 * w.interp_slack + 1e-12

    def test_interp_slack_is_lipschitz_bound(self, twindragon_width):
        w = twindragon_width
        r_bound = max(float(w.values.max()), 0.0) + w.iter_error
        assert w.interp_slack == pytest.approx(r_bound * math.pi / w.grid.n)

    def test_rejects_bad_tol(self, twindragon_ifs):
        with pytest.raises(fh.ValidationError):
            fh.solve_width(twindragon_ifs, 64, 0.0)

    # a string, None, a complex number or a list raised a raw TypeError
    @pytest.mark.parametrize("tol", [math.nan, math.inf, "1e-6", None, 1e-6j, [1e-6, 1e-6]])
    def test_rejects_non_finite_tol(self, twindragon_ifs, tol):
        with pytest.raises(fh.ValidationError, match="positive finite"):
            fh.solve_width(twindragon_ifs, 64, tol)

    @pytest.mark.parametrize("n", [100.7, "128", True, math.nan])
    def test_grid_size_must_be_an_integer(self, twindragon_ifs, n):
        # int() solved 100.7 at n = 100 and parsed "128"
        with pytest.raises(fh.ValidationError, match="grid size must be a finite integer"):
            fh.solve_width(twindragon_ifs, n)

    def test_rejects_other_dimensions(self):
        ifs = fh.validate_ifs([(0.5 * np.eye(3), np.zeros(3))])
        with pytest.raises(fh.ValidationError, match="two-dimensional"):
            fh.solve_width(ifs, 64)

    def test_solves_of_one_size_share_a_read_only_grid(self, twindragon_ifs, square_ifs):
        w = fh.solve_width(twindragon_ifs, 128, 1e-6)
        again = fh.solve_width(square_ifs, 128.0, 1e-3)
        assert again.grid is w.grid
        assert fh.solve_width(twindragon_ifs, 256, 1e-6).grid.n == 256
        fresh = fh.DirectionGrid(128)
        assert np.array_equal(w.grid.directions, fresh.directions)
        assert np.array_equal(w.grid.angles, fresh.angles)
        for arr in (w.grid.angles, w.grid.directions):
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestRebaseEval:
    def test_rebase_to_same_base(self, twindragon_width):
        w2 = fh.rebase_width(twindragon_width, (0.0, 0.0))
        assert np.allclose(w2.values, twindragon_width.values, atol=1e-15)
        assert w2.iter_error == twindragon_width.iter_error
        assert w2.interp_slack == twindragon_width.interp_slack

    def test_point_set_rebase(self):
        # width of {0} seen from (1, 0) is -cos(angle)
        grid = fh.DirectionGrid(256)
        w = width_samples(grid, (0, 0), np.zeros(grid.n), 0, 0)
        w2 = fh.rebase_width(w, (1.0, 0.0))
        assert np.allclose(w2.values, -np.cos(grid.angles), atol=1e-15)

    def test_twindragon_center_symmetry(self, twindragon_width):
        wc = fh.rebase_width(twindragon_width, (0.0, -0.5))
        half = wc.grid.n // 2
        gap = np.max(np.abs(wc.values - np.roll(wc.values, half)))
        assert gap <= 2 * (wc.iter_error + wc.interp_slack)

    def test_eval_on_grid_is_exact(self, twindragon_width):
        w = twindragon_width
        for g in (0, 17, w.grid.n // 2, w.grid.n - 1):
            assert fh.eval_width(w, float(w.grid.angles[g])) == pytest.approx(
                float(w.values[g]), abs=1e-12)

    def test_eval_constant(self):
        w = disk_width(radius=3.0)
        for ang in (0.1234, -5.0, 11.0):
            assert fh.eval_width(w, ang) == pytest.approx(3.0)

    def test_eval_interpolation_error_within_slack(self):
        grid = fh.DirectionGrid(4096)
        values = np.maximum(0.0, np.cos(grid.angles))
        w = width_samples(grid, (0, 0), values, 0.0,
                          interp_slack=math.pi / grid.n)
        query = 0.1234
        assert abs(fh.eval_width(w, query) - math.cos(query)) <= w.interp_slack

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf,
                                       np.array([0.0, math.nan]), "0.3"])
    def test_eval_rejects_non_finite_angle(self, angle):
        # NaN and inf indexed the samples at -2**63
        with pytest.raises(fh.ValidationError, match="angle"):
            fh.eval_width(disk_width(), angle)

    @pytest.mark.parametrize("angle", [1.7e308, -1.7e308, np.array([1.7e308, 0.5, -1.7e308]),
                                       np.array([[-1.7e308], [1.7e308]])])
    def test_eval_huge_finite_angle_reduced_first(self, twindragon_width, angle):
        # angle * n / 2 pi overflows past ~2.8e305 at n = 4096: it indexed
        # the samples at -2**63 after overflow warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fh.eval_width(twindragon_width, angle)
        want = fh.eval_width(twindragon_width, np.mod(angle, TWO_PI))
        assert np.array_equal(got, want) and np.shape(got) == np.shape(angle)

    @pytest.mark.parametrize("base", [(math.nan, 0.0), (0.0, math.inf), (1.0, 2.0, 3.0),
                                      ("1", "0")])
    def test_rebase_rejects_malformed_base(self, base):
        with pytest.raises(fh.ValidationError, match="base point"):
            fh.rebase_width(disk_width(), base)

    def test_rebase_keeps_caller_array_writeable(self):
        base = np.array([0.5, 0.0])
        w = fh.rebase_width(disk_width(), base)
        assert base.flags.writeable and not w.base.flags.writeable


class TestRadiusAndContainment:
    def test_circumradius_unit_ball(self):
        w = disk_width()
        r = fh.circumradius(w)
        assert 1.0 <= r <= 1.0 + w.iter_error + w.interp_slack + 1e-12
        slack = 2 * (w.iter_error + w.interp_slack)
        for ang in (0.0, 0.9, 2.5, 4.0):
            d = np.array([math.cos(ang), math.sin(ang)])
            assert fh.hull_contains(w, d, slack)
            assert not fh.hull_contains(w, (1 + 10 * slack) * d, slack)

    def test_circumradius_square_corner(self, square_width):
        r = fh.circumradius(square_width)
        assert r == pytest.approx(math.sqrt(2.0), abs=2 * square_width.slack + 1e-6)

    def test_circumradius_outside_base(self):
        # the unit disk seen from (3, 0): its farthest point (-1, 0) is 4 away
        w = fh.rebase_width(disk_width(), (3.0, 0.0))
        assert fh.circumradius(w) >= 4.0

    def test_contains_base_and_rejects_far(self, twindragon_width):
        w = twindragon_width
        assert fh.hull_contains(w, w.base)
        far = w.base + np.array([fh.circumradius(w) + 0.1, 0.0])
        assert not fh.hull_contains(w, far, slack=1e-4)

    def test_batch_matches_scalar(self, twindragon_width, twindragon_cloud):
        pts = twindragon_cloud[:64]
        batch = fh.hull_contains(twindragon_width, pts, slack=1e-4)
        single = [fh.hull_contains(twindragon_width, p, slack=1e-4) for p in pts]
        assert batch.tolist() == single

    @settings(max_examples=60, deadline=None)
    @given(lead=st.integers(0, 600), slack=st.sampled_from([0.0, 1e-4]),
           base=st.sampled_from([(0.0, 0.0), (0.3, -0.7)]),
           edges=st.lists(st.integers(0, 2047), max_size=16),
           others=st.lists(st.floats(-2.0, 2.0), max_size=4))
    def test_point_matches_its_batch_row(self, lead, slack, base, edges, others):
        # a point's answer is its row of any batch, also for points placed
        # exactly on values + bound + slack along grid direction k, or a
        # few ulps off: on a disk only that direction decides them.
        # ``lead`` points at the center move the probes across the blocks
        # of 32 points
        w = disk_width(n=2048, base=base)
        budget = w.values + (w.bound + slack)
        points = [w.base + (t, 0.5 * t) for t in others]
        for k in edges:
            reach = [budget[k]]
            for toward in (math.inf, -math.inf):
                for _ in range(3):
                    reach.append(np.nextafter(reach[-1], toward))
                reach.append(budget[k])
            points.extend(w.base + r * w.grid.directions[k] for r in reach)
        batch = np.concatenate((np.tile(w.base, (lead, 1)), np.reshape(points, (-1, 2))))
        got = fh.hull_contains(w, batch, slack)
        assert got[:lead].all()
        assert got[lead:].tolist() == [fh.hull_contains(w, p, slack) for p in points]

    def test_empty_batch(self):
        got = fh.hull_contains(disk_width(), np.zeros((0, 2)))
        assert got.dtype == bool and got.shape == (0,)

    def test_criterion_6_call_memory(self, twindragon_width, twindragon_cloud):
        # 1e5 points x 4096 directions: one (points x directions) matrix
        # would take 3.3 GB; blocks of 16 points work in 1 MiB
        tracemalloc.start()
        try:
            inside = fh.hull_contains(twindragon_width, twindragon_cloud, slack=1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inside.all()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("x", [(math.nan, 0.0), [(0.0, 0.0), (math.nan, 0.0)],
                                   (1.0, 2.0, 3.0), np.zeros((4, 3)), ("0", "0")])
    def test_contains_rejects_malformed_points(self, x):
        # a NaN point or row read as outside; a wrong shape failed to broadcast
        with pytest.raises(fh.ValidationError):
            fh.hull_contains(disk_width(), x)

    @pytest.mark.parametrize("slack", [math.nan, math.inf, -1e-3, "1e-4", None, [1e-4]])
    def test_contains_rejects_malformed_slack(self, slack):
        # a NaN slack read every point as outside; a string raised TypeError
        with pytest.raises(fh.ValidationError, match="slack"):
            fh.hull_contains(disk_width(), (0.0, 0.0), slack)

    @pytest.mark.parametrize("slack", [0, -0.0, np.float32(0.0)])
    def test_contains_accepts_numeric_slack(self, twindragon_width, slack):
        assert fh.hull_contains(twindragon_width, (0.0, -0.5), slack)

    def test_cloud_and_images_contained(self, twindragon_ifs, twindragon_width,
                                        twindragon_cloud):
        # closure under the IFS: images of sampled points stay in the hull
        pts = twindragon_cloud[:20_000]
        assert np.all(fh.hull_contains(twindragon_width, pts, slack=1e-4))
        for m in twindragon_ifs.maps:
            images = pts @ m.a.T + m.t
            assert np.all(fh.hull_contains(twindragon_width, images, slack=1e-4))

    def test_support_tightness_against_samples(self, twindragon_width,
                                               twindragon_cloud):
        from scipy.spatial import ConvexHull
        w = twindragon_width
        extremes = twindragon_cloud[ConvexHull(twindragon_cloud).vertices]
        sample_h = (extremes @ w.grid.directions.T).max(axis=0)
        r = fh.circumradius(w)
        assert np.all(sample_h <= w.values + w.iter_error + w.interp_slack)
        assert np.all(sample_h >= w.values - 0.05 * r)


class TestErrorBudget:
    def test_properties_compose_the_ledger(self):
        grid = fh.DirectionGrid(64)
        values = np.linspace(-1.0, 2.0, 64)
        w = width_samples(grid, (0.0, 0.0), values, 0.25, 0.125)
        assert w.bound == 0.25
        assert w.slack == 0.25 + 0.125
        assert w.radius == 2.0 + 0.25
        assert fh.circumradius(w) == 2.0 + 0.25 + 0.125

    def test_radius_never_below_bound(self):
        # every width function has max h >= 0: negative samples are error
        grid = fh.DirectionGrid(64)
        w = width_samples(grid, (0.0, 0.0), np.full(64, -1.0), 0.25, 0.0)
        assert w.radius == 0.25


class TestSquareOracle:
    """Samples of the unit square's exact widths lowered by DELTA / 2, the
    worst a solver within ``iter_error = DELTA`` may return: every
    certified claim must still hold at the square's true vertices."""

    N, DELTA = 256, 1e-3
    VERTICES = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])

    @pytest.fixture(scope="class")
    def low(self):
        grid = fh.DirectionGrid(self.N)
        exact = (grid.directions @ self.VERTICES.T).max(axis=1)
        # sqrt(2), the largest distance from the base to the square, is R
        return width_samples(grid, (0.0, 0.0), exact - self.DELTA / 2,
                             self.DELTA, math.sqrt(2.0) * math.pi / self.N)

    def test_contains_true_vertices(self, low):
        assert fh.hull_contains(low, self.VERTICES, 0.0).all()

    def test_circumradius_reaches_far_corner(self, low):
        assert fh.circumradius(low) >= math.sqrt(2.0)

    def test_dilated_polygon_holds_true_vertices(self, low):
        poly = fh.extract_polygon(low)
        assert distance_to_polygon(poly.vertices, self.VERTICES).max() <= poly.outer_slack

    def test_quick_test_passes_true_vertices(self, low, square_ifs):
        ctx = fh.build_context(square_ifs, low)
        assert all(fh.near(ctx, v, 0).hit for v in self.VERTICES)


class TestWidthCsv:
    def test_format_and_determinism(self, twindragon_width):
        text = fh.width_csv(twindragon_width)
        assert text == fh.width_csv(twindragon_width)
        lines = text.strip().split("\n")
        assert lines[0] == "angle,h"
        assert len(lines) == twindragon_width.grid.n + 1
        angle, value = lines[1].split(",")
        assert float(angle) == 0.0
        assert float(value) == pytest.approx(float(twindragon_width.values[0]))

    def test_angle_precision(self):
        w = disk_width(n=64 * 2)
        line = fh.width_csv(w).split("\n")[2]
        angle = line.split(",")[0]
        assert float(angle) == pytest.approx(2 * math.pi / 128, rel=1e-11)
