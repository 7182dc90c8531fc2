import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fractalhull as fh
from conftest import disk_width

TWO_PI = 2.0 * math.pi


def random_samples(grid, rng, lo=-1.0, hi=2.0):
    return fh.make_width_samples(grid, (0.0, 0.0),
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
        w = fh.make_width_samples(grid, (0, 0), np.full(grid.n, 7.0), 0, 0)
        out = fh.selfsim_operator(ifs, w)
        expected = np.maximum(0.0, np.cos(grid.angles))
        assert np.allclose(out.values, expected, atol=1e-15)
        again = fh.selfsim_operator(ifs, out)
        assert np.array_equal(again.values, out.values)

    def test_scaling_of_constant(self):
        ifs = fh.validate_ifs([(0.5 * np.eye(2), (0.0, 0.0))])
        grid = fh.DirectionGrid(128)
        w = fh.make_width_samples(grid, (0, 0), np.ones(grid.n), 0, 0)
        out = fh.selfsim_operator(ifs, w)
        assert np.allclose(out.values, 0.5, atol=1e-15)

    def test_twindragon_one_step_from_zero(self, twindragon_ifs):
        grid = fh.DirectionGrid(256)
        w = fh.make_width_samples(grid, (0, 0), np.zeros(grid.n), 0, 0)
        out = fh.selfsim_operator(twindragon_ifs, w)
        t1 = twindragon_ifs.maps[1].t
        expected = np.maximum(0.0, grid.directions @ t1)
        assert np.allclose(out.values, expected, atol=1e-15)

    def test_requires_origin_base(self, twindragon_ifs):
        grid = fh.DirectionGrid(128)
        w = fh.make_width_samples(grid, (1.0, 0.0), np.ones(grid.n), 0, 0)
        with pytest.raises(fh.ValidationError):
            fh.selfsim_operator(twindragon_ifs, w)

    def test_rejects_other_dimensions(self):
        ifs = fh.validate_ifs([(0.5 * np.eye(3), np.zeros(3))])
        grid = fh.DirectionGrid(128)
        w = fh.make_width_samples(grid, (0, 0), np.ones(grid.n), 0, 0)
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
        g = fh.make_width_samples(grid, (0, 0),
                                  f.values + rng.uniform(0, 1, size=grid.n), 0, 0)
        lo = fh.selfsim_operator(twindragon_ifs, f).values
        hi = fh.selfsim_operator(twindragon_ifs, g).values
        assert np.all(lo <= hi + 1e-12)


def reference_operator(ifs, grid, values):
    """The per-map operator formula, trigonometry on every call, as an oracle."""
    n = grid.n
    dirs = grid.directions
    best = None
    for m in ifs.maps:
        v = dirs @ m.a
        norms = np.hypot(v[:, 0], v[:, 1])
        ang = np.arctan2(v[:, 1], v[:, 0])
        pos = np.mod(np.multiply(ang, n / TWO_PI), n)
        g0 = np.floor(pos).astype(int) % n
        frac = pos - np.floor(pos)
        g1 = (g0 + 1) % n
        interp = (1.0 - frac) * values[g0] + frac * values[g1]
        term = norms * interp + dirs @ m.t
        best = term if best is None else np.maximum(best, term)
    return best


@st.composite
def operator_maps(draw):
    """1-4 planar maps: general, rank one (``|A^T d|`` vanishes on a line)
    or the zero matrix (it vanishes everywhere)."""
    maps = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["general", "rank-one", "zero"]))
        c = draw(st.floats(0.05, 0.95))
        if kind == "zero":
            a = np.zeros((2, 2))
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


class TestOperatorPlanProperties:
    @settings(max_examples=80, deadline=None)
    @given(ifs=operator_maps(), half=st.integers(32, 2048),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_map_formula_bitwise(self, ifs, half, seed):
        grid = fh.DirectionGrid(2 * half)
        values = np.random.default_rng(seed).uniform(-1.0, 2.0, grid.n)
        w = fh.make_width_samples(grid, (0.0, 0.0), values, 0.0, 0.0)
        got = fh.selfsim_operator(ifs, w).values
        assert np.array_equal(got, reference_operator(ifs, grid, values))


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


def rotation_scaling(ratio, angle):
    return ratio * np.array([[math.cos(angle), -math.sin(angle)],
                             [math.sin(angle), math.cos(angle)]])


translations = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


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


class TestSolveWidth:
    def test_point_attractor(self):
        ifs = fh.validate_ifs([(0.5 * np.eye(2), (0.0, 0.0))])
        w = fh.solve_width(ifs, 64, 1e-8)
        assert np.max(np.abs(w.values)) <= 1e-8

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

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_non_finite_tol(self, twindragon_ifs, tol):
        with pytest.raises(fh.ValidationError, match="positive finite"):
            fh.solve_width(twindragon_ifs, 64, tol)


class TestRebaseEval:
    def test_rebase_to_same_base(self, twindragon_width):
        w2 = fh.rebase_width(twindragon_width, (0.0, 0.0))
        assert np.allclose(w2.values, twindragon_width.values, atol=1e-15)
        assert w2.iter_error == twindragon_width.iter_error
        assert w2.interp_slack == twindragon_width.interp_slack

    def test_point_set_rebase(self):
        # width of {0} seen from (1, 0) is -cos(angle)
        grid = fh.DirectionGrid(256)
        w = fh.make_width_samples(grid, (0, 0), np.zeros(grid.n), 0, 0)
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
        w = fh.make_width_samples(grid, (0, 0), values, 0.0,
                                  interp_slack=math.pi / grid.n)
        query = 0.1234
        assert abs(fh.eval_width(w, query) - math.cos(query)) <= w.interp_slack


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

    def test_circumradius_rejects_outside_base(self):
        grid = fh.DirectionGrid(64)
        w = fh.make_width_samples(grid, (0, 0),
                                  np.cos(grid.angles) - 0.5, 1e-9, 0.0)
        with pytest.raises(fh.InvalidBaseError):
            fh.circumradius(w)

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
