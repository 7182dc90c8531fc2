import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fractalhull as fh


@pytest.fixture(scope="module")
def ctx(twindragon_ifs, twindragon_width):
    return fh.build_context(twindragon_ifs, twindragon_width)


@pytest.fixture(scope="module")
def probe_cloud(twindragon_cloud):
    return twindragon_cloud[:10_000]


class TestBuildContext:
    def test_twindragon_base_is_symmetry_center(self, ctx):
        assert ctx.x0 == pytest.approx([0.0, -0.5])
        assert ctx.complete

    def test_radius_and_c0(self, ctx):
        wc = ctx.width
        assert ctx.radius == pytest.approx(
            float(wc.values.max()) + wc.iter_error + wc.interp_slack)
        assert ctx.c0_bound == pytest.approx(ctx.radius / math.sqrt(2.0))

    def test_safe_mode_doubles_radius(self, twindragon_ifs, twindragon_width):
        safe = fh.build_context(twindragon_ifs, twindragon_width, c0_mode="safe")
        assert safe.c0_bound == pytest.approx(2.0 * safe.radius)

    def test_square_centroid(self, square_ifs, square_width):
        c = fh.build_context(square_ifs, square_width)
        assert c.x0 == pytest.approx([0.5, 0.5])
        assert c.radius == pytest.approx(math.sqrt(2) / 2, abs=3e-3)

    def test_point_attractor(self):
        ifs = fh.validate_ifs([(0.5 * np.eye(2), (0.0, 0.0))])
        w = fh.solve_width(ifs, 64, 1e-10)
        c = fh.build_context(ifs, w)
        assert c.x0 == pytest.approx([0.0, 0.0])
        assert c.radius <= 1e-3
        assert c.c0_bound <= 1e-3

    def test_mode_validated(self, twindragon_ifs, twindragon_width):
        with pytest.raises(fh.ValidationError):
            fh.build_context(twindragon_ifs, twindragon_width, c0_mode="bogus")


class TestQuickReject:
    def test_base_point_passes(self, ctx):
        assert fh.near(ctx, ctx.x0, 0).hit

    def test_far_point_fails(self, ctx):
        assert not fh.near(ctx, ctx.x0 + np.array([2 * ctx.radius, 0.0]), 0).hit

    def test_all_samples_pass(self, ctx, probe_cloud):
        assert all(fh.near(ctx, p, 0).hit for p in probe_cloud[:2000])


class TestNear:
    def test_attractor_point_survives_depth(self, ctx, twindragon_ifs):
        fp = fh.map_fixed_point(twindragon_ifs.maps[0])
        for k in (0, 3, 6, 9, 12):
            res = fh.near(ctx, fp, k)
            assert res.hit
            assert res.depth <= k

    def test_quick_failure_is_false_at_any_depth(self, ctx):
        x = ctx.x0 + np.array([2 * ctx.radius, 0.0])
        for k in (0, 1, 5):
            res = fh.near(ctx, x, k)
            assert not res.hit
            assert res.depth == 0

    def test_nesting(self, ctx):
        rng = np.random.default_rng(77)
        probes = rng.uniform(-1.2, 1.2, size=(150, 2)) + ctx.x0
        for p in probes:
            deeper = fh.near(ctx, p, 4).hit
            if deeper:
                for k in (3, 2, 1, 0):
                    assert fh.near(ctx, p, k).hit

    def test_true_implies_quick_pass(self, ctx, probe_cloud):
        for p in probe_cloud[:200]:
            if fh.near(ctx, p, 2).hit:
                assert fh.near(ctx, p, 0).hit

    def test_rejects_negative_depth(self, ctx):
        with pytest.raises(fh.ValidationError):
            fh.near(ctx, ctx.x0, -1)

    @pytest.mark.parametrize("k", [math.nan, math.inf])
    def test_rejects_non_finite_depth(self, ctx, k):
        with pytest.raises(fh.ValidationError, match="finite"):
            fh.near(ctx, ctx.x0, k)


class TestNear1:
    def test_big_budget_immediate(self, ctx):
        res = fh.near1(ctx, ctx.x0, ctx.c0_bound + 0.1)
        assert res.hit and res.depth == 0

    def test_outside_is_false_at_depth_zero(self, ctx):
        res = fh.near1(ctx, ctx.x0 + np.array([0.0, 2 * ctx.radius]), 0.01)
        assert not res.hit and res.depth == 0

    def test_monotone_in_budget(self, ctx):
        rng = np.random.default_rng(78)
        probes = rng.uniform(-1.0, 1.0, size=(120, 2)) + ctx.x0
        for p in probes:
            if fh.near1(ctx, p, 0.02).hit:
                assert fh.near1(ctx, p, 0.05).hit
                assert fh.near1(ctx, p, 0.2).hit

    def test_depth_bound(self, ctx, probe_cloud):
        c = ctx.ifs.c
        for level in (0.01, 0.05, 0.2):
            cap = math.ceil(math.log(ctx.c0_bound / level)
                            / math.log(1.0 / c)) + 1
            for p in probe_cloud[:300]:
                assert fh.near1(ctx, p, level).depth <= cap

    def test_soundness_against_distance_oracle(self, ctx, twindragon_cloud):
        from scipy.spatial import cKDTree
        tree = cKDTree(twindragon_cloud)
        rng = np.random.default_rng(79)
        idx = rng.integers(0, twindragon_cloud.shape[0], size=200)
        delta = rng.uniform(0.0, 0.2, size=200)
        ang = rng.uniform(0.0, 2 * math.pi, size=200)
        probes = twindragon_cloud[idx] + delta[:, None] * np.stack(
            [np.cos(ang), np.sin(ang)], axis=1)
        dists = tree.query(probes)[0]
        for level in (0.01, 0.05, 0.2):
            for p, dist in zip(probes, dists):
                if fh.near1(ctx, p, level).hit:
                    # 1e5-point oracle: covering radius costs ~1e-2
                    assert dist <= level + 0.015

    def test_attractor_points_accepted(self, ctx, probe_cloud):
        hits = sum(fh.near1(ctx, p, 0.01).hit for p in probe_cloud[:300])
        assert hits == 300

    def test_rejects_nonpositive_threshold(self, ctx):
        with pytest.raises(fh.ValidationError):
            fh.near1(ctx, ctx.x0, 0.0)

    def test_rejects_nan_threshold(self, ctx):
        # NaN passed a `l <= 0` test, and its budget never reached C0
        with pytest.raises(fh.ValidationError, match="positive"):
            fh.near1(ctx, ctx.x0, math.nan)


class TestQueryInputs:
    @pytest.mark.parametrize("x", [(math.nan, 0.0), (0.0, math.inf), (0.0, 0.0, 0.0),
                                   (0.0,), 0.0])
    def test_point_must_be_finite_2_vector(self, ctx, x):
        with pytest.raises(fh.ValidationError, match="finite 2-vector"):
            fh.near(ctx, x, 1)
        with pytest.raises(fh.ValidationError, match="finite 2-vector"):
            fh.near1(ctx, x, 0.1)


class TestDeepWalks:
    def test_near_past_recursion_limit(self, ctx):
        # 0 is the fixed point of the twindragon's first map: every level passes
        with pytest.raises(fh.FractalHullError, match=r"reached level \d+"):
            fh.near(ctx, (0.0, 0.0), 5000)

    def test_large_k_rejected_at_depth_zero(self, ctx):
        res = fh.near(ctx, (50.0, 50.0), 100_000)
        assert not res.hit and res.depth == 0

    def test_near1_past_recursion_limit(self):
        # c = 1/1.01: the budget reaches C0 only after ~2300 levels
        ifs = fh.complex_base_ifs(1.01 * complex(math.cos(2.0), math.sin(2.0)), 2)
        c = fh.build_context(ifs, fh.solve_width(ifs, 1024, 1e-6))
        with pytest.raises(fh.FractalHullError, match=r"reached level \d+"):
            fh.near1(c, fh.map_fixed_point(ifs.maps[0]), 1e-10)


@pytest.fixture(scope="module")
def mixed_ifs():
    flat = np.array([[0.5, 0.0], [0.0, 0.0]])  # rank 1: projects to the x-axis
    return fh.validate_ifs([
        (0.5 * np.eye(2), (0.0, 0.0)),
        (flat, (0.5, 0.0)),
    ])


class TestSingularMaps:
    def test_singular_map_skipped(self, mixed_ifs):
        w = fh.solve_width(mixed_ifs, 1024, 1e-8)
        c = fh.build_context(mixed_ifs, w)
        assert not c.complete
        # map 1's fixed point (1, 0) lies in K, but only map 1 pulls it back
        # into the hull; with map 1 skipped, one level cannot certify it
        res = fh.near(c, (1.0, 0.0), 1)
        assert not res.hit and not res.complete
        assert fh.near(c, (0.25, 0.0), 1).hit  # map 0 pulls it back to x0

    def test_results_flagged_incomplete(self, mixed_ifs):
        w = fh.solve_width(mixed_ifs, 1024, 1e-8)
        c = fh.build_context(mixed_ifs, w)
        res = fh.near(c, (0.0, 0.0), 3)
        assert res.hit  # reachable through the invertible branch
        assert not res.complete

    def test_all_singular_still_quick_tests(self):
        ifs = fh.validate_ifs([(np.zeros((2, 2)), (1.0, 2.0))])
        w = fh.solve_width(ifs, 1024, 1e-10)
        c = fh.build_context(ifs, w)
        assert not c.complete
        assert fh.near(c, (1.0, 2.0), 0).hit
        # no invertible branch: a deeper query cannot certify and is flagged
        deeper = fh.near(c, (1.0, 2.0), 1)
        assert not deeper.hit and not deeper.complete


@st.composite
def planar_systems(draw):
    """1-4 planar maps with c <= 0.9, about a quarter of them rank one.

    Returns the system and whether every map is invertible, known from
    the construction rather than from the code under test.
    """
    maps = []
    invertible = True
    for _ in range(draw(st.integers(1, 4))):
        c = draw(st.floats(0.1, 0.9))
        th = draw(st.floats(0.0, 2 * math.pi))
        u = np.array([math.cos(th), math.sin(th)])
        if draw(st.integers(0, 3)) == 0:
            ph = draw(st.floats(0.0, 2 * math.pi))
            a = c * np.outer(u, [math.cos(ph), math.sin(ph)])
            invertible = False
        else:
            rot = np.array([[u[0], -u[1]], [u[1], u[0]]])
            a = c * rot @ np.diag([1.0, draw(st.floats(0.2, 1.0))])
        t = (draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
        maps.append((a, t))
    return fh.validate_ifs(maps), invertible


class TestWalkProperties:
    @settings(max_examples=60, deadline=None)
    @given(system=planar_systems(),
           offset=st.tuples(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2)),
           k=st.integers(0, 5),
           frac=st.floats(0.05, 1.0),
           grow=st.floats(1.01, 4.0))
    def test_nesting_depth_and_completeness(self, system, offset, k, frac, grow):
        ifs, invertible = system
        w = fh.solve_width(ifs, 256, 1e-8)
        ctx = fh.build_context(ifs, w)
        x = ctx.x0 + ctx.radius * np.asarray(offset)
        deeper, shallow = fh.near(ctx, x, k + 1), fh.near(ctx, x, k)
        assert not deeper.hit or shallow.hit
        assert shallow.depth <= k and deeper.depth <= k + 1
        level = frac * max(ctx.c0_bound, 1e-6)  # C0 is 0 for a point attractor
        if fh.near1(ctx, x, level).hit:
            assert fh.near1(ctx, x, grow * level).hit
        for res in (deeper, shallow, fh.near1(ctx, x, level)):
            assert res.complete == invertible
