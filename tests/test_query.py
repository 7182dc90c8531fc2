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

    def test_rejects_other_dimensions(self, twindragon_width):
        ifs = fh.validate_ifs([(0.5 * np.eye(3), np.zeros(3))])
        with pytest.raises(fh.ValidationError, match="two-dimensional"):
            fh.build_context(ifs, twindragon_width)

    def test_result_truthiness_follows_hit(self, ctx):
        hit = fh.near(ctx, ctx.x0, 0)
        miss = fh.near(ctx, ctx.x0 + np.array([2 * ctx.radius, 0.0]), 0)
        assert hit.hit and bool(hit)
        assert not miss.hit and not bool(miss)


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

    @pytest.mark.parametrize("k", [2.5, 0.5, 1e-9])
    def test_rejects_fractional_depth(self, ctx, k):
        # int() would silently run 2 of 2.5 levels
        with pytest.raises(fh.ValidationError, match="integer"):
            fh.near(ctx, ctx.x0, k)

    def test_rejects_bool_depth(self, ctx):
        with pytest.raises(fh.ValidationError, match="integer"):
            fh.near(ctx, ctx.x0, True)

    def test_integral_depth_of_any_type(self, ctx):
        for k in (3, 3.0, np.int64(3)):
            assert fh.near(ctx, ctx.x0, k) == fh.near(ctx, ctx.x0, 3)


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

    @pytest.mark.parametrize("l", ["0.1", None, 0.1j, [0.1], np.array([0.1, 0.2])])
    def test_rejects_non_numeric_threshold(self, ctx, l):
        # a string raised a raw TypeError from the comparison
        with pytest.raises(fh.ValidationError, match="positive"):
            fh.near1(ctx, ctx.x0, l)


class TestQueryInputs:
    @pytest.mark.parametrize("x", [(math.nan, 0.0), (0.0, math.inf), (0.0, 0.0, 0.0),
                                   (0.0,), 0.0, "ab", "12", b"ab", [1 + 1j, 0.0],
                                   {"x": 0.0, "y": 0.0}, {1.0, 2.0}, [[1.0, 2.0], [3.0]],
                                   None, ("0.1", "0.2"), [math.nan, 0.0], [0.0, -math.inf],
                                   (np.float64(math.nan), 0.0), np.array([0.0, math.nan]),
                                   [0.1, 0.2, 0.3]])
    def test_point_must_be_finite_2_vector(self, ctx, x):
        with pytest.raises(fh.ValidationError, match="finite 2-vector"):
            fh.near(ctx, x, 1)
        with pytest.raises(fh.ValidationError, match="finite 2-vector"):
            fh.near1(ctx, x, 0.1)

    # each point form answers as the tuple of Python floats it holds does
    @pytest.mark.parametrize("x,floats", [
        ([0.2, -0.4], (0.2, -0.4)),
        (np.array([0.2, -0.4]), (0.2, -0.4)),
        ((np.float64(0.2), np.float64(-0.4)), (0.2, -0.4)),
        ([np.float64(0.2), -0.4], (0.2, -0.4)),
        (np.array([0.5, -0.25], dtype=np.float32), (0.5, -0.25)),
        ((0, -1), (0.0, -1.0)),
        ([np.int64(1), 0], (1.0, 0.0)),
        ((True, False), (1.0, 0.0)),
    ], ids=["list", "ndarray", "numpy-scalars", "mixed-list", "float32", "ints",
            "numpy-ints", "bools"])
    def test_point_forms_accepted(self, ctx, x, floats):
        for k in (0, 3):
            assert answer(fh.near(ctx, x, k)) == answer(fh.near(ctx, floats, k))
        for level in (0.5, 0.01):
            assert answer(fh.near1(ctx, x, level)) == answer(fh.near1(ctx, floats, level))


class TestDeepWalks:
    def test_near_past_recursion_limit(self, ctx):
        # 0 is the fixed point of the twindragon's first map: every level
        # passes, 5000 levels deep, far past Python's recursion limit
        res = fh.near(ctx, (0.0, 0.0), 5000)
        assert res.hit and res.complete and res.depth == 5000

    def test_large_k_rejected_at_depth_zero(self, ctx):
        res = fh.near(ctx, (50.0, 50.0), 100_000)
        assert not res.hit and res.depth == 0

    def test_near1_past_recursion_limit(self):
        # c = 1/1.01: the budget reaches C0 only after ~2600 levels
        ifs = fh.complex_base_ifs(1.01 * complex(math.cos(2.0), math.sin(2.0)), 2)
        c = fh.build_context(ifs, fh.solve_width(ifs, 1024, 1e-6))
        res = fh.near1(c, fh.map_fixed_point(ifs.maps[0]), 1e-10)
        assert res.hit and res.complete and res.depth == 2628
        assert res.depth <= math.ceil(math.log(c.c0_bound / 1e-10) / math.log(1.01)) + 1


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


def reference_quick_inside(ctx, values, x, y):
    """The quick test as the walk ran it before the annulus shortcut."""
    dx = x - float(ctx.x0[0])
    dy = y - float(ctx.x0[1])
    dist = math.hypot(dx, dy)
    if dist <= ctx.slack:
        return True
    n = len(values)
    pos = (math.atan2(dy, dx) % (2.0 * math.pi)) * n / (2.0 * math.pi)
    g0 = int(pos) % n
    frac = pos - int(pos)
    h = (1.0 - frac) * values[g0] + frac * values[(g0 + 1) % n]
    return dist <= h + ctx.slack


# nodes the reference walk may visit before TestWalkMatchesReference skips
# the point: about 0.1 s of Python
WALK_NODES = 20_000


class LongWalk(Exception):
    """The reference walk visited more nodes than it was allowed."""


def reference_walk(ctx, x, budget, levels, max_nodes=math.inf):
    """``(hit, complete, depth)`` of the pull-back walk, one full quick test
    per node, as ``near`` (budget -inf, levels k) and ``near1`` (budget l,
    levels inf) ran it before the annulus shortcut.  Raises ``LongWalk``
    once it has visited more than ``max_nodes`` nodes."""
    values = ctx.width.values.tolist()
    max_depth = 0
    nodes = 0

    def walk(px, py, budget, depth):
        nonlocal max_depth, nodes
        nodes += 1
        if nodes > max_nodes:
            raise LongWalk
        max_depth = max(max_depth, depth)
        if not reference_quick_inside(ctx, values, px, py):
            return False
        if depth >= levels or budget >= ctx.c0_bound:
            return True
        for i11, i12, i21, i22, tx, ty, ci in ctx._coeff:
            qx, qy = px - tx, py - ty
            if walk(i11 * qx + i12 * qy, i21 * qx + i22 * qy, budget / ci, depth + 1):
                return True
        return False

    hit = walk(float(x[0]), float(x[1]), budget, 0)
    return hit, ctx.complete, max_depth


def answer(res):
    return res.hit, res.complete, res.depth


@st.composite
def walk_systems(draw):
    """2-4 planar maps with c <= 0.9: a general system (a quarter of its
    maps rank one), a point attractor (every map fixes one point) or a
    segment (ratios times the identity, fixed points on one line)."""
    kind = draw(st.sampled_from(["general", "point", "segment"]))
    if kind == "general":
        ifs, _ = draw(planar_systems().filter(lambda s: len(s[0]) >= 2))
        return ifs
    p = np.array([draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))])
    th = draw(st.floats(0.0, 2 * math.pi))
    u = np.array([math.cos(th), math.sin(th)])
    maps = []
    for _ in range(draw(st.integers(2, 4))):
        r = draw(st.floats(0.1, 0.9))
        if kind == "point":
            ph = draw(st.floats(0.0, 2 * math.pi))
            a = r * np.array([[math.cos(ph), -math.sin(ph)], [math.sin(ph), math.cos(ph)]])
            maps.append((a, (np.eye(2) - a) @ p))
        else:
            q = p + draw(st.floats(-1.0, 1.0)) * u
            maps.append((r * np.eye(2), (1.0 - r) * q))
    return fh.validate_ifs(maps)


class TestWalkMatchesReference:
    """The annulus shortcut and the inlined test give the answers of the
    full interpolated test at every node, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(ifs=walk_systems(),
           offsets=st.lists(st.tuples(st.floats(-1.3, 1.3), st.floats(-1.3, 1.3)),
                            min_size=4, max_size=8),
           words=st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=6),
                          min_size=2, max_size=4),
           k=st.integers(0, 5),
           frac=st.floats(0.01, 1.0))
    def test_near_and_near1_match_reference(self, ifs, offsets, words, k, frac):
        w = fh.solve_width(ifs, 256, 1e-8)
        ctx = fh.build_context(ifs, w)
        points = [ctx.x0 + max(ctx.radius, 1e-3) * np.asarray(o) for o in offsets]
        for word in words:  # images of a fixed point under a word lie in K
            x = fh.map_fixed_point(ifs.maps[word[0] % len(ifs)])
            for i in word[1:]:
                x = ifs.maps[i % len(ifs)](x)
            points.append(x)
        level = frac * max(ctx.c0_bound, 1e-6)  # C0 is 0 for a point attractor
        for x in points:
            assert answer(fh.near(ctx, x, k)) == reference_walk(ctx, x, -math.inf, k)
            # near1 walks the reference's nodes in its order, so a walk that
            # would take too long is skipped before near1 starts it: a miss
            # near a point attractor visits about m^depth nodes (see
            # TestExponentialMiss)
            try:
                expected = reference_walk(ctx, x, level, math.inf, WALK_NODES)
            except LongWalk:
                continue
            assert answer(fh.near1(ctx, x, level)) == expected


class TestExponentialMiss:
    """Every map of a point attractor fixes p, so every branch passes the
    quick test until the pulled-back point leaves the slack disk around p,
    and a miss near p visits about m^depth nodes."""

    @pytest.fixture(scope="class")
    def point_ctx(self):
        p = np.array([0.6, -0.3])
        maps = []
        for r, th in ((0.8, 0.0), (0.85, 2.0), (0.9, 4.0)):
            a = r * np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
            maps.append((a, (np.eye(2) - a) @ p))
        ifs = fh.validate_ifs(maps)
        return fh.build_context(ifs, fh.solve_width(ifs, 256, 1e-8))

    def test_miss_deepens_near_the_point(self, point_ctx):
        ctx = point_ctx
        near, far = [(float(ctx.x0[0] + f * ctx.radius), float(ctx.x0[1]))
                     for f in (0.3, 0.5)]
        assert answer(fh.near1(ctx, far, 1e-4)) == (False, True, 7)
        assert answer(fh.near1(ctx, near, 1e-4)) == (False, True, 12)
        # five levels deeper, three maps: over 16 times the nodes
        assert reference_walk(ctx, far, 1e-4, math.inf, 512) == (False, True, 7)
        with pytest.raises(LongWalk):
            reference_walk(ctx, near, 1e-4, math.inf, 16 * 512)


class TestWalkEdges:
    """Walks the hypothesis draws of TestWalkMatchesReference rarely reach:
    no invertible map at all, and depths past the shared results."""

    def test_all_rank_one_matches_reference(self):
        maps = []
        for th, ph, t in ((0.3, 1.1, (0.5, 0.0)), (2.0, 0.4, (-0.2, 0.6))):
            u = np.array([math.cos(th), math.sin(th)])
            v = np.array([math.cos(ph), math.sin(ph)])
            maps.append((0.6 * np.outer(u, v), t))
        ifs = fh.validate_ifs(maps)
        ctx = fh.build_context(ifs, fh.solve_width(ifs, 256, 1e-8))
        assert ctx._coeff == () and not ctx.complete
        rng = np.random.default_rng(5)
        points = [ctx.x0, *(ctx.x0 + rng.uniform(-1.5, 1.5, size=(30, 2)) * ctx.radius)]
        points += [fh.map_fixed_point(m) for m in ifs.maps]
        for x in points:
            for k in (0, 1, 3):
                assert answer(fh.near(ctx, x, k)) == reference_walk(ctx, x, -math.inf, k)
            for level in (0.1 * ctx.c0_bound, 2.0 * ctx.c0_bound):
                assert answer(fh.near1(ctx, x, level)) == reference_walk(
                    ctx, x, level, math.inf)

    def test_deeper_than_shared_results_matches_reference(self, ctx, twindragon_ifs):
        # each map's fixed point lies in K, so these walks end with true at
        # depths 63-79, on either side of the 64 shared depths
        for m in twindragon_ifs.maps:
            x = fh.map_fixed_point(m)
            for k in (63, 64, 65, 70):
                expected = reference_walk(ctx, x, -math.inf, k, WALK_NODES)
                assert answer(fh.near(ctx, x, k)) == expected
            expected = reference_walk(ctx, x, 1e-12, math.inf, WALK_NODES)
            assert expected[2] > 64
            res = fh.near1(ctx, x, 1e-12)
            assert answer(res) == expected
            assert res == fh.near1(ctx, x, 1e-12)

    def test_shared_results_are_frozen_values(self, ctx):
        far = ctx.x0 + np.array([2 * ctx.radius, 0.0])
        for res, hit in ((fh.near(ctx, ctx.x0, 3), True), (fh.near(ctx, far, 3), False),
                         (fh.near1(ctx, ctx.x0, 0.01), True)):
            assert type(res) is fh.QueryResult
            assert res == fh.QueryResult(hit, True, res.depth)
            assert res.hit is hit and bool(res) is hit
            with pytest.raises(AttributeError):
                res.hit = not hit
            with pytest.raises(AttributeError):
                res.depth = 100
            assert res == fh.QueryResult(hit, True, res.depth)  # unchanged


def flat_context(values, slack=0.0):
    """A context over synthetic widths around x0 = 0.  Between two equal
    values 0.9 (or 1.3, 1.7) the interpolant rounds below them for about
    one fraction in eight (one in forty) and above for as many, so an
    annulus edge without its margin decides some points wrongly."""
    ifs = fh.validate_ifs([(0.5 * np.eye(2), (0.5, 0.0)), (0.5 * np.eye(2), (-0.5, 0.0))])
    grid = fh.DirectionGrid(len(values))
    w = fh.make_width_samples(grid, (0.0, 0.0), values, 0.0, slack)
    ctx = fh.build_context(ifs, w)
    assert ctx.x0.tolist() == [0.0, 0.0]
    assert ctx.width.values.tolist() == list(values)
    return ctx


def annulus_contexts():
    steps = np.where(np.arange(256) < 128, 0.9, 1.7)
    yield "constant 0.9", flat_context(np.full(64, 0.9))
    yield "constant 1.3", flat_context(np.full(128, 1.3))
    yield "steps 0.9/1.7", flat_context(steps)
    yield "steps with slack", flat_context(steps, slack=2.0**-40)
    # subnormal widths, whose products round by absolute steps
    yield "subnormal", flat_context(np.full(64, 3 * math.ulp(0.0)))
    twindragon = fh.complex_base_ifs(1 + 1j, 2)
    yield "twindragon", fh.build_context(twindragon, fh.solve_width(twindragon, 1024, 1e-8))
    segment = fh.validate_ifs([(0.4 * np.eye(2), (0.6, 0.6)), (0.4 * np.eye(2), (0.0, 0.0))])
    yield "segment", fh.build_context(segment, fh.solve_width(segment, 256, 1e-10))


def ulps_around(r, count):
    """r and the ``count`` floats on either side of it."""
    out = [r]
    for step in (-math.inf, math.inf):
        d = r
        for _ in range(count):
            d = math.nextafter(d, step)
            out.append(d)
    return out


# directions where the grid position rounds to n, or lands just below it
WRAP_ANGLES = (-1e-300, -1e-17, -1e-12, 2 * math.pi - 1e-9)


@pytest.mark.parametrize("name, ctx", list(annulus_contexts()),
                         ids=[name for name, _ in annulus_contexts()])
def test_quick_test_edges_decide_as_full_test(name, ctx):
    """Points at r_in, r_out and the interpolated threshold and 1-3 ulps
    either side, in 2048 directions and at the wrap of the grid: the quick
    test (near at k = 0) gives the full test's decision."""
    values = ctx.width.values.tolist()
    n = len(values)
    x0, y0 = ctx.x0.tolist()
    angles = np.concatenate([np.linspace(0.0, 2 * math.pi, 2048, endpoint=False),
                             WRAP_ANGLES])
    reached = set()
    for th in angles.tolist():
        c, s = math.cos(th), math.sin(th)
        pos = (th % (2 * math.pi)) * n / (2 * math.pi)
        g0, frac = int(pos) % n, pos - int(pos)
        h = (1.0 - frac) * values[g0] + frac * values[(g0 + 1) % n] + ctx.slack
        for r in (*ctx._annulus, h):
            for d in ulps_around(r, 3):
                x, y = x0 + d * c, y0 + d * s
                reached.add(math.hypot(x - x0, y - y0))
                assert fh.near(ctx, (x, y), 0).hit == reference_quick_inside(
                    ctx, values, x, y)
    for r in ctx._annulus:
        assert {d for d in ulps_around(r, 1) if d >= 0.0} <= reached
