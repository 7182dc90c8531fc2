import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fractalhull as fh
from conftest import disk_width, distance_to_polygon, polygon_support, width_samples
from fractalhull.hull import (_jump_threshold, _monotone_chain, _node_derivatives,
                              _support_shortfall, _thin_by_path)

SQRT2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi
# three of the unit square's four maps, moved so the attractor's hull is the
# triangle (4, 4), (5, 4), (4, 5), far from the origin
SHIFTED_TRIANGLE = [(0.5 * np.eye(2), t) for t in ((2.0, 2.0), (2.5, 2.0), (2.0, 2.5))]
# two rank-one maps whose hull tip the kink path drops at n = 1024: the
# polygon misses exact word images by 0.076, more than the a-priori slack
# 2 (iter_error + interp_slack) + merge_tol = 0.073
DROPPED_TIP = [
    (np.array([[0.02507857, -0.04715763], [-0.03969515, 0.0746426]]),
     (1.638671875, -1.42578125)),
    (np.array([[-0.2636541, -0.14968441], [-0.22615306, -0.12839393]]),
     (1.638671875, -0.1026330724832607)),
]


def polygon_from_vertices(vertices, base=(0.0, 0.0)):
    return fh.HullPolygon(np.asarray(vertices, dtype=float),
                          np.asarray(base, dtype=float))


def polygon_samples(poly, grid):
    """Exact width samples of a polygon around its base, with the
    interpolation slack of its largest distance from the base."""
    r = float(np.max(np.linalg.norm(poly.vertices - poly.base, axis=1)))
    return width_samples(grid, poly.base, polygon_support(poly, grid.angles),
                         0.0, r * math.pi / grid.n)


def cyclic_match(got, expected, tol):
    """Vertex lists equal up to rotation of the cyclic order."""
    got = np.asarray(got)
    expected = np.asarray(expected)
    if got.shape != expected.shape:
        return False
    k = got.shape[0]
    for shift in range(k):
        if np.allclose(np.roll(got, shift, axis=0), expected, atol=tol):
            return True
    return False


@pytest.fixture(scope="module")
def square_centered(square_width):
    return fh.rebase_width(square_width, (0.5, 0.5))


class TestDetectKinks:
    def test_disk_has_none(self):
        assert len(fh.detect_kinks(disk_width())) == 0

    def test_square_axes(self, square_centered):
        kinks = fh.detect_kinks(square_centered)
        assert len(kinks) == 4
        angles = sorted(k.angle for k in kinks)
        assert angles == pytest.approx(
            [0.0, math.pi / 2, math.pi, 3 * math.pi / 2], abs=1e-9)
        for k in kinks:
            assert k.jump == pytest.approx(1.0, abs=0.01)

    def test_twindragon_octagon_jumps(self, twindragon_width, twindragon_sys):
        wc = fh.rebase_width(twindragon_width, (0.0, -0.5))
        kinks = fh.detect_kinks(wc)
        assert len(kinks) == 8
        r = SQRT2
        scale = 1.0 / (1.0 - r ** -4.0)
        for k in kinks:
            # normal pi/2 - j*pi/4 (mod pi, antipodes share the edge family)
            j = round((math.pi / 2 - k.angle) / (math.pi / 4)) % 4
            j = j if j else 4
            assert k.jump == pytest.approx(scale * r ** -j, abs=0.01)
            assert k.right - k.left == pytest.approx(k.jump)


class TestExtractPolygon:
    def test_unit_square(self, square_width):
        poly = fh.extract_polygon(square_width)
        assert poly.method == "kinks"
        assert len(poly) == 4
        expected = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        order = np.argsort(np.arctan2(*(poly.vertices - 0.5).T[::-1]))
        got = poly.vertices[order]
        exp_order = np.argsort(np.arctan2(*(expected - 0.5).T[::-1]))
        assert np.allclose(got, expected[exp_order], atol=1e-3)

    def test_segment_degenerate(self, segment_ifs):
        w = fh.solve_width(segment_ifs, 4096, 1e-8)
        poly = fh.extract_polygon(w)
        assert len(poly) == 2
        assert cyclic_match(np.sort(poly.vertices, axis=0),
                            [[0.0, 0.0], [1.0, 0.0]], tol=1e-3)

    def test_twindragon_octagon(self, twindragon_width):
        poly = fh.extract_polygon(twindragon_width)
        assert len(poly) == 8
        assert fh.polygon_area(poly) == pytest.approx(5.0 / 3.0, abs=1e-3)
        assert fh.polygon_perimeter(poly) == pytest.approx(2 * (SQRT2 + 1), abs=1e-3)

    def test_disk_falls_back_to_dense(self):
        w = disk_width()
        poly = fh.extract_polygon(w)
        assert poly.method == "dense"
        assert len(poly) >= 3
        radii = np.linalg.norm(poly.vertices, axis=1)
        assert np.all(np.abs(radii - 1.0) <= 1e-3)

    def test_point_attractor_at_base(self):
        # radius and slack are 0, so merge_tol is 0 and the thinning keeps
        # one of the equal supporting points without dividing by it
        w = fh.solve_width(fh.validate_ifs([(np.zeros((2, 2)), (0.0, 0.0))]), 1024, 1e-8)
        assert w.radius == 0.0 and w.slack == 0.0
        poly = fh.extract_polygon(w)
        assert poly.vertices.tolist() == [[0.0, 0.0]]
        assert poly.outer_slack == 0.0

    def test_half_disk_single_kink_keeps_edge(self):
        # upper half-disk seen from the middle of its flat edge: one kink, at
        # 3 pi/2, whose edge runs between the corners (-1, 0) and (1, 0)
        grid = fh.DirectionGrid(4096)
        a = grid.angles
        values = np.where(np.sin(a) >= 0.0, 1.0, np.abs(np.cos(a)))
        w = width_samples(grid, (0, 0), values, 0.0, math.pi / grid.n)
        assert len(fh.detect_kinks(w)) == 1
        poly = fh.extract_polygon(w)
        assert poly.method == "kinks"
        assert fh.polygon_area(poly) == pytest.approx(math.pi / 2, abs=1e-4)
        assert polygon_support(poly, 1.5 * math.pi)[0] == pytest.approx(0.0, abs=1e-4)

    def test_polygon_width_consistency(self, twindragon_width):
        poly = fh.extract_polygon(twindragon_width)
        w = twindragon_width
        sup = polygon_support(poly, w.grid.angles)
        tol = w.iter_error + w.interp_slack + poly.outer_slack
        assert np.max(np.abs(sup - w.values)) <= tol

    def test_cloud_inside_dilated_polygon(self, twindragon_width, twindragon_cloud):
        poly = fh.extract_polygon(twindragon_width)
        angles = np.linspace(0, 2 * math.pi, 512, endpoint=False)
        sup = polygon_support(poly, angles)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        proj = (twindragon_cloud - poly.base) @ dirs.T
        assert np.all(proj.max(axis=0) <= sup + poly.outer_slack + 1e-4)

    def test_base_outside_hull(self):
        # the three-map square moved to (2, 2): its hull, the triangle
        # (4, 4), (5, 4), (4, 5), lies wholly away from the origin base
        w = fh.solve_width(fh.validate_ifs(SHIFTED_TRIANGLE), 4096, 1e-8)
        assert float(w.values.min()) < -5.0
        poly = fh.extract_polygon(w)
        assert cyclic_match(poly.vertices, [[4.0, 4.0], [5.0, 4.0], [4.0, 5.0]],
                            tol=poly.outer_slack)
        slack = poly.outer_slack
        assert fh.polygon_area(poly) == pytest.approx(
            0.5, abs=fh.polygon_perimeter(poly) * slack + math.pi * slack ** 2)


def rotation(angle):
    return np.array([[math.cos(angle), -math.sin(angle)],
                     [math.sin(angle), math.cos(angle)]])


@st.composite
def planar_maps(draw):
    """1-4 maps ``c R(a) diag(1, s) R(b)`` with translations in [-2, 2]^2;
    ``s = 0`` makes a map rank one.  The origin is outside most of their
    hulls."""
    maps = []
    for _ in range(draw(st.integers(1, 4))):
        c = draw(st.floats(0.1, 0.85))
        s = draw(st.one_of(st.just(0.0), st.floats(0.05, 1.0)))
        a = (c * rotation(draw(st.floats(0.0, TWO_PI))) @ np.diag([1.0, s])
             @ rotation(draw(st.floats(0.0, TWO_PI))))
        maps.append((a, (draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))))
    return maps


def word_images(ifs, length):
    """Images of the maps' fixed points under every word of up to ``length``
    maps: exact points of the attractor."""
    a = np.stack([m.a for m in ifs.maps])
    t = np.stack([m.t for m in ifs.maps])
    pts = np.stack([fh.map_fixed_point(m) for m in ifs.maps])
    out = [pts]
    for _ in range(length):
        pts = (np.einsum("kij,pj->kpi", a, pts) + t[:, None, :]).reshape(-1, 2)
        out.append(pts)
    return np.concatenate(out)


class TestAnyBase:
    # The base of a width function need not lie in the hull: the origin is
    # outside most of these systems' hulls.  Rounding allowance: a vertex is
    # base + h u + h' u_perp, whose derivative stencils divide sums of values
    # by the grid step, so it carries rounding of order eps * n * R; 1e-9
    # relative to the attractor's scale covers that many times over.
    @settings(max_examples=80, deadline=None)
    @given(maps=planar_maps())
    @example(maps=SHIFTED_TRIANGLE)
    @example(maps=DROPPED_TIP)
    def test_word_images_within_outer_slack(self, maps):
        ifs = fh.validate_ifs(maps)
        w = fh.solve_width(ifs, 1024, 1e-8)
        poly = fh.extract_polygon(w)
        pts = word_images(ifs, 5)
        scale = max(1.0, float(np.max(np.abs(pts))))
        allowance = 1e-9 * scale
        assert np.max(distance_to_polygon(poly.vertices, pts)) <= (
            poly.outer_slack + allowance)
        # the same hull, read off around a base inside it
        centroid = np.mean([fh.map_fixed_point(m) for m in ifs.maps], axis=0)
        inner = fh.extract_polygon(fh.rebase_width(w, centroid))
        both = poly.outer_slack + inner.outer_slack + allowance
        assert np.max(distance_to_polygon(inner.vertices, poly.vertices)) <= both
        assert np.max(distance_to_polygon(poly.vertices, inner.vertices)) <= both

    # Cauchy's formula: the perimeter of a convex body (twice the length of
    # a segment) is the integral of its support function over the angles,
    # whatever the base.  The polygon lies in the hull dilated by
    # outer_slack and the values exceed the hull's support by at most bound,
    # so the two integrals differ by at most 2 pi (outer_slack + bound); the
    # last two terms allow for the step-sum quadrature of the polygon's
    # support and of the values.
    @settings(max_examples=40, deadline=None)
    @given(maps=planar_maps(), n=st.sampled_from([256, 1024, 4096]))
    @example(maps=DROPPED_TIP, n=1024)
    @example(maps=SHIFTED_TRIANGLE, n=256)
    def test_perimeter_matches_cauchy(self, maps, n):
        w = fh.solve_width(fh.validate_ifs(maps), n, 1e-8)
        poly = fh.extract_polygon(w)
        perimeter = fh.polygon_perimeter(poly)
        step = w.grid.step
        allowance = (TWO_PI * (poly.outer_slack + w.bound) + perimeter * step ** 2 / 4
                     + TWO_PI * fh.circumradius(w) * step ** 2 / 8)
        assert abs(perimeter - step * float(np.sum(w.values))) <= allowance


class TestRoundTrip:
    # extraction applied to the exact width samples of a polygon returns it
    @pytest.mark.parametrize("vertices", [
        [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        [[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]],
        [[2.0, 0.0], [1.0, 2.0], [-1.5, 1.0], [-2.0, -1.0], [0.5, -2.0]],
    ])
    def test_idempotent(self, vertices):
        source = polygon_from_vertices(vertices)
        w = polygon_samples(source, fh.DirectionGrid(4096))
        out = fh.extract_polygon(w)
        assert len(out) == len(source.vertices)
        angles = np.linspace(0, 2 * math.pi, 720, endpoint=False)
        got = polygon_support(out, angles)
        want = polygon_support(source, angles)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 2e-3 * scale

    def test_square_jump_equals_edge_length(self):
        source = polygon_from_vertices(
            [[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]])
        w = polygon_samples(source, fh.DirectionGrid(4096))
        kinks = fh.detect_kinks(w)
        assert len(kinks) == 4
        for k in kinks:
            assert k.jump == pytest.approx(2.0, abs=8 * 2.0 / 4096 * 2 * math.pi)


class TestPolygonMeasures:
    def test_unit_square(self):
        p = polygon_from_vertices([[0, 0], [1, 0], [1, 1], [0, 1]])
        assert fh.polygon_area(p) == pytest.approx(1.0)
        assert fh.polygon_perimeter(p) == pytest.approx(4.0)

    def test_segment(self):
        p = fh.HullPolygon(np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros(2))
        assert len(p) < 3
        assert fh.polygon_area(p) == 0.0
        assert fh.polygon_perimeter(p) == pytest.approx(2.0)

    def test_measures_of_coordinates_beyond_squares_range(self):
        # edges of about 1e160, whose squares overflow, and the square
        # [1e154, 2e154]^2 (area 1e308), whose shoelace products overflow;
        # the hull of the maps 0.5 x + t, t in {0, (1e160, 0), (0, 1e160)},
        # has a finite perimeter and an area (about 2e320) beyond float range
        p = polygon_from_vertices([[0.0, 0.0], [2e160, 0.0], [0.0, 2e160]])
        assert fh.polygon_perimeter(p) == pytest.approx(2e160 * (2.0 + SQRT2), rel=1e-15)
        p = polygon_from_vertices(np.array([[1.0, 1.0], [2.0, 1.0], [2.0, 2.0], [1.0, 2.0]]) * 1e154)
        assert fh.polygon_area(p) == pytest.approx(1e308, rel=1e-14)
        maps = [(0.5 * np.eye(2), t) for t in ((0.0, 0.0), (1e160, 0.0), (0.0, 1e160))]
        poly = fh.extract_polygon(fh.solve_width(fh.validate_ifs(maps), 4096, 1e154))
        assert fh.polygon_perimeter(poly) == pytest.approx(
            2e160 * (2.0 + SQRT2), abs=TWO_PI * poly.outer_slack)
        assert fh.polygon_area(poly) == math.inf

    @pytest.mark.parametrize("vertices", [np.zeros((0, 2)), np.array([[0.3, -2.0]])],
                             ids=["empty", "point"])
    def test_fewer_than_two_vertices(self, vertices):
        p = fh.HullPolygon(vertices, np.zeros(2))
        assert fh.polygon_perimeter(p) == 0.0
        assert fh.polygon_area(p) == 0.0

    def test_json_export(self):
        p = polygon_from_vertices([[0, 0], [1, 0], [0.5, 1]], base=(0.5, 0.25))
        text = fh.polygon_json(p)
        assert text == fh.polygon_json(p)
        doc = json.loads(text)
        assert doc["base"] == [0.5, 0.25]
        assert doc["vertices"] == [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]


def reference_chain(points):
    """Andrew's monotone chain over numpy rows, as an oracle."""
    pts = np.unique(points, axis=0)
    if pts.shape[0] <= 2:
        return pts

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0.0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = build(pts)
    upper = build(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    return np.array(hull) if len(hull) >= 2 else pts[:1]


@st.composite
def lattice_walks(draw):
    """A walk on the lattice (Z/8)^2 with steps of at most 2/8 per axis,
    optionally closed by a point next to its start.

    Steps shorter than the tolerance make runs in which the last kept point
    lies several points back; the closing point exercises the wrap-around
    test; zero steps give duplicates, and a walk back and forth has a path
    length well above its distance.
    """
    start = draw(st.tuples(st.integers(-8, 8), st.integers(-8, 8)))
    steps = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                          max_size=40))
    pts = np.array([start] + steps, dtype=float).cumsum(axis=0)
    if draw(st.booleans()):
        near = draw(st.tuples(st.integers(-1, 1), st.integers(-1, 1)))
        pts = np.vstack([pts, pts[0] + near])
    return pts / 8.0


def reference_thin(points, tol):
    """Thinning by path length with one scalar running sum per point, as
    the oracle of the points ``_thin_by_path`` keeps: the steps are the same
    ``np.hypot`` values, added in the same order, so the sums agree bitwise."""
    if points.shape[0] == 0:
        return points
    steps = np.hypot(points[1:, 0] - points[:-1, 0], points[1:, 1] - points[:-1, 1])
    keep = [0]
    total = start = 0.0
    for i, step in enumerate(steps.tolist(), 1):
        total += step
        if total > start + tol:
            keep.append(i)
            start = total
    x0, y0 = points[0].tolist()
    x1, y1 = points[keep[-1]].tolist()
    if len(keep) > 1 and math.hypot(x0 - x1, y0 - y1) <= tol:
        keep.pop()
    return points[keep]


def reference_kinks(w):
    """``detect_kinks`` with a Python loop over the flagged nodes and scalar
    stencils per cluster, as the oracle of its bits."""
    threshold = _jump_threshold(w)
    v = w.values
    n = w.grid.n
    step = w.grid.step
    mass = (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / step
    flagged = np.nonzero(mass > threshold)[0]
    if flagged.size == 0:
        return ()
    groups = [[int(flagged[0])]]
    for g in flagged[1:].tolist():
        if g == groups[-1][-1] + 1:
            groups[-1].append(g)
        else:
            groups.append([g])
    if len(groups) > 1 and groups[0][0] == 0 and groups[-1][-1] == n - 1:
        groups[0] = groups.pop() + groups[0]
    kinks = []
    for grp in groups:
        gl, gr = grp[0], grp[-1]
        left = float((11.0 * v[gl] - 18.0 * v[(gl - 1) % n] + 9.0 * v[(gl - 2) % n]
                      - 2.0 * v[(gl - 3) % n]) / (6.0 * step))
        right = float((-11.0 * v[gr] + 18.0 * v[(gr + 1) % n] - 9.0 * v[(gr + 2) % n]
                       + 2.0 * v[(gr + 3) % n]) / (6.0 * step))
        jump = right - left
        if jump <= threshold:
            continue
        weights = np.array([max(float(mass[g % n]), 0.0) for g in grp])
        rel = np.array([((g - gl) % n) * step for g in grp])
        angle = (w.grid.angles[gl % n] + float(rel @ weights / weights.sum())) % TWO_PI
        kinks.append(fh.Kink(float(angle), left, right, float(jump)))
    kinks.sort(key=lambda k: k.angle)
    return tuple(kinks)


def kink_bits(kinks):
    return [tuple(float(x).hex() for x in (k.angle, k.left, k.right, k.jump))
            for k in kinks]


def reference_extract(w):
    """``extract_polygon`` with scalar arithmetic and one ``eval_width`` call
    per kink, and the scalar path-length thinning, as the oracle of its
    bytes."""
    ks = fh.detect_kinks(w)
    merge_tol = 8.0 * (w.iter_error + w.interp_slack)
    dirs = w.grid.directions
    perps = np.stack([-dirs[:, 1], dirs[:, 0]], axis=1)
    support = w.base + w.values[:, None] * dirs + _node_derivatives(w)[:, None] * perps
    pieces = [] if ks else [support]
    for i, k in enumerate(ks):
        u = np.array([math.cos(k.angle), math.sin(k.angle)])
        uperp = np.array([-u[1], u[0]])
        h = fh.eval_width(w, k.angle)
        pieces += [(w.base + h * u + k.left * uperp)[None, :],
                   (w.base + h * u + k.right * uperp)[None, :]]
        nxt = ks[(i + 1) % len(ks)].angle
        theta1 = nxt if nxt > k.angle else nxt + TWO_PI
        g0 = math.ceil(k.angle / w.grid.step) + 2
        g1 = math.floor(theta1 / w.grid.step) - 2
        if g1 >= g0:
            pieces.append(support[np.arange(g0, g1 + 1) % w.grid.n])
    candidates = reference_thin(np.concatenate(pieces), merge_tol)
    return _monotone_chain(candidates)


def nudge(x, ulps):
    """``x`` moved by ``ulps`` units in the last place (down when negative)."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else -math.inf)
    return x


@st.composite
def long_runs(draw):
    """Hundreds of points on the lattice (2^-10 Z)^2, mostly in long runs
    within the tolerance of the last kept point, and the tolerance.

    Each step stays put, moves a little (at most a quarter of the radius L
    per axis), moves exactly L along an axis, or jumps up to 4 L.  Lattice
    differences are exact, so an axis step of L is at distance exactly L,
    and the tolerance is L moved by -2 to 2 ulps: such points sit 0, 1 or 2
    ulps from it, on either side.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(100, 1200))
    radius = draw(st.integers(1, 64))
    p_stay = draw(st.sampled_from([0.5, 0.9, 0.99]))
    rest = (1.0 - p_stay) / 3.0
    kind = rng.choice(4, size=size, p=[p_stay, rest, rest, rest])
    steps = np.zeros((size, 2), dtype=np.int64)
    small = kind == 1
    steps[small] = rng.integers(-(radius // 4), radius // 4 + 1, (small.sum(), 2))
    axis = np.flatnonzero(kind == 2)
    steps[axis, rng.integers(0, 2, axis.size)] = radius * rng.choice([-1, 1], axis.size)
    jump = kind == 3
    steps[jump] = rng.integers(-4 * radius, 4 * radius + 1, (jump.sum(), 2))
    points = steps.cumsum(axis=0) * 2.0**-10
    tol = nudge(radius * 2.0**-10, draw(st.integers(-2, 2)))
    return points, tol


class TestExtractionHelpers:
    @settings(max_examples=200, deadline=None)
    @given(points=lattice_walks(), odd=st.integers(0, 5))
    @example(points=np.array([[0.0, 0.0], [0.125, 0.0], [0.25, 0.0], [0.375, 0.0]]),
             odd=2)
    @example(points=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.125, 0.0]]),
             odd=2)
    @example(points=np.empty((0, 2)), odd=0)
    def test_dedup_matches_reference(self, points, odd):
        tol = (2 * odd + 1) / 16.0
        got = points[_thin_by_path(points, tol)]
        assert np.array_equal(got, reference_thin(points, tol))

    @settings(max_examples=40, deadline=None)
    @given(maps=planar_maps(), n=st.sampled_from([1024, 4096]))
    @example(maps=SHIFTED_TRIANGLE, n=4096)
    def test_extract_matches_per_kink_reference(self, maps, n):
        w = fh.solve_width(fh.validate_ifs(maps), n, 1e-8)
        assert fh.extract_polygon(w).vertices.tobytes() == reference_extract(w).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(maps=planar_maps(), n=st.sampled_from([1024, 4096]))
    @example(maps=SHIFTED_TRIANGLE, n=4096)
    @example(maps=DROPPED_TIP, n=1024)
    def test_kinks_match_scalar_reference(self, maps, n):
        w = fh.solve_width(fh.validate_ifs(maps), n, 1e-8)
        assert kink_bits(fh.detect_kinks(w)) == kink_bits(reference_kinks(w))

    def test_kinks_of_fixed_shapes_match_scalar_reference(self, square_centered,
                                                          twindragon_width):
        # the centred square's kinks sit on nodes; turned by half a cell, its
        # kink near angle 0 flags nodes n - 1 and 0, so that run wraps; the
        # half-disk has one kink; the disk has none
        grid = fh.DirectionGrid(4096)
        a = grid.angles
        half_disk = width_samples(grid, (0, 0), np.where(
            np.sin(a) >= 0.0, 1.0, np.abs(np.cos(a))), 0.0, math.pi / grid.n)
        turned = polygon_from_vertices(
            np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]])
            @ rotation(-math.pi / grid.n).T)
        wrapping = polygon_samples(turned, grid)
        cases = [disk_width(), square_centered, twindragon_width,
                 fh.rebase_width(twindragon_width, (0.0, -0.5)), half_disk, wrapping]
        for w in cases:
            assert kink_bits(fh.detect_kinks(w)) == kink_bits(reference_kinks(w))
        v = wrapping.values
        mass = (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / grid.step
        assert mass[-1] > _jump_threshold(wrapping) and mass[0] > _jump_threshold(wrapping)
        assert len(fh.detect_kinks(wrapping)) == 4

    @settings(max_examples=150, deadline=None)
    @given(case=long_runs())
    def test_dedup_long_runs_match_hypot_scan(self, case):
        points, tol = case
        got = points[_thin_by_path(points, tol)]
        assert np.array_equal(got, reference_thin(points, tol))

    @settings(max_examples=200, deadline=None)
    @given(case=st.one_of(
        st.tuples(lattice_walks(), st.sampled_from([0.0, 1 / 16, 3 / 16, 11 / 16])),
        long_runs()))
    @example(case=(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.4], [0.0, 0.8]]), 0.5))
    @example(case=(np.zeros((5, 2)), 0.0))
    @example(case=(np.empty((0, 2)), 0.25))
    def test_thinning_guarantee(self, case):
        # kept indices rise from 0, consecutive kept points lie more than
        # tol apart along the path, and every point lies within tol of the
        # kept point before it; after the last kept point a dropped last
        # one may stand between, so those lie within 2 tol of point 0
        points, tol = case
        n = points.shape[0]
        keep = np.array(_thin_by_path(points, tol), dtype=np.intp)
        if n == 0:
            assert keep.size == 0
            return
        assert keep[0] == 0 and np.all(np.diff(keep) > 0)
        length = np.append(0.0, np.cumsum(np.hypot(*np.diff(points, axis=0).T)))
        assert np.all(length[keep[1:]] > length[keep[:-1]] + tol)
        rounding = 4.0 * n * np.finfo(float).eps * (length[-1] + tol)
        before = keep[np.searchsorted(keep, np.arange(n), side="right") - 1]
        near = np.hypot(*(points - points[before]).T) <= tol + rounding
        assert near[:keep[-1]].all()
        home = np.hypot(*(points - points[0]).T) <= 2.0 * tol + rounding
        assert (near | home)[keep[-1]:].all()

    @pytest.mark.parametrize("ulps", [-2, -1, 0, 1, 2])
    def test_dedup_point_ulps_from_tol(self, ulps):
        # copies of the origin with one point at distance exactly tol moved
        # by ``ulps`` ulps, at every index: kept iff that distance exceeds
        # tol; the origin after it, if kept, is dropped at the wrap
        tol = 0.1
        far = nudge(tol, ulps)
        for at in range(1, 400):
            points = np.zeros((400, 2))
            points[at] = (0.0, far)
            got = points[_thin_by_path(points, tol)]
            assert np.array_equal(got, reference_thin(points, tol))
            assert got.shape[0] == (2 if far > tol else 1)

    @pytest.mark.parametrize("ulps", [-2, -1, 0, 1, 2])
    def test_dedup_wraps_at_tol(self, ulps):
        # the last kept point is dropped iff it lies within tol of the first
        tol = 0.5
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, nudge(tol, ulps)]])
        got = points[_thin_by_path(points, tol)]
        assert np.array_equal(got, reference_thin(points, tol))
        assert got.shape[0] == (3 if ulps > 0 else 2)

    def test_support_shortfall_matches_polygon_width(self):
        rng = np.random.default_rng(5)
        for count in (1, 2, 3, 7, 40):
            pts = rng.normal(size=(count, 2))
            if count == 2:
                pts[1] = pts[0] + (1.0, 0.0)  # a horizontal segment
            verts = _monotone_chain(pts)
            grid = fh.DirectionGrid(256)
            w = width_samples(grid, rng.normal(size=2), rng.uniform(-1, 3, 256), 0.0, 0.0)
            width = polygon_support(polygon_from_vertices(verts, w.base), grid.angles)
            assert _support_shortfall(verts, w) == pytest.approx(
                np.max(w.values - width), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(lattice=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                            max_size=30),
           free=st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
                         max_size=10))
    @example(lattice=[(0, 0), (1, 1), (2, 2), (3, 3), (1, 1)], free=[])
    def test_monotone_chain_matches_reference(self, lattice, free):
        # small lattices are full of collinear triples and repeated points
        points = np.array(lattice + free, dtype=float).reshape(-1, 2)
        got = _monotone_chain(points)
        assert np.array_equal(got, reference_chain(points))
