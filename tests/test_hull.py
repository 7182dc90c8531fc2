import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fractalhull as fh
from conftest import disk_width
from fractalhull.hull import _dedup_cyclic, _monotone_chain

SQRT2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi
# three of the unit square's four maps, moved so the attractor's hull is the
# triangle (4, 4), (5, 4), (4, 5), far from the origin
SHIFTED_TRIANGLE = [(0.5 * np.eye(2), t) for t in ((2.0, 2.0), (2.5, 2.0), (2.0, 2.5))]


def polygon_from_vertices(vertices, base=(0.0, 0.0)):
    return fh.HullPolygon(np.asarray(vertices, dtype=float),
                          np.asarray(base, dtype=float))


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

    def test_explicit_threshold_filters(self, twindragon_width):
        wc = fh.rebase_width(twindragon_width, (0.0, -0.5))
        kept = [k for k in fh.detect_kinks(wc) if k.jump > 0.5]
        assert len(fh.detect_kinks(wc, jump_threshold=0.5)) == len(kept)


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
        assert poly.degenerate
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
        assert not poly.degenerate
        radii = np.linalg.norm(poly.vertices, axis=1)
        assert np.all(np.abs(radii - 1.0) <= 1e-3)

    def test_half_disk_single_kink_keeps_edge(self):
        # upper half-disk seen from the middle of its flat edge: one kink, at
        # 3 pi/2, whose edge runs between the corners (-1, 0) and (1, 0)
        grid = fh.DirectionGrid(4096)
        a = grid.angles
        values = np.where(np.sin(a) >= 0.0, 1.0, np.abs(np.cos(a)))
        w = fh.make_width_samples(grid, (0, 0), values, 0.0, math.pi / grid.n)
        assert len(fh.detect_kinks(w)) == 1
        poly = fh.extract_polygon(w)
        assert poly.method == "kinks"
        assert fh.polygon_area(poly) == pytest.approx(math.pi / 2, abs=1e-4)
        assert fh.polygon_width(poly, 1.5 * math.pi)[0] == pytest.approx(0.0, abs=1e-4)

    def test_polygon_width_consistency(self, twindragon_width):
        poly = fh.extract_polygon(twindragon_width)
        w = twindragon_width
        sup = fh.polygon_width(poly, w.grid.angles)
        tol = w.iter_error + w.interp_slack + poly.outer_slack
        assert np.max(np.abs(sup - w.values)) <= tol

    def test_cloud_inside_dilated_polygon(self, twindragon_width, twindragon_cloud):
        poly = fh.extract_polygon(twindragon_width)
        angles = np.linspace(0, 2 * math.pi, 512, endpoint=False)
        sup = fh.polygon_width(poly, angles)
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


def distance_to_polygon(vertices, points):
    """Distance from each point to a convex polygon with counterclockwise
    vertices (0 inside), or to the segment or point that fewer than three
    vertices describe."""
    a = vertices
    ab = np.roll(vertices, -1, axis=0) - a
    den = np.maximum(np.sum(ab * ab, axis=1), np.finfo(float).tiny)
    out = np.empty(len(points))
    for lo in range(0, len(points), 256):
        ap = points[lo:lo + 256, None, :] - a[None]
        s = np.clip(np.einsum("pkd,kd->pk", ap, ab) / den, 0.0, 1.0)
        d = np.linalg.norm(ap - s[..., None] * ab, axis=2).min(axis=1)
        if len(a) >= 3:
            cross = ab[:, 0] * ap[..., 1] - ab[:, 1] * ap[..., 0]
            d[np.all(cross >= 0.0, axis=1)] = 0.0
        out[lo:lo + 256] = d
    return out


class TestAnyBase:
    # The base of a width function need not lie in the hull: the origin is
    # outside most of these systems' hulls.  Rounding allowance: a vertex is
    # base + h u + h' u_perp, whose derivative stencils divide sums of values
    # by the grid step, so it carries rounding of order eps * n * R; 1e-9
    # relative to the attractor's scale covers that many times over.
    @settings(max_examples=80, deadline=None)
    @given(maps=planar_maps())
    @example(maps=SHIFTED_TRIANGLE)
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


class TestRoundTrip:
    # extraction applied to the exact width samples of a polygon returns it
    @pytest.mark.parametrize("vertices", [
        [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        [[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]],
        [[2.0, 0.0], [1.0, 2.0], [-1.5, 1.0], [-2.0, -1.0], [0.5, -2.0]],
    ])
    def test_idempotent(self, vertices):
        source = polygon_from_vertices(vertices)
        w = fh.polygon_width_samples(source, fh.DirectionGrid(4096))
        out = fh.extract_polygon(w)
        assert len(out) == len(source.vertices)
        angles = np.linspace(0, 2 * math.pi, 720, endpoint=False)
        got = fh.polygon_width(out, angles)
        want = fh.polygon_width(source, angles)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 2e-3 * scale

    def test_square_jump_equals_edge_length(self):
        source = polygon_from_vertices(
            [[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]])
        w = fh.polygon_width_samples(source, fh.DirectionGrid(4096))
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
        p = fh.HullPolygon(np.array([[0.0, 0.0], [1.0, 0.0]]),
                           np.zeros(2), degenerate=True)
        assert fh.polygon_area(p) == 0.0
        assert fh.polygon_perimeter(p) == pytest.approx(2.0)

    def test_json_export(self):
        p = polygon_from_vertices([[0, 0], [1, 0], [0.5, 1]], base=(0.5, 0.25))
        text = fh.polygon_json(p)
        assert text == fh.polygon_json(p)
        doc = json.loads(text)
        assert doc["base"] == [0.5, 0.25]
        assert doc["vertices"] == [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]


def reference_dedup(points, tol):
    """Cyclic de-duplication with one numpy norm per point, as an oracle."""
    if points.shape[0] == 0:
        return points
    kept = [points[0]]
    for p in points[1:]:
        if np.linalg.norm(p - kept[-1]) > tol:
            kept.append(p)
    if len(kept) > 1 and np.linalg.norm(kept[0] - kept[-1]) <= tol:
        kept.pop()
    return np.array(kept)


def reference_chain(points, eps_cross):
    """Andrew's monotone chain over numpy rows, as an oracle."""
    pts = np.unique(points, axis=0)
    if pts.shape[0] <= 2:
        return pts

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= eps_cross:
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
    test; zero steps give duplicates.  Squared lattice distances are
    multiples of 1/64 and the tolerances odd multiples of 1/16, so no
    distance is within rounding of the tolerance.
    """
    start = draw(st.tuples(st.integers(-8, 8), st.integers(-8, 8)))
    steps = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                          max_size=40))
    pts = np.array([start] + steps, dtype=float).cumsum(axis=0)
    if draw(st.booleans()):
        near = draw(st.tuples(st.integers(-1, 1), st.integers(-1, 1)))
        pts = np.vstack([pts, pts[0] + near])
    return pts / 8.0


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
        got = _dedup_cyclic(points, tol)
        assert np.array_equal(got, reference_dedup(points, tol))

    @settings(max_examples=200, deadline=None)
    @given(lattice=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                            max_size=30),
           free=st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
                         max_size=10),
           eps_cross=st.sampled_from([0.0, 1e-12, 0.25, 1.0]))
    @example(lattice=[(0, 0), (1, 1), (2, 2), (3, 3), (1, 1)], free=[], eps_cross=0.0)
    def test_monotone_chain_matches_reference(self, lattice, free, eps_cross):
        # small lattices are full of collinear triples and repeated points
        points = np.array(lattice + free, dtype=float).reshape(-1, 2)
        got = _monotone_chain(points, eps_cross)
        assert np.array_equal(got, reference_chain(points, eps_cross))
