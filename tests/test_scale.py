"""Scale covariance of the numeric API.

The width equation ``h(d) = max_i [ |A_i^T d| h(dir(A_i^T d)) + t_i^T d ]``
is homogeneous in the translations, and no threshold of the solver, the
extraction or the queries is absolute.  So scaling every translation by
s = 2**k scales every width value, error term, vertex, slack and distance
by exactly s, and leaves every answer as it was, bit for bit, as long as
products of coordinates stay in the normal range.  Translations here lie on
the grid (2**-6 Z)^2 within [-2, 2]^2, and every nonzero matrix entry is at
least 2**-100 in magnitude, so at |k| <= 200 they do.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fractalhull as fh
from conftest import distance_to_polygon
from test_width import ITEM_1

TOL = 1e-6
# the square [0, 2]^2: a shared similarity, solved from the circulant start
SQUARE = [(0.5 * np.eye(2), (float(x), float(y))) for x in (0, 1) for y in (0, 1)]
TWINDRAGON = [(m.a, m.t) for m in fh.complex_base_ifs(1 + 1j, 2).maps]
# angles off the grid, for eval_width
ANGLES = np.array([0.1, 1.0, 2.5, 4.0, 6.2])


def rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


@st.composite
def dyadic_maps(draw):
    """1-3 maps ``c R(a) diag(1, r) R(b)``, c <= 0.6 (so a query walk stays
    shallow), with translations on the grid (2**-6 Z)^2 within [-2, 2]^2.
    An entry below 2**-100 in magnitude (a tiny angle gives one) is set to
    0: times a scaled coordinate it would leave the normal range, where
    products round on an absolute grid and cannot scale exactly."""
    maps = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(st.floats(0.1, 0.6))
        r = draw(st.one_of(st.just(0.0), st.floats(0.05, 1.0)))
        a = (c * rotation(draw(st.floats(0.0, 2 * math.pi))) @ np.diag([1.0, r])
             @ rotation(draw(st.floats(0.0, 2 * math.pi))))
        a[np.abs(a) < 2.0**-100] = 0.0
        t = draw(st.tuples(st.integers(-128, 128), st.integers(-128, 128)))
        maps.append((a, np.array(t, dtype=float) / 64.0))
    return maps


def scaled(maps, s):
    return fh.validate_ifs([(a, s * np.asarray(t, dtype=float)) for a, t in maps])


def same(got, want):
    """Equal bit for bit (arrays or floats)."""
    return np.asarray(got).tobytes() == np.asarray(want, dtype=float).tobytes()


@settings(max_examples=200, deadline=None)
@given(maps=st.one_of(dyadic_maps(), st.just(TWINDRAGON)),
       k=st.integers(-200, 200), n=st.sampled_from([256, 2048]))
@example(maps=SQUARE, k=-24, n=1024)
def test_power_of_two_scaling_commutes(maps, k, n):
    s = 2.0**k
    ifs, big = scaled(maps, 1.0), scaled(maps, s)

    # the solve: values and error terms scale, the sweeps do not change
    w, ws = fh.solve_width(ifs, n, TOL), fh.solve_width(big, n, s * TOL)
    assert same(ws.values, s * w.values)
    assert same(ws.iter_error, s * w.iter_error)
    assert same(ws.interp_slack, s * w.interp_slack)
    assert ws.iterations == w.iterations
    assert same(fh.circumradius(ws), s * fh.circumradius(w))
    assert same(fh.eval_width(ws, ANGLES), s * fh.eval_width(w, ANGLES))

    # the polygon and its measures
    p, ps = fh.extract_polygon(w), fh.extract_polygon(ws)
    assert same(ps.vertices, s * p.vertices)
    assert same(ps.outer_slack, s * p.outer_slack)
    assert ps.method == p.method
    assert same(fh.polygon_area(ps), s * s * fh.polygon_area(p))
    assert same(fh.polygon_perimeter(ps), s * fh.polygon_perimeter(p))

    # sampling, and membership of points inside and outside the hull
    cloud = fh.chaos_game_sample(ifs, 64, 3).points
    assert same(fh.chaos_game_sample(big, 64, 3).points, s * cloud)
    probes = np.vstack([cloud[:16], 1.5 * cloud[:16] - 0.25, p.vertices])
    for slack in (0.0, w.interp_slack):
        assert np.array_equal(fh.hull_contains(ws, s * probes, s * slack),
                              fh.hull_contains(w, probes, slack))

    # queries: the same hit, completeness and depth at s x and s l
    # (a point attractor at its base has radius 0: its thresholds are 2**-6)
    ctx, ctxs = fh.build_context(ifs, w), fh.build_context(big, ws)
    for x in probes[::3]:
        for l in (0.2 * max(ctx.radius, 2.0**-6), 0.05 * max(ctx.radius, 2.0**-6)):
            a, b = fh.near1(ctx, x, l), fh.near1(ctxs, s * x, s * l)
            assert (b.hit, b.complete, b.depth) == (a.hit, a.complete, a.depth)
        for levels in (1, 3):
            a, b = fh.near(ctx, x, levels), fh.near(ctxs, s * x, levels)
            assert (b.hit, b.complete, b.depth) == (a.hit, a.complete, a.depth)

    # the shared-matrix series, with every translation against the first A
    a0, ts = maps[0][0], np.array([t for _, t in maps], dtype=float)
    assert same(fh.equal_maps_width(a0, s * ts, (1.0, 0.5), s * 1e-9),
                s * fh.equal_maps_width(a0, ts, (1.0, 0.5), 1e-9))


@pytest.mark.parametrize("k", [-900, -540, 520, 1000])
def test_far_scaled_twindragon_polygon_is_the_unit_polygon_scaled(k):
    # products of coordinates overflow beyond about 2**511 and lose bits to
    # subnormals below about 2**-511; there the chain works on coordinates
    # scaled into [-1, 1], so the polygon stays exact
    s = 2.0**k
    p = fh.extract_polygon(fh.solve_width(scaled(TWINDRAGON, 1.0), 1024, TOL))
    ps = fh.extract_polygon(fh.solve_width(scaled(TWINDRAGON, s), 1024, s * TOL))
    assert len(ps) == 8
    assert same(ps.vertices, s * p.vertices)
    assert same(ps.outer_slack, s * p.outer_slack)


# two maps that share no similarity: solved from the ball bound R0, whose
# norms square the translations, and on 4096 angles from a nested start
AFFINE = [(rotation(1.0) @ np.diag([0.6, -0.3]), (1.0, 0.25)),
          ([[0.5, -0.25], [0.125, 0.375]], (-0.5, 0.75))]
# c = 0.9903: extrapolated every 20 sweeps, from dot products of the steps
SLOW = [(m.a, m.t) for m in ITEM_1.maps]
FAR = [-900, -540, 520, 1000]


@pytest.mark.parametrize("maps,k", [(AFFINE, k) for k in FAR] + [(TWINDRAGON, 1016)]
                         + [(SLOW, k) for k in FAR],
                         ids=[f"affine-{k}" for k in FAR] + ["twindragon-1016"]
                         + [f"item-1-{k}" for k in FAR])
@pytest.mark.parametrize("n", [1024, 4096])
def test_far_scaled_solve_is_the_unit_solve_scaled(maps, k, n):
    # squares of the translations overflow beyond about 2**511 and lose
    # bits to subnormals below about 2**-511, the circulant start's FFT
    # sums n widths (2**1026 at 2**1016 and 1024 angles), and the
    # extrapolation's Gram matrix sums n products of steps: the ball bound,
    # the FFT and the Gram matrix are taken at unit scale, so the solve is
    # the unit solve scaled
    s = 2.0**k
    w, ws = fh.solve_width(scaled(maps, 1.0), n, TOL), fh.solve_width(scaled(maps, s), n, s * TOL)
    assert same(ws.values, s * w.values)
    assert same(ws.iter_error, s * w.iter_error)
    assert ws.iterations == w.iterations
    p, ps = fh.extract_polygon(w), fh.extract_polygon(ws)
    assert same(ps.vertices, s * p.vertices)
    assert same(ps.outer_slack, s * p.outer_slack)


@pytest.mark.parametrize("a,t", [
    (0.5 * np.eye(2), (1e308, 0.0)), (np.diag([0.5, 0.25]), (1e308, 0.0)),
    (0.5 * np.eye(2), (1.5e308, 1.5e308)), (np.zeros((2, 2)), (1.5e308, 1.5e308)),
], ids=["shared-similarity", "non-similarity", "shared-similarity-shifts", "zero-shifts"])
def test_widths_beyond_the_float_range_raise_before_any_sweep(a, t, monkeypatch):
    # the point attractors 2e308 (1, 0), 3e308 (1, 1) and 1.5e308 (1, 1)
    # have widths beyond the float range: the start overflows (for the last
    # two, from shifts t^T d that overflow as the plan is built), and the
    # solve says so before it sweeps
    sweeps = []
    apply = fh.width._OperatorPlan.apply
    monkeypatch.setattr(fh.width._OperatorPlan, "apply",
                        lambda plan, values: sweeps.append(1) or apply(plan, values))
    with pytest.raises(fh.FractalHullError, match="overflow the float range"):
        fh.solve_width(fh.validate_ifs([(a, t)]), 256, TOL)
    assert not sweeps


def test_huge_twindragon_extracts_a_certified_polygon():
    # at 2**520 extraction returns a polygon, and exact word images lie
    # within its outer_slack (measured at unit scale: dividing by s is exact)
    s = 2.0**520
    ifs = scaled(TWINDRAGON, s)
    poly = fh.extract_polygon(fh.solve_width(ifs, 1024, s * TOL))
    assert len(poly) >= 3 and math.isfinite(poly.outer_slack)
    a = np.stack([m.a for m in ifs.maps])
    t = np.stack([m.t for m in ifs.maps])
    pts = np.stack([fh.map_fixed_point(m) for m in ifs.maps])
    words = [pts]
    for _ in range(8):
        pts = (np.einsum("kij,pj->kpi", a, pts) + t[:, None, :]).reshape(-1, 2)
        words.append(pts)
    dist = distance_to_polygon(poly.vertices / s, np.concatenate(words) / s)
    assert np.max(dist) <= poly.outer_slack / s
