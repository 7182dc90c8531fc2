import cmath
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import fractalhull as fh
from conftest import distance_to_polygon, polygon_support
from fractalhull import cli
from fractalhull.analytic import _series_terms

SQRT2 = math.sqrt(2.0)
DENSE = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)


class TestComplexBaseSystem:
    @pytest.mark.parametrize("z,expected", [
        (1 + 1j, (1, 4)),
        (2 + 0j, (0, 1)),
        (2j, (1, 2)),
        (-2 + 0j, (1, 1)),
        (2 * complex(math.cos(math.pi / 3), math.sin(math.pi / 3)), (1, 3)),
    ])
    def test_detection(self, z, expected):
        assert fh.complex_base_system(z, 2).rational_angle == expected

    def test_golden_angle_is_irrational(self):
        phi = math.pi * (math.sqrt(5.0) - 1) / 2
        z = 2 * complex(math.cos(phi), math.sin(phi))
        assert fh.complex_base_system(z, 2).rational_angle is None

    def test_modulus_validated(self):
        with pytest.raises(fh.ValidationError):
            fh.complex_base_system(0.5 + 0.5j, 2)

    @pytest.mark.parametrize("z", [complex(math.inf, 0.0), complex(math.nan, 0.0),
                                   1e308 + 1e308j])
    def test_non_finite_base_rejected(self, z):
        with pytest.raises(fh.ValidationError, match="complex base needs a finite"):
            fh.complex_base_system(z, 2)

    def test_forced_irrational(self):
        sys_ = fh.ComplexBaseSystem(1 + 1j, 2)
        assert sys_.rational_angle is None
        assert sys_.phi == pytest.approx(math.pi / 4)


def series_terms(a, ts, tol):
    """The number of terms J :func:`fractalhull.equal_maps_width` sums, and
    the rounding allowance ``4 eps J max|t| / (1 - c)`` it states."""
    c, tmax = fh.operator_norm(a), float(np.max(np.linalg.norm(ts, axis=1)))
    terms = 1 if c * tmax <= tol * (1.0 - c) else _series_terms(tmax / c, 1.0 / c, tol)
    return terms, 4.0 * np.finfo(float).eps * terms * tmax / (1.0 - c)


def loop_equal_maps_width(a, ts, d, tol):
    """The series of :func:`fractalhull.equal_maps_width` summed one term at
    a time, ``h*(B^i u)`` with ``u = d / |d|`` rounded as the library rounds
    it, over the same number of terms. Every term and the sum are exact
    (integers over one power of two), and the total is rounded once: a float
    loop's own rounding, amplified where the terms cancel to near 0, would
    otherwise exceed the tolerance the library is held to."""
    a, ts, d = (np.asarray(x, dtype=float) for x in (a, ts, d))
    u = d / np.linalg.norm(d)
    terms = series_terms(a, ts, tol)[0]

    def scaled(x):
        # x = ints / den exactly, den the largest power-of-two denominator
        den = max(Fraction(v).denominator for v in x.flat)
        return [[int(Fraction(v) * den) for v in row] for row in x], den

    (b, bden), (t, tden), ([v], vden) = scaled(a.T), scaled(ts), scaled(u[None])
    total = 0  # the first i terms times tden * vden * bden^(i - 1)
    for _ in range(terms):
        total = total * bden + max(sum(p * q for p, q in zip(row, v)) for row in t)
        v = [sum(p * q for p, q in zip(row, v)) for row in b]
    return float(Fraction(total, tden * vden * bden ** (terms - 1)))


@st.composite
def equal_map_systems(draw):
    """(A, translations, direction, tol) in 2 or 3 dimensions, c <= 0.95."""
    m = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(m, m))
    a *= draw(st.floats(0.05, 0.95)) / fh.operator_norm(a)
    ts = rng.uniform(-1.0, 1.0, size=(draw(st.integers(1, 5)), m))
    return a, ts, rng.normal(size=m), draw(st.sampled_from([1e-6, 1e-10, 1e-13]))


class TestEqualMapsWidth:
    @settings(max_examples=150, deadline=None)
    @given(equal_map_systems())
    def test_matches_term_by_term_loop(self, system):
        # within 1e-12 relative, or the rounding allowance the docstring
        # states, which is the larger where the series cancels to near 0
        a, ts, _, tol = system
        want = loop_equal_maps_width(*system)
        allowance = series_terms(a, ts, tol)[1]
        assert fh.equal_maps_width(*system) == pytest.approx(want, rel=1e-12, abs=allowance)

    @pytest.mark.parametrize("a,ts,d", [
        (np.zeros((2, 2)), [(1.0, 0.5), (-0.3, 0.2)], (0.6, 0.8)),
        (np.zeros((3, 3)), [(1.0, 0.5, 0.0)], (0.0, 0.0, 2.0)),
        ([[0.0, 0.5], [0.0, 0.0]], [(1.0, 0.0), (0.0, 1.0)], (0.0, 1.0)),
        ([[0.0, 0.9, 0.0], [0.0, 0.0, 0.9], [0.0, 0.0, 0.0]],
         [(1.0, 1.0, 1.0), (-1.0, 0.5, 0.0)], (0.0, 0.0, 1.0)),
        (1e-320 * np.eye(2), [(1.0, 0.0)], (1.0, 0.0)),
        (1e-320 * np.eye(3), [(0.0, 2.0, 0.0)], (0.0, 1.0, 1.0)),
    ], ids=["zero-2d", "zero-3d", "nilpotent-2d", "nilpotent-3d", "tiny-2d", "tiny-3d"])
    def test_degenerate_matrices_match_loop(self, a, ts, d):
        want = loop_equal_maps_width(a, ts, d, 1e-12)
        assert fh.equal_maps_width(a, ts, d) == pytest.approx(want, rel=1e-14, abs=1e-300)

    def test_64_dimensions_stay_within_the_block_cap(self):
        # c = 0.9999 needs ~4e5 terms: one (terms x 64) array of directions
        # would take ~200 MB; blocks of rows work in 8 MiB, plus the
        # per-block maxima and a few 64 x 64 matrices
        rng = np.random.default_rng(64)
        q, _ = np.linalg.qr(rng.normal(size=(64, 64)))
        ts = rng.uniform(-1.0, 1.0, size=(8, 64))
        d = np.eye(64)[0]
        tracemalloc.start()
        try:
            got = fh.equal_maps_width(0.9999 * q, ts, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**23 + 2**18
        # the one-step recursion h(d) = h*(d) + |A^T d| h(dir(A^T d))
        rest = 0.9999 * fh.equal_maps_width(0.9999 * q, ts, q.T @ d)
        assert got == pytest.approx(np.max(ts @ d) + rest, rel=1e-9)

    @pytest.mark.parametrize("entries", [2**12, 2**17])
    @pytest.mark.parametrize("c,want", [(0.999, 605.3332262095727),
                                        (1.0 - 4e-5, 15136.113284719564)])
    def test_same_float_when_the_shared_block_size_is_retuned(self, monkeypatch, entries,
                                                              c, want):
        # the series' rounding depends on where its blocks fall, so it keeps
        # its own block size: retuning the shared one leaves its bits alone
        monkeypatch.setattr(fh.ifs, "_BLOCK_ENTRIES", entries)
        a = c * np.array([[math.cos(1.0), -math.sin(1.0)], [math.sin(1.0), math.cos(1.0)]])
        ts = [(1.0, 0.0), (0.0, 1.0), (-0.5, 0.3)]
        assert fh.equal_maps_width(a, ts, (1.0, 0.0)) == want

    def test_zero_matrix_gives_translation_support(self):
        ts = [(0.0, 0.0), (1.0, 0.5)]
        d = np.array([0.6, 0.8])
        val = fh.equal_maps_width(np.zeros((2, 2)), ts, d)
        assert val == pytest.approx(max(0.0, 1.0 * 0.6 + 0.5 * 0.8))

    def test_unit_square_width(self):
        ts = [(0, 0), (0.5, 0), (0, 0.5), (0.5, 0.5)]
        val = fh.equal_maps_width(0.5 * np.eye(2), ts, (1.0, 0.0), tol=1e-12)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_single_zero_translation(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(2, 2))
        a *= 0.7 / fh.operator_norm(a)
        assert fh.equal_maps_width(a, [(0.0, 0.0)], (1.0, 0.0)) == 0.0

    def test_dimension_generic(self):
        ts = [(0, 0, 0), (1, 0, 0)]
        val = fh.equal_maps_width(0.5 * np.eye(3), ts, (1.0, 0.0, 0.0), tol=1e-12)
        assert val == pytest.approx(2.0, abs=1e-9)

    def test_self_consistency_recursion(self):
        rng = np.random.default_rng(31)
        tol = 1e-10
        for _ in range(20):
            a = rng.normal(size=(2, 2))
            a *= rng.uniform(0.1, 0.9) / fh.operator_norm(a)
            ts = rng.uniform(-1, 1, size=(int(rng.integers(1, 5)), 2))
            ang = rng.uniform(0, 2 * math.pi)
            d = np.array([math.cos(ang), math.sin(ang)])
            lhs = fh.equal_maps_width(a, ts, d, tol)
            v = a.T @ d
            nv = np.linalg.norm(v)
            rhs = nv * fh.equal_maps_width(a, ts, v / nv, tol) + np.max(ts @ d)
            assert abs(lhs - rhs) <= 2 * tol

    def test_rejects_expansion(self):
        with pytest.raises(fh.ValidationError):
            fh.equal_maps_width(np.eye(2), [(1.0, 0.0)], (1.0, 0.0))

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_non_finite_tol(self, tol):
        with pytest.raises(fh.ValidationError, match="positive finite"):
            fh.equal_maps_width(0.5 * np.eye(2), [(1.0, 0.0)], (1.0, 0.0), tol)

    @pytest.mark.parametrize("ts,d", [
        ([(1.0, 0.0)], (math.nan, 0.0)),
        ([(1.0, 0.0)], (math.inf, 0.0)),
        ([(math.nan, 0.0)], (1.0, 0.0)),
        ([(1.0, 0.0)], (1.0, 0.0, 0.0)),
        ([(1.0, 0.0, 0.0)], (1.0, 0.0)),
        ([1.0, 0.0], (1.0, 0.0)),
        (np.zeros((0, 2)), (1.0, 0.0)),
        ([(1.0, 0.0)], (0.0, 0.0)),
    ], ids=["d-nan", "d-inf", "t-nan", "d-3", "t-rows-3", "t-flat", "t-empty", "d-zero"])
    def test_rejects_malformed_inputs(self, ts, d):
        with pytest.raises(fh.ValidationError):
            fh.equal_maps_width(0.5 * np.eye(2), ts, d)

    def test_tiny_contraction_takes_one_term(self):
        # 1/c overflows for c = 1e-320: the one-term case must not need it
        val = fh.equal_maps_width(1e-320 * np.eye(2), [(1.0, 0.0)], (1.0, 0.0))
        assert val == 1.0


class TestSymmetryCenter:
    def test_twindragon(self, twindragon_sys):
        assert fh.symmetry_center(twindragon_sys) == pytest.approx([0.0, -0.5])

    def test_real_base(self):
        assert fh.symmetry_center(fh.complex_base_system(2 + 0j, 2)) == \
            pytest.approx([0.5, 0.0])

    def test_three_digits(self):
        assert fh.symmetry_center(fh.complex_base_system(1 + 1j, 3)) == \
            pytest.approx([0.0, -1.0])


class TestWidthSeries:
    def test_twindragon_anchor_values(self, twindragon_sys):
        assert fh.centered_width(twindragon_sys, 0.0, 1e-12) == \
            pytest.approx(2.0 / 3.0, abs=1e-11)
        assert fh.centered_width(twindragon_sys, math.pi / 2, 1e-12) == \
            pytest.approx(5.0 / 6.0, abs=1e-11)

    def test_real_base_vertical_width_vanishes(self):
        sys_ = fh.complex_base_system(2 + 0j, 2)
        assert fh.centered_width(sys_, math.pi / 2, 1e-12) <= 1e-12

    def test_tail_bound_honored(self, twindragon_sys):
        coarse = fh.centered_width(twindragon_sys, 1.234, 1e-3)
        fine = fh.centered_width(twindragon_sys, 1.234, 1e-13)
        assert abs(coarse - fine) <= 1e-3

    def test_rational_matches_series(self, twindragon_sys):
        series = fh.centered_width(twindragon_sys, DENSE, 1e-13)
        exact = fh.rational_width(twindragon_sys, DENSE)
        assert np.max(np.abs(series - exact)) <= 1e-12

    def test_rational_antipodal_symmetry(self, twindragon_sys):
        a = fh.rational_width(twindragon_sys, DENSE)
        b = fh.rational_width(twindragon_sys, DENSE + math.pi)
        assert np.array_equal(a, b) or np.max(np.abs(a - b)) <= 1e-15

    def test_rational_needs_declaration(self):
        sys_ = fh.ComplexBaseSystem(1 + 1j, 2)
        with pytest.raises(fh.ValidationError):
            fh.rational_width(sys_, 0.0)

    @pytest.mark.parametrize("form", ["centered_width", "rational_width"])
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, np.array([0.0, math.nan])])
    def test_angle_must_be_finite(self, twindragon_sys, form, alpha):
        with pytest.raises(fh.ValidationError, match="angle"):
            getattr(fh, form)(twindragon_sys, alpha)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_series_terms_rejects_non_finite_tol(self, tol):
        with pytest.raises(fh.ValidationError, match="positive finite"):
            _series_terms(0.5, math.sqrt(2.0), tol)


def refused_peak(call) -> int:
    """Peak bytes traced while ``call()`` raises ``ValidationError``."""
    tracemalloc.start()
    try:
        with pytest.raises(fh.ValidationError, match="more than 1048576"):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSeriesCap:
    # each refused call would hold hundreds of MB or loop 1e10 times; the
    # cap refuses it before any series array exists
    @pytest.mark.parametrize("z", [1.0 + 1e-6, cmath.rect(1.0 + 1e-9, 1.0)])
    def test_hull_area_near_unit_base_refused_at_once(self, z):
        assert refused_peak(lambda: fh.hull_area(fh.complex_base_system(z, 2))) < 2**16

    def test_equal_maps_width_near_unit_factor_refused_at_once(self):
        a = (1.0 - 1e-9) * np.eye(2)
        peak = refused_peak(lambda: fh.equal_maps_width(a, [(1.0, 0.0), (0.0, 1.0)],
                                                         (1.0, 0.0)))
        assert peak < 2**16

    @pytest.mark.parametrize("call", [
        lambda: fh.centered_width(fh.complex_base_system(1.0 + 1e-7, 2), np.zeros(8)),
        lambda: fh.irrational_polygon(fh.complex_base_system(cmath.rect(1.0 + 1e-7, 1.0), 2),
                                      1e-9),
        lambda: fh.isodiametric_gap(1.0 + 1e-9, np.zeros(8)),
    ], ids=["centered_width", "irrational_polygon", "isodiametric_gap"])
    def test_other_series_refused_at_once(self, call):
        assert refused_peak(call) < 2**16

    def test_terms_below_and_above_the_cap(self):
        assert 2**19 < _series_terms(1.0, 1.0 + 2.0**-10, 1e-300) <= 2**20
        with pytest.raises(fh.ValidationError, match="more than 1048576"):
            _series_terms(1.0, 1.0 + 2.0**-30, 1e-12)
        # tol (r - 1) underflows to 0, so the count is infinite (OverflowError
        # from math.ceil before the cap)
        with pytest.raises(fh.ValidationError, match="more than 1048576"):
            _series_terms(1.0, 2.0, 5e-324)

    def test_cli_exact_near_unit_base_exits_with_error(self, tmp_path, capsys):
        doc = tmp_path / "z.json"
        doc.write_text(json.dumps({"complex_base": {"z": [1.000001, 0], "n": 2}}))
        assert cli.main(["exact", "--input", str(doc)]) == 1
        assert "more than 1048576" in capsys.readouterr().err

    def test_angle_arrays_evaluated_in_bounded_blocks(self):
        # 64 angles of 361 000 terms would be one 185 MB matrix; blocks of
        # 2**20 entries keep the peak near a few of them.  A row of either
        # series has the bits of its angle alone
        sys_ = fh.complex_base_system(cmath.rect(1.0 + 1e-4, 1.0), 2)
        alpha = np.linspace(-3.0, 3.0, 64)
        tracemalloc.start()
        try:
            widths = fh.centered_width(sys_, alpha)
            gaps = fh.isodiametric_gap(1.0 + 1e-4, alpha[:16])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**26
        for i in (0, 31, 63):
            assert widths[i] == fh.centered_width(sys_, float(alpha[i]))
        # the gap is a difference of two numbers near 6366: a matrix-vector
        # product rounded row 5 2.7e-12 away from the lone angle
        assert gaps[5] == fh.isodiametric_gap(1.0 + 1e-4, float(alpha[5]))


def digit_vertices(z: complex, n: int, families: int, terms: int) -> np.ndarray:
    """Hull vertices of the expansions ``sum_{j<=terms} d_j z^-j``, d_j in
    {0, n-1}, found without any polygon: the edge normals are the angles
    of ``z^-j`` (j <= families) turned by +-pi/2, and the vertex between
    two consecutive normals takes ``d_j = n-1`` exactly where ``z^-j``
    points to the side of their bisector u.  Counterclockwise."""
    normals = []
    for j in range(1, families + 1):
        phase = cmath.phase(z ** -j)
        normals += [(phase + 0.5 * math.pi) % (2 * math.pi),
                    (phase - 0.5 * math.pi) % (2 * math.pi)]
    normals = np.sort(normals)
    bisectors = 0.5 * (normals + np.roll(normals, 1))
    bisectors[0] -= math.pi  # the cone across angle 0
    powers = (1.0 / z) ** np.arange(1, terms + 1)
    ahead = (np.outer(np.cos(bisectors), powers.real)
             + np.outer(np.sin(bisectors), powers.imag)) > 0.0
    sums = (n - 1) * (ahead @ powers)
    return np.column_stack((sums.real, sums.imag))


def assert_cyclic_close(got, expected, atol):
    """Vertex lists equal up to where the cycle starts.  The start is the
    rotation that fits the whole cycle best: edges far below rounding
    (|z|^-j for large j) leave runs of equal vertices, so the vertex
    nearest ``got[0]`` does not fix it."""
    assert got.shape == expected.shape
    shift = int(np.argmin([np.max(np.abs(got - np.roll(expected, -s, axis=0)))
                           for s in range(len(expected))]))
    assert np.allclose(got, np.roll(expected, -shift, axis=0), rtol=0.0, atol=atol)


def rational_base(r, k, l):
    """``r exp(i pi l/k)`` with l/k in lowest terms."""
    g = math.gcd(l, k)
    return r * cmath.exp(1j * math.pi * (l // g) / (k // g)), k // g


class TestExactPolygon:
    def test_twindragon_octagon_vertices(self, twindragon_sys):
        poly, tris = fh.exact_polygon(twindragon_sys)
        assert poly.method == "exact"
        assert len(poly) == 8
        expected = np.array([
            [2 / 3, -1.0], [2 / 3, -1 / 3], [0.0, 1 / 3], [-1 / 3, 1 / 3],
            [-2 / 3, 0.0], [-2 / 3, -2 / 3], [0.0, -4 / 3], [1 / 3, -4 / 3],
        ])
        # the cycle starts at the edge of least outward normal, here 0
        assert np.allclose(poly.vertices, expected, rtol=0.0, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(r=st.floats(1.05, 4.0), k=st.integers(1, 64), l=st.integers(0, 127),
           n=st.integers(2, 5))
    @example(r=4.0, k=30, l=37, n=2)  # edges of 4^-30 leave runs of equal vertices
    def test_vertices_are_digit_expansions(self, r, k, l, n):
        z, k = rational_base(r, k, l)
        sys_ = fh.complex_base_system(z, n)
        assume(sys_.rational_angle is not None and sys_.rational_angle[1] == k)
        poly, tris = fh.exact_polygon(sys_)
        assert len(poly) == 2 * k and len(tris) == k  # a segment when k = 1
        # enough digits that the left-out tail is below 1e-13 of the hull
        terms = math.ceil(math.log(1e13 * r / (r - 1.0)) / math.log(r))
        scale = (n - 1) / (r - 1.0)
        assert_cyclic_close(poly.vertices, digit_vertices(z, n, k, terms), 1e-10 * scale)
        assert fh.polygon_perimeter(poly) == pytest.approx(fh.hull_perimeter(sys_), rel=1e-9)
        assert fh.polygon_area(poly) == pytest.approx(fh.hull_area(sys_), rel=1e-9,
                                                      abs=1e-12 * scale ** 2)

    def test_twindragon_measures(self, twindragon_sys):
        poly, _ = fh.exact_polygon(twindragon_sys)
        assert fh.polygon_area(poly) == pytest.approx(5.0 / 3.0, abs=1e-9)
        assert fh.polygon_perimeter(poly) == pytest.approx(2 * (SQRT2 + 1), abs=1e-9)

    def test_segment_base_two(self):
        poly, tris = fh.exact_polygon(fh.complex_base_system(2 + 0j, 2))
        assert len(poly) == 2
        got = np.sort(poly.vertices, axis=0)
        assert np.allclose(got, [[0.0, 0.0], [1.0, 0.0]], atol=1e-12)
        assert len(tris) == 1
        assert tris[0].b + tris[0].c == pytest.approx(1.0)

    def test_hexagon(self):
        z = 2 * complex(math.cos(math.pi / 3), math.sin(math.pi / 3))
        sys_ = fh.complex_base_system(z, 2)
        poly, tris = fh.exact_polygon(sys_)
        assert len(poly) == 6
        sup = polygon_support(poly, DENSE)
        assert np.max(np.abs(sup - fh.rational_width(sys_, DENSE))) <= 1e-9

    def test_edge_length_ledger(self, twindragon_sys):
        poly, tris = fh.exact_polygon(twindragon_sys)
        edges = np.linalg.norm(
            np.roll(poly.vertices, -1, axis=0) - poly.vertices, axis=1)
        r, (_, k) = twindragon_sys.r, twindragon_sys.rational_angle
        expected = sorted(
            [r ** -j / (1 - r ** -k) for j in range(1, k + 1)] * 2)
        assert np.allclose(sorted(edges), expected, atol=1e-12)

    def test_triangle_invariants(self):
        for z, n in ((1 + 1j, 2), (2j, 3), (1.5j, 2), (-2 + 0j, 4)):
            _, tris = fh.exact_polygon(fh.complex_base_system(z, n))
            for t in tris:
                assert t.b + t.c > 0
                assert t.a >= 0

    def test_needs_rational_angle(self):
        sys_ = fh.ComplexBaseSystem(1 + 1j, 2)
        with pytest.raises(fh.ValidationError):
            fh.exact_polygon(sys_)

    def test_outer_slack_is_rounding_allowance(self, twindragon_sys):
        assert fh.exact_polygon(twindragon_sys)[0].outer_slack == 1e-12

    # near |z| = 1 the hull is ~(n-1)/(|z|-1) across: 1 - r^-k cancelled
    # there (relative error 2e-11 at r = 1 + 1e-6) and the lower vertex
    # missed 0 by 1.06e-5 against a claimed outer_slack of 1e-12
    @pytest.mark.parametrize("z", [1 + 1e-6, 1.001, (1 + 1e-6) * 1j, 1.001j])
    @pytest.mark.parametrize("n", [2, 3])
    def test_near_unit_base_holds_exact_end_points(self, z, n):
        sys_ = fh.complex_base_system(z, n)
        assert sys_.rational_angle in ((0, 1), (1, 2))
        poly, _ = fh.exact_polygon(sys_)
        # 0 and (n-1) sum_j z^-j = (n-1)/(z-1): the expansions with every
        # digit 0 and every digit n-1, the far one in exact arithmetic
        x, y = Fraction(z.real) - 1, Fraction(z.imag)
        far = (n - 1) / (x * x + y * y) * np.array([x, -y])
        points = np.array([[0.0, 0.0], far.astype(float)])
        assert np.all(distance_to_polygon(poly.vertices, points) <= poly.outer_slack)


class TestIrrationalPolygon:
    @settings(max_examples=60, deadline=None)
    @given(r=st.floats(1.05, 4.0), phi=st.floats(-3.1, 3.1), n=st.integers(2, 5),
           tol=st.sampled_from([1e-3, 1e-6, 1e-9]))
    def test_hull_of_digit_expansions(self, r, phi, n, tol):
        z = r * cmath.exp(1j * phi)
        sys_ = fh.complex_base_system(z, n)
        assume(sys_.rational_angle is None)
        poly = fh.irrational_polygon(sys_, tol)
        terms = _series_terms(n - 1, r, tol)
        assert len(poly) == 2 * terms and poly.outer_slack == tol
        scale = (n - 1) / (r - 1.0)
        assert_cyclic_close(poly.vertices, digit_vertices(z, n, terms, terms), 1e-10 * scale)
        # points of the attractor: inside the hull, and within the left-out
        # segments' total length of it
        angles = np.linspace(0, 2 * math.pi, 1024, endpoint=False)
        sup = polygon_support(poly, angles)
        ref = fh.centered_width(sys_, angles, 1e-14)
        assert np.all(sup <= ref + 1e-12 * scale)
        assert np.all(sup >= ref - tol)

    def test_huge_tol_keeps_dominant_edges(self):
        z = 2 * complex(math.cos(1.0), math.sin(1.0))
        sys_ = fh.ComplexBaseSystem(z, 2)
        poly = fh.irrational_polygon(sys_, 10.0)
        assert len(poly) <= 4

    def test_support_matches_series(self):
        z = 2 * complex(math.cos(1.0), math.sin(1.0))
        sys_ = fh.ComplexBaseSystem(z, 2)
        poly = fh.irrational_polygon(sys_, 1e-9)
        angles = np.linspace(0, 2 * math.pi, 1024, endpoint=False)
        sup = polygon_support(poly, angles)
        ref = fh.centered_width(sys_, angles, 1e-13)
        assert np.max(np.abs(sup - ref)) <= 1e-8
        assert np.max(sup - ref) <= 1e-12  # inner approximation

    def test_rational_system_agrees_with_exact(self, twindragon_sys):
        forced = fh.ComplexBaseSystem(1 + 1j, 2)
        tol = 1e-9
        poly = fh.irrational_polygon(forced, tol)
        exact, _ = fh.exact_polygon(twindragon_sys)
        diff = polygon_support(poly, DENSE) - polygon_support(exact, DENSE)
        assert np.max(np.abs(diff)) <= tol


class TestPerimeterArea:
    def test_perimeter_values(self):
        assert fh.hull_perimeter(fh.complex_base_system(1 + 1j, 2)) == \
            pytest.approx(2 * (SQRT2 + 1))
        assert fh.hull_perimeter(fh.complex_base_system(2 + 0j, 2)) == \
            pytest.approx(2.0)
        assert fh.hull_perimeter(fh.complex_base_system(3 + 0j, 3)) == \
            pytest.approx(2.0)

    def test_area_twindragon(self, twindragon_sys):
        assert fh.hull_area(twindragon_sys, 1e-12) == \
            pytest.approx(5.0 / 3.0, abs=1e-11)

    def test_area_real_base_vanishes(self):
        assert fh.hull_area(fh.complex_base_system(2 + 0j, 2), 1e-12) <= 1e-12

    def test_area_base_2i(self):
        # odd |sin| pattern: (1/3) * (1/2 + 1/8 + 1/32 + ...) = 2/9
        assert fh.hull_area(fh.complex_base_system(2j, 2), 1e-13) == \
            pytest.approx(2.0 / 9.0, abs=1e-12)

    @pytest.mark.parametrize("z,n", [
        (1 + 1j, 2), (2j, 2),
        (2 * complex(math.cos(math.pi / 3), math.sin(math.pi / 3)), 2),
        (1.5j, 3),
    ])
    def test_series_matches_shoelace(self, z, n):
        sys_ = fh.complex_base_system(z, n)
        poly, _ = fh.exact_polygon(sys_)
        assert fh.hull_area(sys_, 1e-12) == pytest.approx(
            fh.polygon_area(poly), abs=1e-9 + 1e-12)

    def test_perimeter_independent_of_angle_series(self):
        # same r and n, four angles; the series polygons all close at 2
        for phi in (math.pi / 6, math.pi / 4, math.pi / 3, 1.0):
            z = 2 * complex(math.cos(phi), math.sin(phi))
            sys_ = fh.ComplexBaseSystem(z, 2)
            poly = fh.irrational_polygon(sys_, 1e-10)
            assert fh.polygon_perimeter(poly) == pytest.approx(2.0, abs=1e-8)


class TestIsodiametricGap:
    def test_zero_angle_full_bound(self):
        r = 1.7
        assert fh.isodiametric_gap(r, 0.0) == pytest.approx(
            (r + 1) / (math.pi * (r - 1)))

    def test_twindragon_point_frozen(self):
        # bound (3 + 2 sqrt(2))/pi minus the series value 5/3
        expected = (3 + 2 * SQRT2) / math.pi - 5.0 / 3.0
        assert fh.isodiametric_gap(SQRT2, math.pi / 4) == \
            pytest.approx(expected, abs=1e-10)

    def test_near_unit_modulus_stress(self):
        phi = math.pi * 1.6180339887498949
        assert fh.isodiametric_gap(1.01, phi) >= 0.0

    def test_rejects_small_modulus(self):
        with pytest.raises(fh.ValidationError):
            fh.isodiametric_gap(1.0, 0.5)

    @pytest.mark.parametrize("r,phi", [(math.nan, 1.0), (math.inf, 1.0), (2.0, math.nan),
                                       (2.0, np.array([0.0, math.inf]))])
    def test_rejects_non_finite_inputs(self, r, phi):
        with pytest.raises(fh.ValidationError):
            fh.isodiametric_gap(r, phi)

    @pytest.mark.parametrize("counts", [(1.5, 2), (2, 0.5), (2, True), (0, 2)])
    def test_audit_counts_must_be_integers(self, counts):
        with pytest.raises(fh.ValidationError, match="count must be a finite integer"):
            fh.isodiametric_audit(*counts)

    def test_audit_integral_float_counts(self):
        got = fh.isodiametric_audit(3.0, np.int64(4))
        want = fh.isodiametric_audit(3, 4)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    # 2049 x 2048 gaps are 4096 more than the 2**22 cap; the gap matrix
    # alone would take 32 MiB, and each row's series much more
    @pytest.mark.parametrize("counts", [(2049, 2048), (1, 2**22 + 1), (10**6, 10**6)])
    def test_audit_above_cap_refused_before_allocation(self, counts):
        tracemalloc.start()
        try:
            with pytest.raises(fh.ValidationError, match="at most 4194304"):
                fh.isodiametric_audit(*counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_audit_cap_counts_gaps(self, monkeypatch):
        monkeypatch.setattr(fh.analytic, "_MAX_AUDIT", 12)
        assert fh.isodiametric_audit(3, 4)[2].shape == (3, 4)
        with pytest.raises(fh.ValidationError, match="at most 12"):
            fh.isodiametric_audit(3, 5)

    def test_audit_grid_shape_and_sign(self):
        rs, phis, gaps = fh.isodiametric_audit(12, 64)
        assert gaps.shape == (12, 64)
        assert rs[0] == pytest.approx(1.05) and rs[-1] == pytest.approx(4.0)
        assert float(gaps.min()) >= -1e-12


class TestNumericAnalyticAgreement:
    @pytest.mark.parametrize("z,n", [
        (1 + 1j, 2),
        (2 * complex(math.cos(math.pi / 3), math.sin(math.pi / 3)), 2),
        (1.5j, 3),
    ])
    def test_solver_matches_closed_form(self, z, n):
        ifs = fh.complex_base_ifs(z, n)
        sys_ = fh.complex_base_system(z, n)
        w = fh.solve_width(ifs, 2048, 1e-6)
        wc = fh.rebase_width(w, fh.symmetry_center(sys_))
        ref = fh.rational_width(sys_, wc.grid.angles)
        tol = w.iter_error + w.interp_slack + 1e-6
        assert np.max(np.abs(wc.values - ref)) <= tol
