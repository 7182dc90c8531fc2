"""The batched artifact writers against per-value reference writers.

``width_csv`` fills one %-template from one flat list of floats;
``render_svg`` fills its header, path and marker templates that way and
prints the cloud's coordinates with a numpy kernel (a template beyond
2**33).  The references below format each value with its own call, as the
writers did before, so any difference in a single byte shows.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fractalhull as fh


def _fmt(v: float) -> str:
    s = f"{v:.6f}"
    return "0.000000" if s == "-0.000000" else s


def reference_svg(polygon, cloud) -> str:
    """One formatting call per value; viewport around the vertices' box,
    base marker only for a base inside it."""
    cx, cy = float(polygon.base[0]), float(polygon.base[1])
    if len(polygon):
        centre = (polygon.vertices.min(axis=0) + polygon.vertices.max(axis=0)) / 2.0
        radius = float(np.max(np.linalg.norm(polygon.vertices - centre, axis=1)))
    else:
        centre, radius = polygon.base, 1.0
    vx, vy = float(centre[0]), float(centre[1])
    half = 1.1 * max(radius, 1e-6)
    stroke = half / 160.0
    dot = half / 240.0
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(vx - half)} {_fmt(-vy - half)} {_fmt(2 * half)} {_fmt(2 * half)}">'
    ]
    if len(polygon):
        coords = [f"{_fmt(x)},{_fmt(-y)}" for x, y in polygon.vertices]
        path = "M " + " L ".join(coords) + " Z"
        parts.append(f'<path d="{path}" fill="none" stroke="#1f6feb" '
                     f'stroke-width="{_fmt(stroke)}"/>')
    for x, y in np.asarray(cloud, dtype=float):
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(-y)}" r="{_fmt(dot)}" '
                     'fill="#d73a49"/>')
    m = half / 40.0
    if abs(cx - vx) <= half and abs(cy - vy) <= half:
        parts.append(
            f'<path d="M {_fmt(cx - m)} {_fmt(-cy)} L {_fmt(cx + m)} {_fmt(-cy)} '
            f'M {_fmt(cx)} {_fmt(-cy - m)} L {_fmt(cx)} {_fmt(-cy + m)}" '
            f'stroke="#24292f" stroke-width="{_fmt(stroke)}" fill="none"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def reference_csv(w) -> str:
    lines = ["angle,h"]
    for angle, value in zip(w.grid.angles.tolist(), w.values.tolist()):
        lines.append(f"{angle:.12g},{value:.17g}")
    return "\n".join(lines) + "\n"


# values that print as -0.000000 or sit at the rounding edge of 1e-6
NEAR_ZERO = [0.0, -0.0, 5e-7, -5e-7, 4.9999999999999996e-7, -4.9999999999999996e-7,
             math.nextafter(5e-7, 1.0), math.nextafter(-5e-7, -1.0),
             4e-7, -4e-7, 1e-300, -1e-300, 5e-324, -5e-324]


def neighbours(v: float) -> list[float]:
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


# the cloud kernel's hard cases: x * 10**6 an exact tie ((2k + 1) 2**-7 is
# (2k + 1) 7812.5e-6), floats around the ties (k + 0.5) 1e-6 at three
# magnitudes, the kernel's limit 2**33 with the float below it, and a float
# beyond it whose x * 10**6 (above 2**53) the kernel would misprint
EDGES = [sign * v for sign in (1.0, -1.0) for v in (
    [(2 * k + 1) / 128 for k in (0, 1, 5, 63)]
    + [u for m in (1.0, 1e3, 1e6) for k in (0, 1) for u in neighbours(m + (k + 0.5) * 1e-6)]
    + [2.0**33, math.nextafter(2.0**33, 0.0), 2.0**34 - 6 * 2.0**-18])]
coordinate = st.one_of(
    st.sampled_from(NEAR_ZERO + EDGES),
    st.floats(-1e-5, 1e-5),
    st.floats(-1e12, 1e12),
)


def point_arrays(max_size):
    return st.lists(st.tuples(coordinate, coordinate), max_size=max_size).map(
        lambda rows: np.array(rows, dtype=float).reshape(-1, 2))


def polygon(vertices, base=(0.0, 0.0)):
    return fh.HullPolygon(vertices=np.asarray(vertices, dtype=float).reshape(-1, 2),
                          base=np.asarray(base, dtype=float))


SEGMENT = [[-0.0, 4e-7], [1.0, -5e-7]]
TRIANGLE = [[4.0, 4.0], [5.0, 4.0], [4.0, 5.0]]
# the 3-map square shifted by (4, -5), as solved around the origin
SHIFTED_SQUARE = [[8.0, -10.0], [9.0, -10.0], [8.0, -9.0]]
CLOUD = [[-4e-7, 4e-7], [0.0, -0.0], [5e-7, -5e-7], [1e12, -1e12]]
# every edge value below 2**33 against every other: written by the kernel;
# the edge values from 2**33 on: written by the template
KERNEL_EDGES = [[x, y] for x in NEAR_ZERO + EDGES for y in NEAR_ZERO + EDGES
                if max(abs(x), abs(y)) < 2.0**33]
TEMPLATE_EDGES = [[x, -x] for x in EDGES if abs(x) >= 2.0**33]


def long_cloud():
    """A kernel cloud over more than one block: the kernel formats it in
    blocks of at most ``_BLOCK_ENTRIES`` float64 entries, a row taking more
    than four; every 97th row is an edge pair."""
    k = fh.ifs._BLOCK_ENTRIES // 4 + 3
    rng = np.random.default_rng(7)
    cloud = rng.uniform(-1.0, 1.0, (k, 2)) * 10.0 ** rng.uniform(-7.0, 9.0, (k, 2))
    every = np.arange(0, k, 97)
    cloud[every] = np.array(KERNEL_EDGES)[np.arange(len(every)) % len(KERNEL_EDGES)]
    return cloud


class TestRenderSvg:
    @settings(max_examples=300, deadline=None)
    @given(vertices=point_arrays(8), base=st.tuples(coordinate, coordinate),
           cloud=point_arrays(40))
    @example(vertices=np.empty((0, 2)), base=(0.0, 0.0), cloud=np.empty((0, 2)))
    @example(vertices=np.empty((0, 2)), base=(-0.0, 4e-7), cloud=np.empty((0, 2)))
    @example(vertices=np.array(SEGMENT), base=(-0.0, -0.0), cloud=np.array(CLOUD))
    @example(vertices=np.array(TRIANGLE), base=(0.0, 0.0), cloud=np.array(CLOUD[:1]))
    @example(vertices=np.array(SHIFTED_SQUARE), base=(0.0, 0.0),
             cloud=np.array([[8.25, -9.75]]))
    @example(vertices=np.array(TRIANGLE), base=(0.0, 0.0), cloud=np.array(KERNEL_EDGES))
    @example(vertices=np.array(TRIANGLE), base=(0.0, 0.0), cloud=np.array(TEMPLATE_EDGES))
    @example(vertices=np.array(TRIANGLE), base=(0.0, 0.0), cloud=long_cloud())
    def test_same_bytes_as_per_value_writer(self, vertices, base, cloud):
        poly = polygon(vertices, base)
        assert fh.render_svg(poly, cloud) == reference_svg(poly, cloud)

    def test_negative_zero_is_written_unsigned(self):
        text = fh.render_svg(polygon(SEGMENT, (-0.0, 4e-7)), np.array(CLOUD))
        assert "-0.000000" not in text
        assert 'cx="0.000000" cy="0.000000"' in text
        assert "M 0.000000,0.000000 L 1.000000,0.000000 Z" in text

    def test_viewport_centres_the_hull(self):
        text = fh.render_svg(polygon(TRIANGLE), np.array([[4.25, 4.25]]))
        half = 1.1 * math.sqrt(0.5)
        assert f'viewBox="{4.5 - half:.6f} {-4.5 - half:.6f} {2 * half:.6f} {2 * half:.6f}"' in text
        assert f'r="{half / 240:.6f}"' in text
        assert '<circle cx="4.250000" cy="-4.250000"' in text
        # the base (0, 0) lies outside the view, so no marker is written
        assert text.count("<path") == 1

    def test_marker_for_base_in_view(self):
        text = fh.render_svg(polygon(TRIANGLE, (4.25, 4.25)), np.empty((0, 2)))
        m = 1.1 * math.sqrt(0.5) / 40
        assert f'<path d="M {4.25 - m:.6f} -4.250000 L {4.25 + m:.6f} -4.250000 ' in text

    @pytest.mark.parametrize("cloud", [
        np.zeros((4, 3)),
        np.zeros(8),
        np.zeros((2, 2, 2)),
        np.array([[0.0, 0.0], [np.nan, 1.0]]),
        np.array([[np.inf, 0.0]]),
        np.array([[0.0, -np.inf]]),
        np.array([["0.1", "0.2"]]),
    ], ids=["k-by-3", "flat", "3d", "nan", "inf", "-inf", "strings"])
    def test_rejects_malformed_cloud(self, cloud):
        with pytest.raises(fh.ValidationError):
            fh.render_svg(polygon(TRIANGLE), cloud)


class TestWidthCsv:
    @settings(max_examples=100, deadline=None)
    @given(n=st.sampled_from([64, 66, 128]), data=st.data())
    def test_same_bytes_as_per_row_writer(self, n, data):
        values = data.draw(st.lists(coordinate, min_size=n, max_size=n))
        w = fh.WidthSamples(grid=fh.DirectionGrid(n), base=np.zeros(2),
                            values=np.array(values), iter_error=0.0, interp_slack=0.0)
        assert fh.width_csv(w) == reference_csv(w)

    def test_solved_width(self, twindragon_width):
        assert fh.width_csv(twindragon_width) == reference_csv(twindragon_width)
