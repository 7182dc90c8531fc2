"""Deterministic SVG rendering of hull polygons and attractor samples.

Coordinates are written with exactly six decimals and elements in a fixed
order, so identical inputs give byte-identical files on any platform.  The
y axis is flipped so the mathematical orientation renders upright.

The header, the polygon path and the base marker are ``%``-templates
filled from flat lists of floats; ``"%.6f" % v`` prints what
``format(v, ".6f")`` prints.  The cloud's ``<circle>`` rows, almost all of
the document, are written by a numpy kernel that prints each coordinate as
``"%.6f"`` would: the exactly rounded ``x * 10**6`` as an integer, split
into digits in fixed-width byte rows whose padding is then dropped.
``render_svg`` takes 0.67 ms for 5 000 cloud points and 2.9 ms for 20 000,
against 2.65 and 11.0 ms with the whole document as one template (fastest
of 15 samples, one core of a 2-core Linux container).  A cloud with a
coordinate of magnitude 2**33 or more is written by its template (there
``x * 10**6`` can leave float64's exact integers).  The dot radius is
formatted once, and a coordinate that rounds to ``-0.000000`` is written
``0.000000``.

The viewport is a square around the midpoint of the vertices' bounding
box, so a hull away from its base point is drawn whole and centred; the
base marker is written only when the base lies in that square.
"""

from __future__ import annotations

import numpy as np

from .hull import HullPolygon
from .ifs import _check_finite, _row_blocks

# the cloud kernel's exact-integer range: |x| * 10**6 < 2**53
_KERNEL_LIMIT = 2.0**33
# Veltkamp's splitter: hi = c - (c - x), c = _SPLIT x, keeps x's top 26 bits
_SPLIT = 2.0**27 + 1.0
# the two digits of 0..99 as one uint16 each, in memory order
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)


def _flipped(points: np.ndarray) -> list[float]:
    """Flat ``[x0, -y0, x1, -y1, ...]`` for a (k, 2) array."""
    return np.column_stack((points[:, 0], -points[:, 1])).ravel().tolist()


def _fill(lines: list[str], values: list[float]) -> str:
    """``lines``, each ended by a newline, filled from ``values`` in one
    ``%`` pass."""
    text = "".join(line + "\n" for line in lines) % tuple(values)
    # The templates' only "-" is that of "stroke-width", and "%.6f" ends
    # every number after six decimals, so each "-0.000000" is one whole
    # number that rounded to zero: print it unsigned.
    return text.replace("-0.000000", "0.000000")


def _micros(v: np.ndarray) -> np.ndarray:
    """``v * 10**6`` of the exact binary ``v``, rounded half to even, as
    int64, for every |v| < 2**33.

    ``p = v * 1e6`` is rounded once and lies below 2**53.  Where p is no
    half-integer, ``rint(p)`` is the answer: below 2**52 every half-integer
    is a float, so the exact product, which rounds to p, lies on p's side
    of each; from 2**52 on p is an integer, and the product's own rounding
    broke any tie to even.  Where p is a half-integer, the error
    ``e = v * 10**6 - p``, exact by Dekker's product (1e6 has 14
    significant bits), decides: ``rint`` broke the tie to even, and the
    result moves by one where e points the other way.
    """
    p = v * 1e6
    out = np.rint(p)
    off = p - out
    tie = np.flatnonzero(np.abs(off) == 0.5)
    if tie.size:
        x, side = v.ravel()[tie], np.sign(off.ravel()[tie])
        c = _SPLIT * x
        hi = c - (c - x)
        err = (hi * 1e6 - p.ravel()[tie]) + (x - hi) * 1e6
        out.ravel()[tie] += np.where(np.sign(err) == side, side, 0.0)
    return out.astype(np.int64)


def _cloud_rows(points: np.ndarray, circle: str) -> str:
    """One line of ``circle``, a template with two ``%.6f`` fields, per
    point: ``x`` and ``-y``, printed as ``"%.6f"`` prints them, a zero
    unsigned."""
    top = float(np.max(np.abs(points), initial=0.0))
    if top >= _KERNEL_LIMIT:
        return _fill([circle] * len(points), _flipped(points))
    head, mid, tail = (s.encode() for s in (circle + "\n").split("%.6f"))
    digits = len(str(int(_micros(np.array([top]))[0]) // 10**6))
    field = digits + 8  # sign, integer digits, point, six decimals
    # one row with zero bytes in the fields; each field's point is written
    starts = (len(head), len(head) + field + len(mid))
    row = bytearray(head + bytes(field) + mid + bytes(field) + tail)
    for s in starts:
        row[s + digits + 1] = ord(".")
    row = np.frombuffer(row, np.uint8)

    def rows(block, buf):
        out = buf.view(np.uint8)[:len(block) * len(row)].reshape(len(block), len(row))
        out[:] = row
        n = _micros(np.stack((block[:, 0], -block[:, 1])))
        q = np.abs(n)
        whole = q // 10**6
        frac = q - whole * 10**6
        high = frac // 10**4  # decimals 1-2, 3-4 and 5-6
        low = frac - high * 10**4
        middle = low // 100
        low -= middle * 100
        for c, s in enumerate(starts):
            out[:, s] = (n[c] < 0) * np.uint8(ord("-"))
            rest = whole[c]
            out[:, s + digits] = rest % 10 + ord("0")
            for col in range(s + digits - 1, s, -1):  # leading zeros stay 0
                rest = rest // 10
                out[:, col] = np.where(rest > 0, rest % 10 + ord("0"), 0)
            pairs = out[:, s + digits + 2:s + field].view(np.uint16)
            pairs[:, 0], pairs[:, 1], pairs[:, 2] = (_PAIRS[high[c]], _PAIRS[middle[c]],
                                                      _PAIRS[low[c]])
        flat = out.ravel()
        return flat[flat != 0]

    return str(memoryview(_row_blocks(points, -(-len(row) // 8), rows)), "ascii")


def render_svg(polygon: HullPolygon, cloud) -> str:
    """Render a hull polygon, a point cloud, and the base marker.

    The viewport is the square around the midpoint of the vertices'
    bounding box with half extent 1.1x the largest distance from that
    midpoint to a vertex (at least 1e-6); an empty polygon gets the square
    base +- 1.  The base marker, a cross at the base point, is drawn only
    when the base lies inside the viewport.

    Raises ``ValidationError`` unless ``cloud`` is a (k, 2) array of
    finite numbers (strings are refused).
    """
    pts = _check_finite(cloud, "cloud", (None, 2))
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
    m = half / 40.0
    head = ['<svg xmlns="http://www.w3.org/2000/svg" '
            'viewBox="%.6f %.6f %.6f %.6f">']
    head_values = [vx - half, -vy - half, 2 * half, 2 * half]
    if len(polygon):
        head.append('<path d="M ' + " L ".join(["%.6f,%.6f"] * len(polygon))
                    + ' Z" fill="none" stroke="#1f6feb" stroke-width="%.6f"/>')
        head_values += _flipped(polygon.vertices)
        head_values.append(stroke)
    tail, tail_values = ["</svg>"], []
    if abs(cx - vx) <= half and abs(cy - vy) <= half:
        tail.insert(0, '<path d="M %.6f %.6f L %.6f %.6f M %.6f %.6f L %.6f %.6f" '
                       'stroke="#24292f" stroke-width="%.6f" fill="none"/>')
        tail_values = [cx - m, -cy, cx + m, -cy, cx, -cy - m, cx, -cy + m, stroke]
    circle = f'<circle cx="%.6f" cy="%.6f" r="{dot:.6f}" fill="#d73a49"/>'
    return "".join((_fill(head, head_values), _cloud_rows(pts, circle),
                    _fill(tail, tail_values)))
