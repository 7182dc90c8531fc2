"""Deterministic SVG rendering of hull polygons and attractor samples.

Coordinates are written with exactly six decimals and elements in a fixed
order, so identical inputs give byte-identical files on any platform.  The
y axis is flipped so the mathematical orientation renders upright.
"""

from __future__ import annotations

import numpy as np

from .hull import HullPolygon


def _fmt(v: float) -> str:
    s = f"{v:.6f}"
    return "0.000000" if s == "-0.000000" else s


def render_svg(polygon: HullPolygon, cloud=None) -> str:
    """Render a hull polygon, an optional point cloud, and the base marker.

    The viewport is the square around the polygon's base point with half
    extent 1.1x the polygon's circumradius (1 for an empty polygon, at
    least 1e-6).
    """
    cx, cy = float(polygon.base[0]), float(polygon.base[1])
    if len(polygon):
        radius = float(np.max(np.linalg.norm(polygon.vertices - polygon.base, axis=1)))
    else:
        radius = 1.0
    half = 1.1 * max(radius, 1e-6)
    stroke = half / 160.0
    dot = half / 240.0
    parts = []
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(cx - half)} {_fmt(-cy - half)} {_fmt(2 * half)} {_fmt(2 * half)}">'
    )
    if len(polygon):
        coords = [f"{_fmt(x)},{_fmt(-y)}" for x, y in polygon.vertices]
        path = "M " + " L ".join(coords) + " Z"
        parts.append(
            f'<path d="{path}" fill="none" stroke="#1f6feb" '
            f'stroke-width="{_fmt(stroke)}"/>'
        )
    if cloud is not None:
        pts = np.asarray(cloud, dtype=float)
        for x, y in pts:
            parts.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(-y)}" r="{_fmt(dot)}" '
                'fill="#d73a49"/>'
            )
    m = half / 40.0
    parts.append(
        f'<path d="M {_fmt(cx - m)} {_fmt(-cy)} L {_fmt(cx + m)} {_fmt(-cy)} '
        f'M {_fmt(cx)} {_fmt(-cy - m)} L {_fmt(cx)} {_fmt(-cy + m)}" '
        f'stroke="#24292f" stroke-width="{_fmt(stroke)}" fill="none"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
