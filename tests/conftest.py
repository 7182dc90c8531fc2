import math

import numpy as np
import pytest

import fractalhull as fh


@pytest.fixture(scope="session")
def twindragon_ifs():
    return fh.complex_base_ifs(1 + 1j, 2)


@pytest.fixture(scope="session")
def twindragon_sys():
    return fh.complex_base_system(1 + 1j, 2)


@pytest.fixture(scope="session")
def twindragon_width(twindragon_ifs):
    return fh.solve_width(twindragon_ifs, n_grid=4096, tol=1e-6)


@pytest.fixture(scope="session")
def twindragon_cloud(twindragon_ifs):
    return fh.chaos_game_sample(twindragon_ifs, 100_000, seed=11).points


@pytest.fixture(scope="session")
def square_ifs():
    a = 0.5 * np.eye(2)
    ts = [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)]
    return fh.validate_ifs([(a, t) for t in ts])


@pytest.fixture(scope="session")
def square_width(square_ifs):
    return fh.solve_width(square_ifs, n_grid=4096, tol=1e-8)


@pytest.fixture(scope="session")
def segment_ifs():
    return fh.complex_base_ifs(2 + 0j, 2)


def disk_width(radius=1.0, n=2048, base=(0.0, 0.0)):
    grid = fh.DirectionGrid(n)
    return fh.make_width_samples(grid, base, np.full(n, radius),
                                 iter_error=1e-12,
                                 interp_slack=radius * math.pi / n)


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
