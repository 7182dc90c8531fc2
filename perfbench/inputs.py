"""Seeded inputs for the three workloads, built from numpy alone.

The same ``(workload, seed, tiny)`` always gives the same inputs, so the
workload process and the checking process build them independently.  A
system is a plain dict; ``maps`` holds ``(A, t)`` pairs as ndarrays.

Contraction factors sit on a fixed ladder over each workload's range and
the seed draws the rest (angles, digit counts, anisotropy, translations),
so that every seed yields a pool with nearly the same spread of costs and
figures stay comparable from seed to seed.  The random systems of
hull-slow and render-fine are the exception: they are drawn once, from
``POOL_SEED``, and the seed turns each about the origin (see
``_render_fine``), so every seed has the same failing inputs.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("hull-slow", "render-fine", "query")
POOL_SEED = 0

# Sizes per workload.  The tiny variants drive the smoke test only.
SIZES = {
    "hull-slow": dict(grid=4096, tol=1e-6, complex_n=2, affine_n=4),
    "render-fine": dict(grid=16384, tol=1e-6, points=5000, affine_n=10),
    "query": dict(grid=4096, tol=1e-6, probes=2048, random_contexts=4),
}
TINY = {
    "hull-slow": dict(grid=256, tol=1e-4, complex_n=1, affine_n=2),
    "render-fine": dict(grid=512, tol=1e-4, points=300, affine_n=2),
    "query": dict(grid=256, tol=1e-4, probes=32, random_contexts=2),
}


def rotation(a: float) -> np.ndarray:
    return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])


def complex_maps(r: float, phi: float, n: int):
    """Digit maps x -> (x + i)/z with z = r e^{i phi}, as (A, t) pairs."""
    w = 1.0 / complex(r * math.cos(phi), r * math.sin(phi))
    a = np.array([[w.real, -w.imag], [w.imag, w.real]])
    return [(a, np.array([(i * w).real, (i * w).imag])) for i in range(n)]


def fixed_point(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.linalg.solve(np.eye(2) - a, t)


def spectral_norm(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False)[0])


def affine_system(rng: np.random.Generator, n_maps: int, c: float):
    """Random planar system whose largest map norm is exactly ``c``.

    Map i is ``R(theta) diag(c_i, c_i s) R(psi)`` with ``c_0 = c``, the
    others' ``c_i`` in ``[0.95 c, c]`` and ``s`` in ``[0.85, 1]``, so the
    solver's rate stays close to ``c``; translations are uniform in [-1, 1]^2.
    """
    maps = []
    for i in range(n_maps):
        ci = c if i == 0 else rng.uniform(0.95 * c, c)
        s = rng.uniform(0.85, 1.0)
        a = rotation(rng.uniform(0, 2 * math.pi)) @ np.diag([ci, ci * s]) \
            @ rotation(rng.uniform(0, 2 * math.pi))
        maps.append((a, rng.uniform(-1.0, 1.0, 2)))
    return maps


def similarity_system(rng: np.random.Generator, n_maps: int, c: float):
    """Random system of similarities with ratio ``c``: a random rotation,
    a reflection half the time, translations uniform in [-1, 1]^2.

    Every direction contracts by exactly ``c``, so the solver's sweep count
    depends on ``c`` alone and costs repeat from seed to seed.
    """
    maps = []
    for _ in range(n_maps):
        flip = np.diag([1.0, -1.0]) if rng.uniform() < 0.5 else np.eye(2)
        a = c * rotation(rng.uniform(0, 2 * math.pi)) @ flip
        maps.append((a, rng.uniform(-1.0, 1.0, 2)))
    return maps


def turned(maps, rng: np.random.Generator):
    """The system conjugated by a random rotation about the origin, after a
    reflection half the time.  The attractor turns with it, so whether the
    origin lies in its hull does not change."""
    q = rotation(rng.uniform(0, 2 * math.pi))
    if rng.uniform() < 0.5:
        q = q @ np.diag([1.0, -1.0])
    return [(q @ a @ q.T, q @ t) for a, t in maps]


def ladder(lo: float, hi: float, count: int) -> np.ndarray:
    """Midpoints of ``count`` equal slices of [lo, hi]."""
    return lo + (hi - lo) * (np.arange(count) + 0.5) / count


def attractor_points(maps, rng: np.random.Generator, chains: int = 256,
                     steps: int = 160) -> np.ndarray:
    """Points of the attractor: images of the maps' fixed points under words.

    Every chain starts at a fixed point and applies random maps; each state
    is a word image of a fixed point, hence a point of the attractor.
    """
    a = np.stack([m[0] for m in maps])
    t = np.stack([m[1] for m in maps])
    fps = np.stack([fixed_point(*m) for m in maps])
    x = fps[np.arange(chains) % len(maps)]
    out = [fps]
    for _ in range(steps):
        pick = rng.integers(0, len(maps), chains)
        x = np.einsum("cij,cj->ci", a[pick], x) + t[pick]
        out.append(x)
    return np.concatenate(out)


def _hull_slow(rng, size):
    """The anchor, complex bases at random irrational angles, and random
    similarity systems drawn from ``POOL_SEED`` and turned by the seed.

    Now and then a drawn system's origin lies outside its hull, and its ops
    raise; drawn afresh per seed, such a system came up in one seed of
    twenty, so two sets of seeds could differ in their failed share.  The
    pool is drawn once, unfiltered, as in ``_render_fine``.  A complex base
    at an irrational angle always holds the origin inside its hull.
    """
    pool = np.random.default_rng([POOL_SEED, WORKLOADS.index("hull-slow")])
    systems = [dict(kind="complex", r=1.05, phi=2.0, n=2)]  # the slow anchor
    for j, r in enumerate(ladder(1.03, 1.11, size["complex_n"])):
        systems.append(dict(kind="complex", r=float(r),
                            phi=float(rng.uniform(0.3, math.pi - 0.3)), n=2 + j % 2))
    for j, c in enumerate(ladder(0.9, 0.97, size["affine_n"])):
        maps = similarity_system(pool, 2 + j % 3, float(c))
        systems.append(dict(kind="affine", maps=turned(maps, rng)))
    return systems


def _render_fine(rng, size):
    """Two complex bases and random affine systems drawn from ``POOL_SEED``.

    Whether a system's origin lies outside its hull (the ops that raise) is
    decided by its draw, and these small, often thin systems are prone to
    it.  Drawn afresh per seed, the failing share moved between 16% and 34%
    over five seeds, and ``ops_per_s`` with it; so the pool is drawn once,
    unfiltered, and the seed only turns each system about the origin, which
    keeps both its cost and whether it raises.
    """
    pool = np.random.default_rng([POOL_SEED, WORKLOADS.index("render-fine")])
    systems = [
        dict(kind="complex", r=math.sqrt(2.0), phi=math.pi / 4, n=2),  # twindragon: exact
        dict(kind="complex", r=2.0, phi=1.0, n=2),  # off-grid rotation: numeric
    ]
    for j, c in enumerate(ladder(0.3, 0.7, size["affine_n"])):
        maps = affine_system(pool, 2 + j % 3, float(c))
        systems.append(dict(kind="affine", maps=turned(maps, rng)))
    for s in systems:
        s["chaos_seed"] = int(rng.integers(0, 2**31))
    return systems


def _query(rng, size):
    """The twindragon plus random 2-3-map systems with c <= 0.5.

    The twindragon gets half the probes and the random systems share the
    other half, so the seed-to-seed variation of any one random system is
    averaged out.
    """
    contexts = [dict(kind="complex", r=math.sqrt(2.0), phi=math.pi / 4, n=2)]
    for j, c in enumerate(ladder(0.25, 0.5, size["random_contexts"])):
        contexts.append(dict(kind="affine", maps=affine_system(rng, 2 + j % 2, float(c))))
    for ctx in contexts:
        cm = system_maps(ctx)
        ctx["x0"] = np.mean([fixed_point(a, t) for a, t in cm], axis=0)
        pts = attractor_points(cm, rng)
        ctx["R"] = float(np.max(np.linalg.norm(pts - ctx["x0"], axis=1)))
    parts = []
    for ci, ctx in enumerate(contexts):
        q = size["probes"] // (1 if ci == 0 else size["random_contexts"])
        j = np.arange(q)
        word = j % 2 == 0  # half the probes start at a word image, half at x0
        cm = system_maps(ctx)
        a = np.stack([m[0] for m in cm])
        t = np.stack([m[1] for m in cm])
        x = np.stack([fixed_point(*m) for m in cm])[rng.integers(len(cm), size=q)]
        length = rng.integers(1, 9, size=q)
        for step in range(8):
            pick = rng.integers(0, len(cm), q)
            moved = np.einsum("qij,qj->qi", a[pick], x) + t[pick]
            x = np.where((step < length)[:, None], moved, x)
        # word images move off by up to 0.2 R; the rest fill the disk of 1.2 R
        rad = np.where(word, 0.2, 1.2) * ctx["R"] * np.sqrt(rng.uniform(size=q))
        ang = rng.uniform(0, 2 * math.pi, q)
        centre = np.where(word[:, None], x, ctx["x0"])
        parts.append(dict(
            ctx=np.full(q, ci),
            x=centre + rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1),
            kind=((j // 2) % 4 == 3).astype(int),  # 1: near(x, k), 0: near1(x, l)
            l=np.array([0.1, 0.01, 0.001])[j % 3] * ctx["R"],
            k=np.where((j // 8) % 2 == 0, 4, 12),
        ))
    probes = {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}
    return contexts, probes


def system_maps(spec):
    """The (A, t) pairs of a system spec."""
    if spec["kind"] == "complex":
        return complex_maps(spec["r"], spec["phi"], spec["n"])
    return spec["maps"]


def make(workload: str, seed: int, tiny: bool = False) -> dict:
    """All inputs of one run: sizes plus the systems (and probes for query)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = dict((TINY if tiny else SIZES)[workload])
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "hull-slow":
        return dict(size=size, systems=_hull_slow(rng, size))
    if workload == "render-fine":
        return dict(size=size, systems=_render_fine(rng, size))
    contexts, probes = _query(rng, size)
    return dict(size=size, systems=contexts, probes=probes)
