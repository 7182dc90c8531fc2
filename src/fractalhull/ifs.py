"""Iterated function systems: contracting affine maps, validation, sampling.

Matrices and vectors are plain float ndarrays.  An :class:`AffineMap` is one
contraction ``x -> A x + t`` with its spectral norm cached; an :class:`IFS`
is a validated family of such maps sharing a dimension, built from
``(A, t)`` pairs.  The chaos game provides an independent sampling oracle
for the attractor, used throughout the test suite to audit everything built
on top; one sampler, vectorised over chains started spread out at distinct
word images of a fixed point (so nothing is burnt in), serves every
dimension.  Systems are read from the JSON input format of
:func:`parse_ifs_document`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotContractingError, ValidationError

_MAX_CHAINS = 1024
# complex-base digit counts above this are refused (one map per digit)
_MAX_DIGITS = 2**12
# a blocked array pass works in at most this many float64 entries (8 MiB),
# unless its caller passes fewer
_BLOCK_ENTRIES = 2**20
# a chaos-game cloud holds at most this many coordinates (64 MiB)
_MAX_CLOUD_ENTRIES = 2**23


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def _check_int(value, what: str, least: int) -> int:
    """``value`` as an int, if it is a Python or numpy integer or an
    integral float (not a bool), finite and at least ``least``; else raise."""
    if type(value) is int and value >= least:
        return value
    if (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and math.isfinite(value)
            and value == int(value) and value >= least):
        return int(value)
    raise ValidationError(f"{what} must be a finite integer >= {least}, got {value!r}")


def _check_finite(x, what: str, shape=None) -> np.ndarray:
    """``x`` as a float array, if its dtype is numeric (bool, integer or
    float: not strings, objects or complex numbers), every entry is finite
    and it has ``shape`` (``None`` in it matches any length, and
    ``shape=None`` any shape); else raise."""
    try:
        arr = np.asarray(x)
    except (TypeError, ValueError):  # ragged nesting
        arr = np.array(None)
    if (arr.dtype.kind not in "biuf"
            or shape is not None and (arr.ndim != len(shape) or any(
                s not in (None, d) for s, d in zip(shape, arr.shape)))
            or not np.isfinite(arr).all()):
        raise ValidationError(
            f"{what} must be finite numbers{'' if shape is None else f' of shape {shape}'}"
            f", got {arr.dtype} of shape {arr.shape}")
    return arr.astype(float, copy=False)


def _row_blocks(rows, width: int, fn, entries: int | None = None) -> np.ndarray:
    """The arrays ``fn(block, buf)`` returns for consecutive blocks of
    ``rows`` (an array or a range), concatenated.  A block has at most
    ``entries // width`` rows (at least one); ``buf`` holds ``width``
    float64 entries per row of it, in one scratch array of at most
    ``entries`` float64s (``_BLOCK_ENTRIES`` when None) unless one row takes
    more.  When one block holds every row, ``fn``'s array is returned as it is."""
    size = max(1, min(len(rows), (entries or _BLOCK_ENTRIES) // width))
    buf = np.empty(size * width)
    if size >= len(rows):
        return fn(rows, buf[:len(rows) * width])
    blocks = (rows[lo:lo + size] for lo in range(0, len(rows), size))
    return np.concatenate([fn(block, buf[:len(block) * width]) for block in blocks])


def _check_square(a) -> np.ndarray:
    a = _check_finite(a, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    return a


def operator_norm(a) -> float:
    """Spectral norm sup_{|x|=1} |Ax| of a square matrix.

    Closed-form largest singular value for 1x1 and 2x2 matrices; LAPACK's
    singular values (``numpy.linalg.norm(a, 2)``) for anything larger.
    """
    a = _check_square(a)
    m = a.shape[0]
    if m == 1:
        return abs(float(a[0, 0]))
    if m == 2:
        g = a.T @ a
        mean = 0.5 * (g[0, 0] + g[1, 1])
        off = math.hypot(0.5 * (g[0, 0] - g[1, 1]), g[0, 1])
        return math.sqrt(max(mean + off, 0.0))
    return float(np.linalg.norm(a, 2))


@dataclass(frozen=True)
class AffineMap:
    """One contracting affine map x -> Ax + t with its cached operator norm c."""

    a: np.ndarray
    t: np.ndarray
    c: float

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def __call__(self, x) -> np.ndarray:
        return self.a @ np.asarray(x, dtype=float) + self.t


def affine_map(a, t) -> AffineMap:
    """Validate and build an :class:`AffineMap`, caching its operator norm.

    ``a`` must be a finite square matrix and ``t`` a finite vector of its
    dimension, both of numbers (strings are refused).  Both are copied, so
    the caller's arrays stay writeable.
    """
    a = _readonly(_check_square(a).copy())
    t = _readonly(_check_finite(t, "translation", (a.shape[0],)).copy())
    c = operator_norm(a)
    if c >= 1.0:
        raise NotContractingError(f"map is not contracting, c={c:.6g}")
    return AffineMap(a, t, c)


@dataclass(frozen=True)
class IFS:
    """A validated finite family of contracting affine maps sharing a dimension.

    ``a`` and ``t`` stack the maps' linear parts, shape (m, dim, dim), and
    translations, shape (m, dim), read-only: built once, for the sampler.
    """

    maps: tuple[AffineMap, ...]
    dim: int
    c: float
    a: np.ndarray = field(repr=False, compare=False)
    t: np.ndarray = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.maps)


def validate_ifs(maps) -> IFS:
    """Check a family of ``(A, t)`` pairs and assemble an :class:`IFS`.

    Each pair becomes an :class:`AffineMap` through :func:`affine_map`.
    Rejects an empty family, an item that is not a pair, mixed dimensions,
    and any non-contracting member (the error names the 1-based index and
    the offending norm).
    """
    items = list(maps)
    if not items:
        raise ValidationError("an IFS needs at least one map")
    built: list[AffineMap] = []
    for i, item in enumerate(items, start=1):
        try:
            a, t = item
        except (TypeError, ValueError):
            raise ValidationError(f"map {i} must be an (A, t) pair") from None
        try:
            built.append(affine_map(a, t))
        except NotContractingError:
            c = operator_norm(a)
            raise NotContractingError(
                f"map {i} is not contracting, c_{i}={c:.6g}"
            ) from None
    dim = built[0].dim
    for i, m in enumerate(built, start=1):
        if m.dim != dim:
            raise ValidationError(
                f"map {i} has dimension {m.dim}, expected {dim}"
            )
    return IFS(tuple(built), dim, max(m.c for m in built),
               _readonly(np.stack([m.a for m in built])),
               _readonly(np.stack([m.t for m in built])))


def map_fixed_point(m: AffineMap) -> np.ndarray:
    """Fixed point x* = (I - A)^{-1} t of one map; always a point of the attractor."""
    return np.linalg.solve(np.eye(m.dim) - m.a, m.t)


@dataclass(frozen=True)
class PointCloud:
    """Chaos-game samples of an attractor, deterministic for fixed inputs."""

    points: np.ndarray  # (count, dim)

    def __len__(self) -> int:
        return self.points.shape[0]


def chaos_game_sample(ifs: IFS, count: int, seed: int) -> PointCloud:
    """Random-iteration sampling of the attractor, stratified by words.

    Advances ``min(1024, count // 2)`` chains (at least 1) side by side,
    each moved by a uniformly chosen map per step, and records every point
    from the chains' starts on.  Chain k starts at the k-th image ``f_w(x*)``
    of the first map's fixed point x* under the words w of the least length
    with m^length >= chains (x* itself for one map), listed newest
    (outermost) letter fastest: distinct cylinders ``f_w(K)``, first letters
    balanced to within one, and with more maps than chains the maps' order
    is drawn with the seed.  Every point is a word image of x*, a point of
    K up to rounding, and the starts are spread already: no burn-in.
    Output is bit-for-bit reproducible for identical ``(ifs, count,
    seed)``; count >= 1 and seed >= 0 are Python or numpy integers or
    integral floats, and ``count * dim`` is at most ``_MAX_CLOUD_ENTRIES``
    = 2**23, checked before any allocation.
    """
    count = _check_int(count, "count", 1)
    seed = _check_int(seed, "seed", 0)
    if count * ifs.dim > _MAX_CLOUD_ENTRIES:
        raise ValidationError(f"count x dimension must be at most {_MAX_CLOUD_ENTRIES}, "
                              f"got {count} x {ifs.dim}")
    m, dim = len(ifs.maps), ifs.dim
    chains = max(1, min(_MAX_CHAINS, count // 2))
    rng = np.random.default_rng(seed)
    a, t = ifs.a, ifs.t
    idx = rng.integers(0, m, size=(-(-count // chains) - 1, chains))
    order = rng.permutation(m) if m > chains else slice(None)
    x = map_fixed_point(ifs.maps[0])[None]
    while m > 1 and len(x) < chains:  # a letter more, only on the words needed
        x = np.einsum("mij,kj->kmi", a[order], x[:-(-chains // m)]) + t[order]
        x = x.reshape(-1, dim)
    pts = np.empty((len(idx) + 1, chains, dim))
    pts[0] = x[:chains]
    ai, ti = np.empty((chains, dim, dim)), np.empty((chains, dim))
    for prev, out, i in zip(pts, pts[1:], idx):
        np.einsum("cij,cj->ci", np.take(a, i, axis=0, out=ai), prev, out=out)
        np.add(out, np.take(t, i, axis=0, out=ti), out=out)
    return PointCloud(_readonly(pts.reshape(-1, dim)[:count]))


def _check_complex_base(z: complex, n: int) -> tuple[complex, int]:
    """``(complex(z), int(n))`` for an integer ``2 <= n <= _MAX_DIGITS`` =
    2**12 (an integral float counts) and a number ``z`` (of a numeric dtype,
    complex allowed: not a string) with ``|z| > 1`` whose square is finite
    (beyond, ``1/z`` and ``(n-1)/(2(z-1))`` overflow).  The cap is checked
    before any map is built: each digit is one map.  The digits share one
    linear part, so the operator plan holds one entry whatever ``n``, but
    building it still takes one pass over the grid angles per digit."""
    arr = np.asarray(z)
    if arr.shape or arr.dtype.kind not in "biufc":
        raise ValidationError(f"complex base must be a number, got {z!r}")
    z = complex(arr)
    if not math.isfinite(abs(z) * abs(z)):
        raise ValidationError(f"complex base needs a finite |z|^2, got {z!r}")
    if abs(z) <= 1.0:
        raise ValidationError("complex base needs |z| > 1")
    n = _check_int(n, "digit count n", 2)
    if n > _MAX_DIGITS:
        raise ValidationError(f"digit count n must be at most {_MAX_DIGITS}, got {n}")
    return z, n


def complex_base_ifs(z: complex, n: int) -> IFS:
    """Digit maps x -> (x + i)/z, i = 0..n-1, of a complex-base numeral system.

    The attractor is the set of fractional parts representable in base ``z``
    with digits ``0..n-1``; all maps share the similarity matrix of ``1/z``,
    so the contraction factor is ``1/|z|``.  ``n`` is an integer from 2 to
    2**12 (see :func:`_check_complex_base`).
    """
    z, n = _check_complex_base(z, n)
    w = 1.0 / z
    a = np.array([[w.real, -w.imag], [w.imag, w.real]])
    shifts = [i * w for i in range(n)]
    return validate_ifs([(a, (s.real, s.imag)) for s in shifts])


@dataclass(frozen=True)
class IFSDocument:
    """Parsed IFS input file: the validated system plus optional base metadata."""

    ifs: IFS
    complex_base: tuple[complex, int] | None = None


def parse_ifs_document(text: str) -> IFSDocument:
    """Parse the JSON IFS input format.

    Two layouts are accepted::

        {"dim": m, "maps": [{"A": [[...]], "t": [...]}, ...]}
        {"complex_base": {"z": [re, im], "n": n}}

    Anything failing :func:`validate_ifs` is rejected, and so is a digit
    count ``n`` outside 2 to 2**12.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError("top-level JSON value must be an object")
    if "complex_base" in doc:
        spec = doc["complex_base"]
        try:
            re_, im_ = spec["z"]
            n = spec["n"]
            z = complex(re_, im_)  # refuses strings; float() would parse them
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ValidationError(
                'complex_base needs {"z": [re, im], "n": n} with numbers re, im'
            ) from None
        n = _check_int(n, "complex_base n", 2)
        return IFSDocument(complex_base_ifs(z, n), complex_base=(z, n))
    if "maps" not in doc:
        raise ValidationError('expected a "maps" or "complex_base" key')
    if not isinstance(doc["maps"], list):
        raise ValidationError('"maps" must be a list')
    pairs = []
    for entry in doc["maps"]:
        try:
            pairs.append((entry["A"], entry["t"]))
        except (KeyError, TypeError):
            raise ValidationError('each map needs "A" and "t"') from None
    ifs = validate_ifs(pairs)
    if "dim" in doc and _check_int(doc["dim"], "dim", 1) != ifs.dim:
        raise ValidationError(
            f'declared dim {doc["dim"]} does not match maps of dimension {ifs.dim}'
        )
    return IFSDocument(ifs)


def load_ifs_file(path) -> IFSDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ifs_document(fh.read())
