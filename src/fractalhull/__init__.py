"""Convex hulls of IFS attractors via support-function fixed points.

The attractor of a contracting iterated function system induces a
self-similarity equation for its support ("width") function; solving that
equation on a direction grid yields certified hull geometry: explicit
polygons, membership and proximity predicates, and closed forms for the
complex-base family.
"""

from .errors import (
    ConvergenceError,
    FractalHullError,
    NotContractingError,
    ValidationError,
)
from .ifs import (
    IFS,
    AffineMap,
    IFSDocument,
    PointCloud,
    affine_map,
    chaos_game_sample,
    complex_base_ifs,
    load_ifs_file,
    map_fixed_point,
    operator_norm,
    parse_ifs_document,
    validate_ifs,
)
from .width import (
    DirectionGrid,
    WidthSamples,
    circumradius,
    eval_width,
    hull_contains,
    rebase_width,
    selfsim_operator,
    solve_width,
    width_csv,
)
from .hull import (
    HullPolygon,
    Kink,
    detect_kinks,
    extract_polygon,
    polygon_area,
    polygon_json,
    polygon_perimeter,
)
from .analytic import (
    ComplexBaseSystem,
    TriangleParams,
    centered_width,
    complex_base_system,
    equal_maps_width,
    exact_polygon,
    hull_area,
    hull_perimeter,
    irrational_polygon,
    isodiametric_audit,
    isodiametric_gap,
    rational_width,
    symmetry_center,
)
from .query import (
    QueryContext,
    QueryResult,
    build_context,
    near,
    near1,
)
from .render import render_svg

__version__ = "0.1.0"

__all__ = [
    "AffineMap", "ComplexBaseSystem", "ConvergenceError", "DirectionGrid",
    "FractalHullError", "HullPolygon", "IFS", "IFSDocument", "Kink",
    "NotContractingError", "PointCloud", "QueryContext", "QueryResult",
    "TriangleParams", "ValidationError", "WidthSamples", "affine_map",
    "build_context", "centered_width", "chaos_game_sample", "circumradius",
    "complex_base_ifs", "complex_base_system", "detect_kinks",
    "equal_maps_width", "eval_width", "exact_polygon", "extract_polygon",
    "hull_area", "hull_contains", "hull_perimeter", "irrational_polygon",
    "isodiametric_audit", "isodiametric_gap", "load_ifs_file",
    "map_fixed_point", "near", "near1", "operator_norm",
    "parse_ifs_document", "polygon_area", "polygon_json", "polygon_perimeter",
    "rational_width", "rebase_width", "render_svg", "selfsim_operator",
    "solve_width", "symmetry_center", "validate_ifs", "width_csv",
]
