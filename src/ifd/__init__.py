"""Integral and average Frechet distance, (1+eps)-approximated.

Build two weighted monotone graphs over the parameter space of a curve
pair, run a shortest-path search on both, and report the minimum; the
library also exposes exact in-cell shortest paths, partial-similarity
profiles, and the locally-optimal matching transform.
"""

from . import errors
from .cell_paths import (
    CellPath,
    SimilarityProfile,
    cell_shortest_path,
    partial_similarity_profile,
    staircase_fallback_path,
    two_cell_path,
)
from .curves import CurveStats, PolygonalCurve, build_curve, point_at, stats
from .graphs import (
    ApproxResult,
    GraphConfig,
    MonotoneDigraph,
    approximate_integral_frechet,
    build_g1,
    build_g2,
    build_grid_ball,
)
from .integrals import (
    WeightedSegment,
    arsinh_form,
    piece_weights,
    quadrature_weighted_length,
    segment_weighted_length,
    split_at_parameter_lines,
    weighted_length,
)
from .matching import (
    MonotonePath,
    evaluate_matching,
    locally_optimize,
    matching_cost,
    max_leash,
)
from .param_space import (
    CellGrid,
    EllipseSlice,
    FreeSpaceAxes,
    GridEdge,
    ParameterCell,
    ParameterPoint,
    build_cells,
    edge_min,
    ellipse_slice,
    free_space_axes,
    weight,
)
from .shortest_path import (
    PathResult,
    bellman_ford,
    dense_grid_oracle,
    dijkstra,
    staircase_cell_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "PolygonalCurve", "CurveStats", "build_curve", "point_at", "stats",
    "ParameterPoint", "ParameterCell", "CellGrid", "FreeSpaceAxes",
    "EllipseSlice", "GridEdge", "weight", "build_cells", "free_space_axes",
    "edge_min", "ellipse_slice",
    "WeightedSegment", "split_at_parameter_lines", "weighted_length",
    "arsinh_form", "piece_weights", "quadrature_weighted_length",
    "segment_weighted_length",
    "CellPath", "SimilarityProfile", "cell_shortest_path", "two_cell_path",
    "partial_similarity_profile", "staircase_fallback_path",
    "GraphConfig", "MonotoneDigraph", "ApproxResult", "build_g1", "build_g2",
    "build_grid_ball", "approximate_integral_frechet",
    "PathResult", "dijkstra", "bellman_ford", "dense_grid_oracle",
    "staircase_cell_oracle",
    "MonotonePath", "matching_cost", "evaluate_matching", "locally_optimize",
    "max_leash",
]
