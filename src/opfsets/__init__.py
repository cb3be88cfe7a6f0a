"""Toolkit for orthogonal-pair-free subsets of the unit sphere.

Builds equal-area dyadic grids, certifies which cell pairs can contain two
orthogonal points, searches for large conflict-free selections, filters
cells by density against a target set, shrinks selections away from cell
boundaries, and convexifies them into disjoint spherical polygons.
"""

from .conflicts import (ConflictGraph, CorruptCacheError, DotRange,
                        ResourceCapError, build_conflict_graph, cells_conflict,
                        dot_range_cells, load_graph, save_graph,
                        selection_violations)
from .convexify import (ConvResult, ConvexDecomposition, ConvexPolygon,
                        HullInfeasibleError, certify_opf_polygons, check_pasch,
                        check_triangle_lemma, connected_components, conv, conv1,
                        conv2, convex_hull, convex_polygon_from_points,
                        hausdorff_distance, polygon_distance)
from .density import (DensityReport, MembershipOracle, cap_oracle,
                      cap_union_oracle, cell_densities, cell_set_oracle,
                      double_cap_oracle, polygon_set_oracle, select_dense_cells,
                      sieve_fractal_oracle)
from .grid import (CellSet, DyadicCell, all_cells, antipodal_cell, cell_area,
                   cell_bounds, cell_count, locate_coords, locate_point,
                   n_bands, neighbors, parent, theta_bounds)
from .scaling import (InfeasibleEpsilonError, OpfCertification, ScaleConstants,
                      ScaledRegion, ScaledRegions, ScaleSummary, choose_constants,
                      is_feasible, largest_feasible_epsilon, remove_polar_caps,
                      scale_set, scaled_measure_lower_bound, shrink_cell,
                      verify_scaled_opf)
from .search import (BEST_UPPER_BOUND, DOUBLE_CAP_FRACTION,
                     InfeasibleSelectionError, PUBLISHED_UPPER_BOUNDS,
                     SearchResult, double_cap_cellset, evaluate, exact_mis,
                     greedy_mis, local_search, write_leaderboard)
from .sphere import (Cap, GeodesicSegment, InfeasibleShrinkError,
                     OutOfHemisphereError, cap_area, from_polar,
                     geodesic_distance, gnomonic_project_batch,
                     gnomonic_unproject, lune_half_angle, sample_uniform_batch,
                     spherical_polygon_area, to_polar)

__version__ = "0.1.0"
