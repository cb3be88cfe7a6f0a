"""Convexification of cell selections into disjoint spherical convex polygons.

Stage 1 groups the selection into connected components (closure adjacency,
including corners, the azimuthal wraparound, and the poles) and replaces each
component by the spherical convex hull of its sampled boundary, computed via
gnomonic projection about the component centroid.  Stage 2 repeatedly merges
any two polygons at (numerically) zero distance by hulling their vertex
unions, until all pairwise distances are positive.  Latitude cell edges are
small-circle arcs, so hulls are inner approximations that converge as the
per-edge sampling resolution grows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .grid import CellSet, cell_bounds_batch, n_bands, write_json
from .sphere import (GeodesicSegment, NORMALIZATION_TOL, PREDICATE_TOL,
                     _running_sum, geodesic_distance, gnomonic_project_batch,
                     gnomonic_unproject, spherical_polygon_area, tangent_basis)

HEMISPHERE_MARGIN = 1e-9
MERGE_TOL = 1e-9  # conv2 merges polygons this close, so the ones it returns are disjoint
SEGMENT_SAMPLES = 16  # points per geodesic that check_triangle_lemma tests
# angle slack of the endpoint prunes: a pair they drop is past every exact
# test by more than the rounding of arccos near 0 (~1e-8) and the on-arc tolerance
FOOT_SLACK = 1e-6
# dot-product margin by which a bounding-cap shortcut must clear its limit,
# far above the rounding of the cap radii (~1e-8 near 0) and of any dot
CAP_MARGIN = 1e-6
# rows per tile of a vertex Gram matrix pass (contains_batch,
# certify_opf_polygons), of _points_arcs_min and of a k-d tree query of
# polygon_distance, which so pairs no more rows at once than a Gram tile
# holds, and cells per tile of convex_hull's samples (~300 kB at 32 samples
# an arc).  Tiles start at multiples of it and the last one takes the
# remainder, so no tile has a single row (numpy sends those to gemv, which
# rounds differently).  It is a multiple of every common gemm unroll (2, 4,
# 8, 12, 16, 24): measured with single-threaded OpenBLAS, each tile's entries
# are then the full product's bit for bit, while unaligned tiles of 64 rows
# and more were not.  Multi-threaded BLAS splits a product by its shape, so
# there a few entries may round otherwise unless the column count is a multiple of 8.
GRAM_TILE = 192


def _tiles(n: int) -> list[tuple[int, int]]:
    """(start, stop) row ranges of GRAM_TILE rows, the remainder joined to the last."""
    stops = list(range(GRAM_TILE, n - GRAM_TILE + 1, GRAM_TILE)) + [n]
    return list(zip([0] + stops[:-1], stops))


def _gram_tiles(x: np.ndarray, y: np.ndarray):
    """(start, rows of x @ y.T) per tile of x's rows."""
    for r0, r1 in _tiles(len(x)):
        yield r0, x[r0:r1] @ y.T


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . y over the last axis as (x0 y0 + x1 y1) + x2 y2, in numpy ufuncs.

    Not BLAS: each value is the same double whatever the array shapes, the
    broadcasting or the thread count, and _dot(x, y) == _dot(y, x).
    """
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


def _angles(dots):
    return np.arccos(np.clip(dots, -1.0, 1.0))


def _chord(angle: float) -> float:
    """Chord length of a geodesic distance; inf from pi on, where every pair is in reach."""
    return 2.0 * math.sin(angle / 2.0) if angle < math.pi else math.inf


def _pairs_within(x: np.ndarray, tree: cKDTree, radius: float):
    """(i, j, chord) of each row x[i] and tree point j at most radius apart, by row tiles."""
    for r0, r1 in _tiles(len(x)):
        hits = cKDTree(x[r0:r1]).sparse_distance_matrix(tree, radius, output_type="ndarray")
        yield hits["i"] + r0, hits["j"], hits["v"]


def _cross2(u, v) -> float:
    """Scalar cross product of planar vectors."""
    return float(u[0] * v[1] - u[1] * v[0])


class HullInfeasibleError(ValueError):
    """Component does not fit strictly inside an open hemisphere."""


@dataclass(frozen=True, eq=False)
class ConvexPolygon:
    """Geodesic convex polygon, vertices counterclockwise seen from outside.

    All vertices lie strictly within pi/2 of hemisphere_center, so the
    gnomonic chart about that center is a faithful planar model.
    """

    vertices: np.ndarray  # (n, 3) unit vectors
    hemisphere_center: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 3:
            raise ValueError(f"need an (n>=3, 3) vertex array, got shape {v.shape}")
        if np.any(v @ self.hemisphere_center <= math.sin(HEMISPHERE_MARGIN)):
            raise HullInfeasibleError("vertex outside the open hemisphere of the witness")

    def __len__(self) -> int:
        return len(self.vertices)

    def contains_batch(self, points: np.ndarray, tol: float = PREDICATE_TOL) -> np.ndarray:
        """Rowwise closed containment of an (m, 3) array, edges widened by tol."""
        a = self.vertices
        inside = (points @ self.hemisphere_center) > 0.0
        normals = np.cross(a, np.roll(a, -1, axis=0))
        for r0, g in _gram_tiles(points, normals):
            inside[r0:r0 + len(g)] &= np.all(g >= -tol, axis=1)
        return inside

    def area(self) -> float:
        """Girard area, computed once per polygon."""
        return self._girard_area

    @cached_property
    def _girard_area(self) -> float:
        return spherical_polygon_area(self.vertices)

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, ends, unit normals) of all edges; normals point to the interior side."""
        a = self.vertices
        b = np.roll(a, -1, axis=0)
        n = np.cross(a, b)
        norms = np.linalg.norm(n, axis=1, keepdims=True)
        return a, b, n / np.maximum(norms, NORMALIZATION_TOL)

    @cached_property
    def vertex_tree(self) -> cKDTree:
        """k-d tree of the vertices: their chords order geodesic distances."""
        return cKDTree(self.vertices)

    @cached_property
    def arc_tree(self) -> tuple[np.ndarray, np.ndarray, float, cKDTree]:
        """(edge lengths, edge of each tree point, longest piece, k-d tree).

        Each edge is cut into max(1, floor(len / mean len)) equal pieces, at
        most 2 n in all, and the tree holds the midpoint of every piece: a
        point of an edge is within half a piece of one of them.
        """
        a, b, n = self.edges
        length = _arc_lengths(a, b)
        pieces = np.divide(length, length.mean(), out=np.zeros_like(length), where=length > 0)
        pieces = np.maximum(1.0, np.floor(pieces))
        edge = np.repeat(np.arange(len(a)), pieces.astype(int))
        first = np.searchsorted(edge, edge)             # where each edge's pieces start
        t = (np.arange(len(edge)) - first + 0.5) * (length / pieces)[edge]
        mid = np.cos(t)[:, None] * a[edge] + np.sin(t)[:, None] * np.cross(n[edge], a[edge])
        return length, edge, float((length / pieces).max()), cKDTree(mid)

    @cached_property
    def bounding_cap(self) -> tuple[np.ndarray, float]:
        """(unit centre, R): the cap about hemisphere_center out to the farthest vertex.

        R < pi/2, so the cap is convex and holds the polygon with its vertices.
        """
        c = self.hemisphere_center / np.linalg.norm(self.hemisphere_center)
        return c, float(np.arccos(np.clip((self.vertices @ c).min(), -1.0, 1.0)))

    @cached_property
    def reach(self) -> float:
        """R + w: no point that contains_batch or an on-arc test on an edge
        accepts lies farther than this from the cap centre.

        contains_batch admits a point sin(d) = tol / |a x b| past an edge and,
        near a vertex of interior angle theta, 1 / sin(theta/2) times that,
        with sin(theta/2)^2 = (1 + n_prev . n) / 2 for the unit edge normals;
        w is the asin of the worst case, pi/2 once that reaches 1.  An on-arc
        test admits asin(tol) <= w past an arc end (README, Guarantees).
        """
        a, b, unit = self.edges
        norms = np.linalg.norm(np.cross(a, b), axis=1)
        turn = float(np.einsum("ei,ei->e", np.roll(unit, 1, axis=0), unit).min())
        widen = PREDICATE_TOL / max(norms.min() * math.sqrt(max(0.0, 1.0 + turn) / 2.0),
                                    PREDICATE_TOL)
        return self.bounding_cap[1] + math.asin(widen)

    def boundary_samples(self, per_edge: int = 8) -> np.ndarray:
        pts = []
        for a, b in zip(self.vertices, np.roll(self.vertices, -1, axis=0)):
            seg = GeodesicSegment(a, b)
            for j in range(per_edge):
                pts.append(seg.point_at(j / per_edge))
        return np.asarray(pts)

    def to_json(self) -> dict:
        # tolist gives each double exactly; JSON writes its shortest repr
        return {
            "vertices": np.asarray(self.vertices, dtype=float).tolist(),
            "hemisphere_center": np.asarray(self.hemisphere_center, dtype=float).tolist(),
        }


def _unit_sum(total: np.ndarray) -> np.ndarray:
    """The hemisphere centre of points that sum to total."""
    norm = np.linalg.norm(total)
    if norm < NORMALIZATION_TOL:
        raise HullInfeasibleError("points do not determine a hemisphere")
    return total / norm


def convex_polygon_from_points(points: np.ndarray,
                               center: np.ndarray | None = None) -> ConvexPolygon:
    """Spherical convex hull of points via gnomonic projection about their centroid."""
    pts = np.asarray(points, dtype=float)
    center = _unit_sum(pts.sum(axis=0)) if center is None else center
    dots = pts @ center
    if np.any(dots <= math.sin(HEMISPHERE_MARGIN)):
        raise HullInfeasibleError(
            f"point at distance >= pi/2 - {HEMISPHERE_MARGIN:g} from the centroid")
    basis = tangent_basis(center)
    planar = gnomonic_project_batch(center, pts, basis)
    try:
        hull = ConvexHull(planar)
    except QhullError as exc:
        raise HullInfeasibleError(f"degenerate point set: {exc}") from exc
    verts = pts[hull.vertices]
    verts = verts / np.linalg.norm(verts, axis=1, keepdims=True)
    return ConvexPolygon(verts, center)


def _component_boundary_points(component: CellSet, arc_samples: int):
    """Cell corners plus sampled latitude arcs (small circles need sampling),
    as (points, hull) per tile of GRAM_TILE cells.

    Per cell in member order: its top then its bottom latitude arc, as
    arc_samples + 1 points from phi_lo to phi_hi, or one point at a pole.
    Sines and cosines come from math on each distinct angle and multiply as
    in from_polar, so every point is from_polar's bit for bit.

    hull is False strictly inside an arc that the cell shares with the
    member above or below it: such a sample lies inside the meridian segment
    (< pi) between the top and bottom samples of its sector's run of
    members, which are kept, so it is no hull vertex.  Corners stay: qhull
    starts its vertex list elsewhere on some components without them.
    """
    cells = component.array()
    n = n_bands(component.level)
    o = cells[:, 0] * n + cells[:, 1]  # the cells above and below are o - n and o + n
    shared = np.stack([np.isin(o + d, o) for d in (-n, n)], axis=1)
    bands, band_of = np.unique(cells[:, 0], return_inverse=True)
    sectors, sector_of = np.unique(cells[:, 1], return_inverse=True)
    (cos_lo, cos_hi), _ = cell_bounds_batch(component.level, bands, 0)
    _, (plo, phi) = cell_bounds_batch(component.level, 0, sectors)
    j = np.arange(arc_samples + 1)
    phis = plo[:, None] + (phi - plo)[:, None] * j / arc_samples      # (sectors, J)
    theta = [(math.acos(min(1.0, hi)), math.acos(max(-1.0, lo)))
             for lo, hi in zip(cos_lo.tolist(), cos_hi.tolist())]     # (bands, 2)

    def mapped(fn, x):
        return np.array([[fn(v) for v in row] for row in np.asarray(x).tolist()])

    st, ct = mapped(math.sin, theta)[:, :, None], mapped(math.cos, theta)[:, :, None]
    cp, sp = mapped(math.cos, phis)[:, None, :], mapped(math.sin, phis)[:, None, :]
    pole = np.isin(theta, (0.0, math.pi))[:, :, None]
    for r0, r1 in _tiles(len(cells)):
        b, s = band_of[r0:r1], sector_of[r0:r1]
        pts = np.empty((r1 - r0, 2, len(j), 3))
        pts[..., 0] = st[b] * cp[s]
        pts[..., 1] = st[b] * sp[s]
        pts[..., 2] = ct[b]
        keep = ~pole[b] | (j == 0)
        yield pts[keep], ~(shared[r0:r1, :, None] & (j > 0) & (j < arc_samples))[keep]


def connected_components(selection: CellSet) -> list[CellSet]:
    """Partition under closure adjacency; deterministic lowest-cell-first order.

    Cells meet across edges and corners, across the azimuthal wraparound,
    and at a pole, where all cells of the top (or bottom) band meet.
    """
    # imported here: scipy.sparse.csgraph adds ~0.1 s to every `import opfsets`
    from scipy.sparse.csgraph import connected_components as graph_components

    if len(selection) == 0:
        return []
    cells = selection.array()
    n = n_bands(selection.level)
    index = np.full((n + 1, n), -1)             # row n: an empty guard band
    index[cells[:, 0], cells[:, 1]] = np.arange(len(cells))
    src, dst = [], []
    for db, ds in ((0, 1), (1, -1), (1, 0), (1, 1)):  # the other four are their reverses
        nb = index[cells[:, 0] + db, (cells[:, 1] + ds) % n]
        src.append(np.flatnonzero(nb >= 0))
        dst.append(nb[nb >= 0])
    for pole_band in (0, n - 1):                # each pole cell to the first one
        at_pole = np.flatnonzero(cells[:, 0] == pole_band)
        src.append(at_pole)
        dst.append(np.repeat(at_pole[:1], len(at_pole)))
    src, dst = np.concatenate(src), np.concatenate(dst)
    count, labels = graph_components(
        coo_matrix((np.ones(len(src)), (src, dst)), shape=(len(cells), len(cells))),
        directed=False)
    order = np.argsort(labels, kind="stable")   # members ascend within each component
    groups = np.split(order, np.cumsum(np.bincount(labels, minlength=count))[:-1])
    groups.sort(key=lambda g: g[0])
    return [CellSet(selection.level, cells[g]) for g in groups]


def convex_hull(component: CellSet, arc_samples: int = 32) -> ConvexPolygon:
    """Hull of a component, its latitude arcs sampled at arc_samples points.

    Hulls are inner approximations that converge as arc_samples grows.
    qhull gets the samples _component_boundary_points marks; the centre sums
    them all, left to right tile by tile as pts.sum(axis=0) adds rows.
    """
    if len(component) == 0:
        raise ValueError("cannot hull an empty component")
    if arc_samples < 1:
        raise ValueError(f"arc_samples must be at least 1, got {arc_samples}")
    total, kept = np.empty((0, 3)), []
    for pts, hull in _component_boundary_points(component, arc_samples):
        total = np.concatenate([total, pts]).sum(axis=0, keepdims=True)
        kept.append(pts[hull])
    return convex_polygon_from_points(np.concatenate(kept), _unit_sum(total[0]))


@dataclass(frozen=True)
class ConvexDecomposition:
    """Polygons with their pairwise distance matrix (inf on the diagonal)."""

    polygons: tuple
    distances: np.ndarray = field(compare=False, repr=False)

    @property
    def pairwise_min_distance(self) -> float:
        return float(self.distances.min(initial=math.inf))

    def __len__(self) -> int:
        return len(self.polygons)

    def total_area(self) -> float:
        return _running_sum(np.array([p.area() for p in self.polygons]))

    def to_json(self) -> dict:
        return {"polygons": [p.to_json() for p in self.polygons],
                "pairwise_min_distance": self.pairwise_min_distance}

    def save(self, path) -> None:
        write_json(path, self.to_json())


def _on_arcs(x: np.ndarray, a: np.ndarray, b: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Rowwise: does point x lie on the minor arc a -> b with unit normal n?"""
    tol = PREDICATE_TOL
    return (_dot(np.cross(a, x), n) >= -tol) & (_dot(np.cross(x, b), n) >= -tol)


def _feet_on_arcs(points: np.ndarray, s: np.ndarray, a: np.ndarray, b: np.ndarray,
                  n: np.ndarray) -> np.ndarray:
    """Rowwise: does the foot of points on the circle of a -> b, at signed sine s, lie on the arc?"""
    feet = points - s[:, None] * n
    fn = np.linalg.norm(feet, axis=1)
    feet = feet / np.maximum(fn, NORMALIZATION_TOL)[:, None]
    return (fn > NORMALIZATION_TOL) & _on_arcs(feet, a, b, n)


def _arc_lengths(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _angles(_dot(a, b))


def _points_arcs_min(points: np.ndarray, a: np.ndarray, b: np.ndarray,
                     n: np.ndarray) -> np.ndarray:
    """Per-point minimum geodesic distance to the minor arcs of a polygon.

    points (m, 3); a, b, n (e, 3) with b = roll(a, -1), so the end dots are
    a roll of the start dots.  Endpoint distances are a dense matrix pass;
    the foot-of-perpendicular correction runs only on the (point, arc)
    pairs whose circle distance could actually improve the endpoint value
    and whose foot can lie on the arc.  A point whose foot lies on the arc is
    within circle distance + arc length of an endpoint; FOOT_SLACK covers the
    rounding of arccos near 0 (~1e-8) and the on-arc tolerance.
    """
    out = np.empty(len(points))
    length = _arc_lengths(a, b)
    for r0, r1 in _tiles(len(points)):
        p = points[r0:r1, None]                        # (t, 1, 3)
        start = _angles(_dot(p, a))                    # (t, e)
        near = np.minimum(start, np.roll(start, -1, axis=1))
        pmin = near.min(axis=1)
        s = _dot(p, n)                                 # signed sine of circle distance
        circ = np.arcsin(np.minimum(1.0, np.abs(s)))
        ii, ee = np.nonzero((circ < pmin[:, None]) & (near <= circ + length + FOOT_SLACK))
        on = _feet_on_arcs(p[ii, 0], s[ii, ee], a[ee], b[ee], n[ee])
        np.minimum.at(pmin, ii[on], circ[ii[on], ee[on]])
        out[r0:r1] = pmin
    return out


def _near_min(points: np.ndarray, poly: ConvexPolygon, best: float) -> float:
    """min(best, the distances from points to their feet on the arcs of
    poly), best being at most the distance of every vertex pair.

    A foot on an arc lies on one of its pieces, so within half a piece of a
    piece midpoint m.  So the tree gives every foot below best: m within
    best + piece/2 + FOOT_SLACK (which covers the rounding of arccos and
    arcsin, ~1e-8, and the on-arc tolerance), and only feet within circ +
    piece/2 + 2 FOOT_SLACK of m go on to _points_arcs_min's tests and
    values.  A foot counts below the running minimum, not below its point's
    nearest vertex: the feet this adds or drops lie at or above a value the
    exhaustive scan also reaches.
    """
    a, b, n = poly.edges
    length, edge, piece, tree = poly.arc_tree
    for i, e, chord in _pairs_within(points, tree, _chord(best + piece / 2.0 + FOOT_SLACK)):
        p, e = points.take(i, axis=0), edge.take(e)
        s = _dot(p, n.take(e, axis=0))
        circ = np.arcsin(np.minimum(1.0, np.abs(s)))
        foot = np.flatnonzero((circ < best) & (2.0 * np.arcsin(np.minimum(1.0, chord / 2.0))
                                               <= circ + piece / 2.0 + 2.0 * FOOT_SLACK))
        if len(foot) == 0:
            continue
        p, e, s, circ = p[foot], e[foot], s[foot], circ[foot]
        near = _angles(np.maximum(_dot(p, a[e]), _dot(p, b[e])))
        hit = (near <= circ + length[e] + FOOT_SLACK) & _feet_on_arcs(p, s, a[e], b[e], n[e])
        best = min(best, float(circ[hit].min(initial=math.inf)))
    return best


def _arcs_cross(p1: ConvexPolygon, p2: ConvexPolygon) -> bool:
    """Does some arc of p1 meet some arc of p2?

    Two minor arcs that do not cross are nearest at an endpoint of one of
    them, which the point-to-arc pass already covers, so a crossing is the
    only arc-arc event that can lower the minimum distance.  A crossing
    point lies within half a piece of a piece midpoint of each arc, so the
    trees give every crossing pair from the midpoints within (piece1 +
    piece2) / 2; on those the endpoint prune and the crossing test are the
    exhaustive scan's.
    """
    a1, b1, n1 = p1.edges
    a2, b2, n2 = p2.edges
    (l1, edge1, piece1, tree1), (l2, edge2, piece2, tree2) = p1.arc_tree, p2.arc_tree
    reach = _chord((piece1 + piece2) / 2.0 + PREDICATE_TOL + FOOT_SLACK)
    for ii, jj, _ in _pairs_within(tree1.data, tree2, reach):
        ii, jj = edge1.take(ii), edge2.take(jj)
        maxend = np.maximum.reduce([_dot(x.take(ii, axis=0), y.take(jj, axis=0))
                                    for x in (a1, b1) for y in (a2, b2)])
        keep = _angles(maxend) <= l1[ii] + l2[jj] + PREDICATE_TOL
        ii, jj = ii[keep], jj[keep]
        if len(ii) == 0:
            continue
        A1, B1, N1 = a1[ii], b1[ii], n1[ii]
        A2, B2, N2 = a2[jj], b2[jj], n2[jj]
        cr = np.cross(N1, N2)
        ncr = np.linalg.norm(cr, axis=1)
        generic = ncr > NORMALIZATION_TOL
        cr = cr / np.maximum(ncr, NORMALIZATION_TOL)[:, None]
        if any((generic & _on_arcs(x, A1, B1, N1) & _on_arcs(x, A2, B2, N2)).any()
               for x in (cr, -cr)):
            return True
    return False


def _caps_apart(p1: ConvexPolygon, p2: ConvexPolygon) -> bool:
    """Are the centres farther apart than reach1 + reach2, by CAP_MARGIN in dot?

    Then no vertex of either polygon is inside the other and no arcs cross.
    """
    gap = float(p1.bounding_cap[0] @ p2.bounding_cap[0])
    return gap < math.cos(min(math.pi, p1.reach + p2.reach)) - CAP_MARGIN


def polygon_distance(p1: ConvexPolygon, p2: ConvexPolygon) -> float:
    """Min geodesic distance between closures; 0 iff they intersect.

    Candidates: vertex-vertex pairs, vertex-arc feet, a vertex inside the
    other polygon, and arc crossings.  The pairs come from k-d trees
    (Bentley 1975): each vertex's nearest-chord vertex gives a first
    distance, the pairs within it + FOOT_SLACK the vertex minimum, and radius
    queries about the arc pieces the rest, all in row tiles, so no n1 x n2
    array is built; _near_min and _arcs_cross say why no pair a radius
    drops can pass their exact tests.
    Every dot is _dot's, so the result is the minimum over the values an
    exhaustive scan takes, whatever the BLAS thread count.  The containment
    and crossing tests run only when the bounding caps, widened by each
    polygon's reach, meet.
    """
    apart = _caps_apart(p1, p2)
    if not apart and any(other.contains_batch(poly.vertices).any()
                         for poly, other in ((p1, p2), (p2, p1))):
        return 0.0
    v1, v2 = p1.vertices, p2.vertices
    _, nearest = p2.vertex_tree.query(v1)
    dmin = float(_angles(_dot(v1, v2[nearest]).max()))
    for i, k, _ in _pairs_within(v1, p2.vertex_tree, _chord(dmin + FOOT_SLACK)):
        # take gathers rows ~3x faster than fancy indexing
        dots = _dot(v1.take(i, axis=0), v2.take(k, axis=0))
        dmin = min(dmin, float(_angles(dots.max(initial=-1.0))))
    # past pi/2 no foot is nearer: at its arc's nearer end, cos d = cos(circ) cos(t) >= 0
    if dmin <= math.pi / 2.0 + FOOT_SLACK:
        dmin = _near_min(v1, p2, dmin)
        dmin = _near_min(v2, p1, dmin)
    if dmin > 0.0 and not apart and _arcs_cross(p1, p2):
        return 0.0
    return dmin


def _caps_decide_sign(p1: ConvexPolygon, p2: ConvexPolygon) -> bool:
    """Do the bounding caps give every vertex dot one strict sign, by CAP_MARGIN?

    Vertex angles lie within delta -+ (R1 + R2) of the centre angle delta.
    """
    (c1, r1), (c2, r2) = p1.bounding_cap, p2.bounding_cap
    delta = float(np.arccos(np.clip(c1 @ c2, -1.0, 1.0)))
    return (math.cos(min(math.pi, delta + r1 + r2)) >= CAP_MARGIN
            or (delta >= r1 + r2 and math.cos(delta - r1 - r2) <= -CAP_MARGIN))


def certify_opf_polygons(polygons) -> tuple:
    """(i, j) index pairs (i == j allowed) whose polygons hold an orthogonal pair.

    Exact test on the vertex Gram matrix G = V_i V_j^T, flagging (i, j) iff
    min G <= 0 <= max G.  Every point of a polygon is a positive multiple of
    a convex combination of its vertices, so the sign of p . q is the sign of
    a nonnegative (not all zero) combination of the entries of G.  If all
    entries share one strict sign, no orthogonal pair exists.  If the signs
    are mixed, P_i x P_j is connected and p . q takes both signs on it, so it
    takes the value 0 somewhere.  A pair whose bounding caps already fix
    every sign, by a margin no rounding reaches, skips G; the others keep a
    running min and max over its row tiles and stop once they straddle 0.
    """
    polys = list(polygons)
    violations = []
    for i in range(len(polys)):
        for j in range(i, len(polys)):
            if _caps_decide_sign(polys[i], polys[j]):
                continue
            lo, hi = math.inf, -math.inf
            for _, gram in _gram_tiles(polys[i].vertices, polys[j].vertices):
                lo, hi = min(lo, gram.min()), max(hi, gram.max())
                if lo <= 0.0 <= hi:
                    violations.append((i, j))
                    break
    return tuple(violations)


def _set_distances(dist: np.ndarray, polys, pairs) -> None:
    """Fill dist[a, b] and dist[b, a] with polygon_distance(polys[a], polys[b])."""
    for a, b in pairs:
        dist[a, b] = dist[b, a] = polygon_distance(polys[a], polys[b])


def _distance_matrix(polys) -> np.ndarray:
    """Symmetric pairwise polygon distances, inf on the diagonal."""
    dist = np.full((len(polys), len(polys)), math.inf)
    _set_distances(dist, polys, itertools.combinations(range(len(polys)), 2))
    return dist


def conv1(selection: CellSet, arc_samples: int = 32) -> ConvexDecomposition:
    """Connected components to convex hulls (stage 1)."""
    comps = connected_components(selection)
    polygons = tuple(convex_hull(c, arc_samples) for c in comps)
    return ConvexDecomposition(polygons, _distance_matrix(polygons))


def conv2(decomp: ConvexDecomposition) -> tuple[ConvexDecomposition, int]:
    """Merge polygons within MERGE_TOL until all pairwise distances exceed it.

    Deterministic lowest-index-pair-first merge order; returns the cleaned
    decomposition and the number of merges performed (at most count - 1).
    Each pair's distance is computed once: starting from the decomposition's
    matrix, a merge drops row and column j and recomputes only the merged
    polygon's entries.
    """
    polys = list(decomp.polygons)
    dist = decomp.distances
    merges = 0
    while True:
        hits = np.argwhere(np.triu(dist <= MERGE_TOL, 1))
        if len(hits) == 0:
            break
        i, j = (int(k) for k in hits[0])
        union = np.vstack([polys[i].vertices, polys[j].vertices])
        polys[i] = convex_polygon_from_points(union)
        polys.pop(j)
        # np.delete copies, so the input decomposition's matrix is never written
        dist = np.delete(np.delete(dist, j, axis=0), j, axis=1)
        # lower index first, the argument order _distance_matrix uses
        _set_distances(dist, polys, (sorted((i, b)) for b in range(len(polys)) if b != i))
        merges += 1
    return ConvexDecomposition(tuple(polys), dist), merges


@dataclass(frozen=True)
class ConvResult:
    decomposition: ConvexDecomposition
    input_measure: float
    output_measure: float
    merge_count: int
    opf_violations: tuple

    def to_json(self) -> dict:
        return {"decomposition": self.decomposition.to_json(),
                "input_measure_sr": self.input_measure,
                "output_measure_sr": self.output_measure,
                "merge_count": self.merge_count,
                "opf_violations": [list(v) for v in self.opf_violations]}


def conv(selection: CellSet, arc_samples: int = 32) -> ConvResult:
    """Full pipeline: conv2(conv1(selection)) with measure and OPF accounting."""
    stage1 = conv1(selection, arc_samples)
    final, merges = conv2(stage1)
    return ConvResult(final, selection.measure(), final.total_area(), merges,
                      certify_opf_polygons(final.polygons))


def _distance_to_polygon_batch(points: np.ndarray, poly: ConvexPolygon) -> np.ndarray:
    d = _points_arcs_min(points, *poly.edges)
    d[poly.contains_batch(points)] = 0.0
    return d


def _directed_hausdorff(p1: ConvexPolygon, p2: ConvexPolygon) -> float:
    # the distance function is geodesically convex in the sub-pi/2 regime, so
    # the directed max over a convex polygon is attained at a vertex; edge
    # samples are kept as a refinement safety net
    probes = np.vstack([p1.vertices, p1.boundary_samples()])
    return float(_distance_to_polygon_batch(probes, p2).max())


def hausdorff_distance(p1: ConvexPolygon, p2: ConvexPolygon) -> float:
    """Max of the two directed farthest-point distances."""
    return max(_directed_hausdorff(p1, p2), _directed_hausdorff(p2, p1))


def _interior_sampler(poly: ConvexPolygon):
    """Closure drawing random interior points via planar convex combinations."""
    basis = tangent_basis(poly.hemisphere_center)
    planar = gnomonic_project_batch(poly.hemisphere_center, poly.vertices, basis)

    def draw(rng: np.random.Generator, n: int = 1) -> np.ndarray:
        w = rng.dirichlet(np.ones(len(planar)), size=n)
        xy = w @ planar
        return np.stack([gnomonic_unproject(poly.hemisphere_center,
                                            float(x), float(y), basis)
                         for x, y in xy])

    return draw


@dataclass(frozen=True)
class PropertyReport:
    trials: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def check_triangle_lemma(decomp: ConvexDecomposition, trials: int = 1000,
                         seed: int = 0) -> PropertyReport:
    """For random triples in one polygon: pairwise distances below pi/2 and
    the connecting geodesic stays inside the polygon."""
    rng = np.random.default_rng(seed)
    violations = []
    if len(decomp.polygons) == 0:
        return PropertyReport(trials, ())
    samplers = [_interior_sampler(p) for p in decomp.polygons]
    for t in range(trials):
        k = int(rng.integers(len(decomp.polygons)))
        poly = decomp.polygons[k]
        x, y, z = samplers[k](rng, 3)
        for a, b in ((x, y), (y, z), (x, z)):
            if geodesic_distance(a, b) >= math.pi / 2.0:
                violations.append((t, "distance", a.tolist(), b.tolist()))
        seg = GeodesicSegment(x, z)
        pts = np.stack([seg.point_at(j / SEGMENT_SAMPLES)
                        for j in range(SEGMENT_SAMPLES + 1)])
        if not poly.contains_batch(pts, tol=1e-7).all():
            violations.append((t, "segment"))
    return PropertyReport(trials, tuple(violations))


def check_pasch(poly: ConvexPolygon, trials: int = 1000,
                seed: int = 0) -> PropertyReport:
    """Great circle through side ab of a random inscribed triangle also meets
    bc or ca; exact check in gnomonic coordinates (great circles are lines)."""
    rng = np.random.default_rng(seed)
    basis = tangent_basis(poly.hemisphere_center)
    sampler = _interior_sampler(poly)
    violations = []
    for t in range(trials):
        tri = gnomonic_project_batch(poly.hemisphere_center, sampler(rng, 3), basis)
        a, b, c = tri
        # line through a random interior point of side ab, random direction
        q = a + rng.random() * (b - a)
        ang = rng.random() * math.pi
        d = np.array([math.cos(ang), math.sin(ang)])

        def crosses(u, v):
            su = _cross2(u - q, d)
            sv = _cross2(v - q, d)
            return su * sv <= 0.0

        if not (crosses(b, c) or crosses(c, a)):
            violations.append((t, tri.tolist()))
    return PropertyReport(trials, tuple(violations))
