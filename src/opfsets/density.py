"""Density filtering: select dyadic cells nearly filled by a measurable set.

Given a membership oracle for a set M, keep the cells whose M-density
mu(c intersect M)/mu(c) is at least 1 - epsilon, and account for how much of
M the kept cells capture.  `cell_densities` gives the densities of many cells
in one array pass: cap unions get exact areas in closed form (lens areas
between the cap and polar caps, split along the sector edges), the sieve
fractal bit tests on the band and sector indices, cell sets block means of
their membership mask.  Polygon sets, or any oracle on request, get Monte
Carlo estimates with standard errors from per-cell seeded streams.

A cap's area in a cell is a signed sum of one term per cell corner.  The
terms are computed once per distinct corner of the requested cells, on the
lattice of cell edges, and each cell adds its four in a fixed order.  Edges
are exact multiples (1 - k 2^-level, j 2 pi / n), so cells that share a corner
share its term bit for bit, and the result equals a per-cell evaluation.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import (CellSet, DyadicCell, cell_area, cell_bounds, cell_bounds_batch,
                   locate_coords_batch, n_bands, write_json)
from .sphere import (PREDICATE_TOL, SPHERE_AREA, TWO_PI, Cap, _running_sum, _unit_points,
                     cap_area)

THEOREM_BETA = 1.0 / 64.0
# Monte Carlo points per contains_batch call.  At 1 << 16 the (points, 3)
# array is 1.5 MB and each temporary of the trig and the oracle 0.5 MB, so a
# chunk stays in cache; at 1 << 20 the point array alone was 24 MB.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class MembershipOracle:
    """Deterministic point-membership test for one of a few set families.

    kinds: "cap" (union of disjoint geodesic discs, the double cap among
    them), "cell_set" (union of dyadic cells), "polygon_set" (union of
    spherical convex polygons), "sieve_fractal" (depth-truncated fractal that
    keeps 3 of the 4 children of every cell, dropping the odd/odd child).
    """

    kind: str
    caps: tuple = ()
    cell_set: CellSet | None = None
    polygons: tuple = ()
    depth: int = 0

    def __post_init__(self):
        kinds = {"cap", "cell_set", "polygon_set", "sieve_fractal"}
        if self.kind not in kinds:
            raise ValueError(f"unknown oracle kind {self.kind!r}")
        # touching caps are fine: PREDICATE_TOL absorbs the rounding of the
        # centres, and an overlap that thin adds no visible area.  atan2 keeps
        # the centre distance accurate near pi, where acos is not.
        for i, a in enumerate(self.caps):
            for b in self.caps[i + 1:]:
                gap = math.atan2(float(np.linalg.norm(np.cross(a.center, b.center))),
                                 float(a.center @ b.center))
                if gap < a.radius + b.radius - PREDICATE_TOL:
                    raise ValueError(f"caps of radii {a.radius} and {b.radius} overlap; "
                                     "cap oracles need pairwise disjoint caps")

    def contains_batch(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if self.kind == "cap":
            inside = np.zeros(len(points), dtype=bool)
            for cap in self.caps:
                inside |= points @ cap.center > math.cos(cap.radius)
            return inside
        if self.kind == "cell_set":
            return _cell_mask(self.cell_set)[
                locate_coords_batch(*_polar_batch(points), self.cell_set.level)]
        if self.kind == "polygon_set":
            out = np.zeros(len(points), dtype=bool)
            for poly in self.polygons:
                out |= poly.contains_batch(points)
            return out
        # sieve_fractal: survive iff no step down to level depth takes the
        # odd/odd child; the level-depth indices' binary digits are those steps
        band, sector = locate_coords_batch(*_polar_batch(points), self.depth)
        return (band & sector & ((1 << self.depth) - 1)) == 0

    def measure(self) -> float:
        """Exact measure of M in steradians."""
        if self.kind == "cap":
            # __post_init__ rejects overlapping caps, so the areas add
            return _running_sum(np.array([cap_area(c.radius) for c in self.caps]))
        if self.kind == "cell_set":
            return self.cell_set.measure()
        if self.kind == "sieve_fractal":
            return SPHERE_AREA * 0.75**self.depth
        return _running_sum(np.array([p.area() for p in self.polygons]))


def _cell_mask(cell_set: CellSet) -> np.ndarray:
    """(n, n) boolean membership of the cells at the set's own level."""
    n = n_bands(cell_set.level)
    mask = np.zeros((n, n), dtype=bool)
    mask[tuple(cell_set.array().T)] = True
    return mask


def _polar_batch(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos(theta), phi in [0, 2*pi)) of each point, as to_polar gives them.

    cos(theta) is the clipped z itself: cos(acos(z)) would only add rounding.
    np.arctan2 may differ from math.atan2 by an ulp, so a point within an ulp
    of a sector edge may land in the neighbouring closed cell.
    """
    phi = np.arctan2(points[:, 1], points[:, 0])
    # arctan2 gives [-pi, pi], so a turn added to the signed values is the
    # float mod; -0.0 becomes 2 pi, then 0.0 below, the +0.0 np.mod makes it
    phi += TWO_PI * np.signbit(phi)
    phi[phi >= TWO_PI] = 0.0
    return np.clip(points[:, 2], -1.0, 1.0), phi


def cap_oracle(center: np.ndarray, radius: float) -> MembershipOracle:
    return MembershipOracle("cap", caps=(Cap(np.asarray(center, dtype=float), radius),))

def cap_union_oracle(caps) -> MembershipOracle:
    return MembershipOracle("cap", caps=tuple(caps))

def double_cap_oracle(radius: float = math.pi / 4.0) -> MembershipOracle:
    return MembershipOracle("cap", caps=(
        Cap(np.array([0.0, 0.0, 1.0]), radius), Cap(np.array([0.0, 0.0, -1.0]), radius)))

def cell_set_oracle(selection: CellSet) -> MembershipOracle:
    return MembershipOracle("cell_set", cell_set=selection)

def polygon_set_oracle(polygons) -> MembershipOracle:
    return MembershipOracle("polygon_set", polygons=tuple(polygons))

def sieve_fractal_oracle(depth: int) -> MembershipOracle:
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    return MembershipOracle("sieve_fractal", depth=depth)


def _lens_area(theta_c: float, radius: float, v: np.ndarray) -> np.ndarray:
    """mu(cap ∩ {cos(theta) >= v}) for a cap at colatitude theta_c, theta_c + radius <= pi.

    Where the circles meet at P, Gauss-Bonnet gives 2(pi - g) - 2 p cos(radius)
    - 2 w v, with w, p and g the angles at the pole, the centre and P of the
    triangle they span (w is the cap's half-width at height v).  Half-angle
    formulas keep the angles accurate on thin triangles, unlike acos of ratios.
    """
    top, bottom = abs(theta_c - radius), theta_c + radius
    theta = np.clip(np.arccos(v), top, bottom)
    # sin(s - radius), sin(s - theta), sin(s - theta_c) and sin(s), s the half perimeter
    half = (theta + theta_c - radius, theta_c + radius - theta, theta + radius - theta_c,
            theta + theta_c + radius)
    sa, sb, sc, ss = (np.maximum(np.sin(h / 2.0), 0.0) for h in half)
    w = 2.0 * np.arctan2(np.sqrt(sb * sc), np.sqrt(ss * sa))
    p = 2.0 * np.arctan2(np.sqrt(sa * sc), np.sqrt(ss * sb))
    g = 2.0 * np.arctan2(np.sqrt(sa * sb), np.sqrt(ss * sc))
    lens = 2.0 * (math.pi - g) - 2.0 * p * math.cos(radius) - 2.0 * w * v
    above = TWO_PI * (1.0 - v) if theta_c < radius else 0.0  # the cap holds the north pole
    return np.where(theta <= top, above, np.where(theta >= bottom, cap_area(radius), lens))


def _corner_lattice(level: int, band: np.ndarray, sector: np.ndarray):
    """((u, row), (phi, column), (4, m) corner nodes per cell) of the cells' corners.

    A cell's corners are listed as (uhi, phi_hi), (uhi, phi_lo), (ulo, phi_hi)
    and (ulo, phi_lo).  Node (k, j) is u = 1 - k 2^-level, phi = j 2 pi / n;
    u and phi hold the distinct heights and azimuths of the nodes in use, and
    node i lies at u[row[i]], phi[column[i]].  They come from cell_bounds_batch
    as every cell's bounds do, so a node equals the corresponding bound of
    each cell that has it as a corner bit for bit.
    """
    n1 = n_bands(level) + 1
    ids = (band + np.array([[0], [0], [1], [1]])) * n1 + sector + np.array([[1], [0], [1], [0]])
    nodes, corners = _number_used(ids, n1 * n1)
    k, j = np.divmod(nodes, n1)
    (rows, row), (columns, column) = _number_used(k, n1), _number_used(j, n1)
    (_, u), (phi, _) = cell_bounds_batch(level, rows, columns)
    return (u, row), (phi, column), corners.reshape(4, -1)


def _number_used(ids: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct ids in order, each id's position among them), ids in [0, size).

    Marking and a running count take 9 size bytes and no sort: 8-12x faster
    than np.unique on the corner nodes at levels 6-9.
    """
    used = np.zeros(size, dtype=bool)
    used[ids] = True
    return np.flatnonzero(used), (np.cumsum(used) - 1)[ids]


def _cap_area(center: np.ndarray, radius: float, bounds, lattice) -> np.ndarray:
    """mu(cap ∩ cell) for cells with the given bounds; lattice() gives their corners.

    With w(u) the cap's half-width at height u, the cap covers clip(t, -w, w)
    of the azimuths from its meridian to offset t (+2w per whole turn), so the
    cell area is a signed sum over its corners (v, t) of that integrated over
    [v, 1].  For |t| <= pi this is the integral of w less that of w - |t| over
    {w > |t|}, one u-interval (the meridian's arc in a cap of radius <= pi/2);
    integrals of w are half lens areas.  The meridian's arc depends on t
    alone, so it is found once per distinct azimuth, and the lens areas are
    taken once per distinct height and arc end; each corner combines them.
    Wider caps go through their complement, caps around the south pole
    through z -> -z.
    """
    (ulo, uhi), (plo, phi) = bounds
    x, y, z = (float(a) for a in center)
    sc, cr = math.hypot(x, y), math.cos(radius)
    if abs(z) >= 1.0 - 1e-14:  # pole-centred: membership depends on cos(theta) alone
        if z > 0:
            return np.maximum(0.0, np.minimum(uhi, 1.0) - np.maximum(ulo, cr)) * (phi - plo)
        return np.maximum(0.0, np.minimum(uhi, -cr) - np.maximum(ulo, -1.0)) * (phi - plo)
    if radius > math.pi / 2.0:
        rest = _cap_area(-center, math.pi - radius, bounds, lattice)
        return (uhi - ulo) * (phi - plo) - rest
    theta_c, phi_c = math.atan2(sc, z), math.atan2(y, x)
    (v, row), (t, column), corners = lattice()
    flip = theta_c + radius > math.pi
    if flip:  # ulo and uhi trade places: the cell's u-interval is [-uhi, -ulo]
        theta_c, z, v = math.pi - theta_c, -z, -v
    t = t - phi_c
    turns = np.round(t / TWO_PI)
    t = t - TWO_PI * turns
    tau = np.abs(t)
    # the meridian at offset tau is inside the cap where r cos(theta - beta) > cr,
    # the u-interval [bottom, top]
    m = sc * np.cos(tau)
    r, beta = np.hypot(m, z), np.arctan2(m, z)
    alpha = np.arctan2(np.sqrt(np.maximum((r - cr) * (r + cr), 0.0)), cr)
    bottom = np.cos(np.clip(beta + alpha, 0.0, math.pi))
    top = np.cos(np.clip(beta - alpha, 0.0, math.pi))
    whole, at_bottom, at_top = np.split(
        _lens_area(theta_c, radius, np.concatenate([v, bottom, top])), [len(v), len(v) + len(t)])
    # per node the arc clipped to [v, 1] is [lo, hi]; the lens area at
    # max(v, end) is the one at v or at the end, whichever np.maximum picks
    vn, b, e, whole = v[row], bottom[column], top[column], whole[row]
    lo, hi = np.maximum(vn, b), np.maximum(vn, e)
    at_lo = np.where(vn >= b, whole, at_bottom[column])
    at_hi = np.where(vn >= e, whole, at_top[column])
    part = 0.5 * (whole - at_lo + at_hi) + tau[column] * (hi - lo)
    c = (np.sign(t)[column] * part + turns[column] * whole)[corners]
    # corner(ulo, thi) - corner(ulo, tlo) - corner(uhi, thi) + corner(uhi, tlo)
    return c[0] - c[1] - c[2] + c[3] if flip else c[2] - c[3] - c[0] + c[1]


def sample_in_cell(cell: DyadicCell, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, 3) points area-uniform in the cell: uniform in cos(theta) and phi."""
    (ulo, uhi), (plo, phi) = cell_bounds(cell)
    return _unit_points(rng.uniform(ulo, uhi, n), rng.uniform(plo, phi, n))


def cell_densities(oracle: MembershipOracle, level: int, cells, samples: int = 1000,
                   seed: int = 0, method: str = "auto") -> tuple[np.ndarray, np.ndarray]:
    """(density, standard error) arrays for cells given as (band, sector) pairs.

    "auto" is exact (error 0) for caps, cell sets and the sieve fractal and
    Monte Carlo with `samples` points per cell for polygon sets;
    "monte_carlo" forces Monte Carlo.
    """
    if samples < 100:
        raise ValueError(f"samples must be >= 100, got {samples}")
    if method not in ("auto", "monte_carlo"):
        raise ValueError(f"unknown method {method!r}")
    cells, n = np.asarray(cells, dtype=np.int64).reshape(-1, 2), n_bands(level)
    if ((cells < 0) | (cells >= n)).any():
        raise ValueError(f"cell index out of range [0, {n}) at level {level}")
    band, sector = cells.T
    if method == "monte_carlo" or oracle.kind == "polygon_set":
        (ulo, uhi), (plo, phi) = cell_bounds_batch(level, band, sector)
        boxes = list(zip((band * n + sector).tolist(), ulo.tolist(), uhi.tolist(),
                         plo.tolist(), phi.tolist()))
        hits, step = np.empty(len(cells)), max(1, _CHUNK // samples)
        heights, azimuths = np.empty((2, min(step, len(cells)), samples))
        for i in range(0, len(cells), step):
            chunk = boxes[i:i + step]
            # each cell has its own stream, so no other cell can change its estimate
            for row, (ordinal, u0, u1, p0, p1) in enumerate(chunk):
                rng = np.random.default_rng([seed, level, ordinal])
                heights[row] = rng.uniform(u0, u1, samples)
                azimuths[row] = rng.uniform(p0, p1, samples)
            m = len(chunk)
            inside = oracle.contains_batch(_unit_points(heights[:m].ravel(), azimuths[:m].ravel()))
            hits[i:i + m] = np.count_nonzero(inside.reshape(m, samples), axis=1)
        p = hits / samples
        return p, np.sqrt(np.maximum(p * (1.0 - p), 1.0 / samples) / samples)
    if oracle.kind == "cap":
        bounds = (ulo, uhi), (plo, phi) = cell_bounds_batch(level, band, sector)
        # built on the first cap that needs corners, then shared by the rest
        lattice = functools.cache(functools.partial(_corner_lattice, level, band, sector))
        total, width = np.zeros(len(band)), (uhi - ulo) * (phi - plo)
        for cap in oracle.caps:
            total = total + _cap_area(cap.center, cap.radius, bounds, lattice) / width
        density = np.clip(total, 0.0, 1.0)
    elif oracle.kind == "cell_set":
        # block means of the membership mask at the coarser of the two levels
        k = oracle.cell_set.level
        size, down = 1 << max(0, k - level), max(0, level - k)
        m = n_bands(k) // size
        blocks = _cell_mask(oracle.cell_set).reshape(m, size, m, size).mean(axis=(1, 3))
        density = blocks[band >> down, sector >> down]
    else:  # sieve_fractal
        # the binary digits of the indices are the children taken at levels
        # 1..level; a cell is lost once a step takes the odd/odd child
        steps = min(level, oracle.depth)
        lost = band & sector & (((1 << steps) - 1) << (level - steps))
        density = np.where(lost != 0, 0.0, 0.75 ** max(0, oracle.depth - level))
    return density, np.zeros(len(band))


@dataclass(frozen=True, eq=False)
class DensityReport:
    """Dense-cell selection at one level and threshold; density and stderr
    hold one value per selected cell, in the order of selected's rows."""

    level: int
    epsilon: float
    selected: CellSet
    density: np.ndarray
    stderr: np.ndarray
    captured_measure: float
    within_theorem_range: bool = True

    @property
    def densities(self) -> tuple:
        """(band, sector, density, stderr) for every selected cell."""
        return tuple(zip(*self.selected.array().T.tolist(), self.density.tolist(),
                         self.stderr.tolist()))

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "epsilon": self.epsilon,
            "beta": THEOREM_BETA,
            "within_theorem_range": self.within_theorem_range,
            "captured_measure_sr": self.captured_measure,
            "selected": self.selected.to_json(),
            "cells": [{"band": b, "sector": s, "density": d, "stderr": e}
                      for b, s, d, e in self.densities],
        }

    def save(self, path) -> None:
        write_json(path, self.to_json())

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            csv.writer(f).writerows([("band", "sector", "density", "stderr"), *self.densities])


def select_dense_cells(oracle: MembershipOracle, level: int, epsilon: float,
                       samples: int = 1000, seed: int = 0,
                       method: str = "auto") -> DensityReport:
    """Keep every cell with estimated density >= 1 - epsilon.

    The guarantee this construction realizes requires epsilon below 1/64; the
    report carries a within_theorem_range flag so callers can still explore
    larger thresholds knowingly.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    n = n_bands(level)
    cells = np.stack(np.divmod(np.arange(n * n), n), axis=1)  # band-major
    d, e = cell_densities(oracle, level, cells, samples, seed, method)
    keep = d >= 1.0 - epsilon
    return DensityReport(level, epsilon, CellSet(level, cells[keep]), d[keep], e[keep],
                         _running_sum(d[keep] * cell_area(level)),
                         within_theorem_range=epsilon < THEOREM_BETA)

