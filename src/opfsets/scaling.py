"""Inward scaling of cell selections: polar-cap removal and per-cell shrink.

Each kept cell is replaced by the theta/phi box obtained by moving both
colatitude bounds inward by r1 = epsilon1^(1/3)*sqrt(mu(cell)) and rotating
both bounding meridians inward by the lune half-angle that guarantees the
same clearance.  Every point of the shrunk box is then at geodesic distance
at least r1 from the parent cell's boundary, so orthogonal pairs that only
touched cell boundaries are eliminated while the measure loss stays bounded.

The shrunk colatitudes and the lune half-angle depend on the band alone, so
they are computed once per band; the meridian rotation is then applied to
every sector of the band in one array pass.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .conflicts import _pair_scan
from .grid import CellSet, DyadicCell, cell_area, cell_bounds_batch, theta_bounds, write_json
from .sphere import (InfeasibleShrinkError, SPHERE_AREA, TWO_PI, _running_sum, _unit_points,
                     lune_half_angle)

N_ROOT = 3
SQRT_PI = math.sqrt(math.pi)
EPSILON_FLOOR, BISECTION_ITERS = 1e-9, 200  # largest_feasible_epsilon's bisection


class InfeasibleEpsilonError(ValueError):
    """Requested epsilon fails the feasibility inequalities.

    Carries the largest feasible epsilon found by bisection (or None if none
    was found down to the search floor).
    """

    def __init__(self, epsilon: float, suggestion: float | None):
        self.epsilon = epsilon
        self.suggestion = suggestion
        hint = (f"largest feasible epsilon found: {suggestion:.6g}"
                if suggestion is not None else "no feasible epsilon found")
        super().__init__(f"epsilon {epsilon} is infeasible; {hint}")


def _inequalities(epsilon: float, mu_m: float) -> tuple[float, float, float, float]:
    """(lhs1, rhs1, lhs2, rhs2) of the two feasibility inequalities.

    1: (1 - e1^(1/3)*(3*sqrt(pi) + 2/(sin(delta)*sqrt(pi)))) * (1 - e1) * (1 - e/2)
       >= 1 - e
    2: sin(pi/8) * (1 - 16*sqrt(2)/sqrt(pi) * e1^(1/3)) * e1^(2/3) > 2*e1
    """
    e1 = epsilon**6
    delta = math.sqrt(epsilon * mu_m / SPHERE_AREA)
    cbrt = e1 ** (1.0 / N_ROOT)
    lhs1 = ((1.0 - cbrt * (3.0 * SQRT_PI + 2.0 / (math.sin(delta) * SQRT_PI)))
            * (1.0 - e1) * (1.0 - epsilon / 2.0))
    lhs2 = math.sin(math.pi / 8.0) * (1.0 - 16.0 * math.sqrt(2.0) / SQRT_PI * cbrt) \
        * e1 ** (2.0 / N_ROOT)
    return lhs1, 1.0 - epsilon, lhs2, 2.0 * e1


def is_feasible(epsilon: float, mu_m: float) -> bool:
    lhs1, rhs1, lhs2, rhs2 = _inequalities(epsilon, mu_m)
    return lhs1 >= rhs1 and lhs2 > rhs2


def largest_feasible_epsilon(mu_m: float, upper: float = 1.0) -> float | None:
    """Bisection for the feasibility threshold in (EPSILON_FLOOR, upper]."""
    if is_feasible(upper, mu_m):
        return upper
    if not is_feasible(EPSILON_FLOOR, mu_m):
        return None
    lo, hi = EPSILON_FLOOR, upper
    for _ in range(BISECTION_ITERS):
        mid = 0.5 * (lo + hi)
        if is_feasible(mid, mu_m):
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class ScaleConstants:
    epsilon: float
    epsilon1: float
    n_root: int
    delta: float
    mu_m: float
    inequality1: tuple[float, float]  # (lhs, rhs), holds as lhs >= rhs
    inequality2: tuple[float, float]  # (lhs, rhs), holds as lhs > rhs

    def shrink(self, level: int) -> float:
        """Per-cell inward offset r1 = epsilon1^(1/3) * sqrt(cell area)."""
        return self.epsilon1 ** (1.0 / self.n_root) * math.sqrt(cell_area(level))

    def to_json(self) -> dict:
        return {"epsilon": self.epsilon, "epsilon1": self.epsilon1,
                "n_root": self.n_root, "delta": self.delta, "mu_m": self.mu_m,
                "inequality1": list(self.inequality1),
                "inequality2": list(self.inequality2)}


def choose_constants(epsilon: float, mu_m: float) -> ScaleConstants:
    """Validate the feasibility inequalities and derive all scaling constants."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if mu_m <= 0.0:
        raise ValueError(f"mu_m must be positive, got {mu_m}")
    lhs1, rhs1, lhs2, rhs2 = _inequalities(epsilon, mu_m)
    if not (lhs1 >= rhs1 and lhs2 > rhs2):
        raise InfeasibleEpsilonError(epsilon, largest_feasible_epsilon(mu_m, epsilon))
    return ScaleConstants(epsilon, epsilon**6, N_ROOT,
                          math.sqrt(epsilon * mu_m / SPHERE_AREA), mu_m,
                          (lhs1, rhs1), (lhs2, rhs2))


@dataclass(frozen=True)
class ScaledRegion:
    """Shrunk theta/phi box inside a parent cell (empty if bounds inverted)."""

    parent: DyadicCell
    shrink: float
    theta_lo: float
    theta_hi: float
    phi_lo: float
    phi_hi: float

    @property
    def empty(self) -> bool:
        return self.theta_lo >= self.theta_hi or self.phi_lo >= self.phi_hi

    def measure(self) -> float:
        """Exact box area (cos(theta_lo) - cos(theta_hi)) * phi width."""
        if self.empty:
            return 0.0
        return (math.cos(self.theta_lo) - math.cos(self.theta_hi)) \
            * (self.phi_hi - self.phi_lo)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.empty:
            raise ValueError("cannot sample an empty region")
        u = rng.uniform(math.cos(self.theta_hi), math.cos(self.theta_lo), n)
        return _unit_points(u, rng.uniform(self.phi_lo, self.phi_hi, n))

    def to_json(self) -> dict:
        return {"parent": [self.parent.band, self.parent.sector],
                "shrink": self.shrink,
                "theta": [self.theta_lo, self.theta_hi],
                "phi": [self.phi_lo, self.phi_hi],
                "empty": self.empty}


_EMPTY = (1.0, 0.0)  # inverted interval marker


def _band_shrink(level: int, band: int, shrink: float) -> tuple[float, float, float]:
    """(theta_lo, theta_hi, omega) shared by every cell of a band.

    Both colatitude bounds move inward by shrink (inverted if they cross);
    both meridians then rotate inward by omega, the lune half-angle at the
    tightened colatitude closest to a pole.  omega is 0 where nothing
    rotates and inf where no rotation gives the clearance.
    """
    tlo, thi = theta_bounds(DyadicCell(level, band, 0))
    ntlo, nthi = tlo + shrink, thi - shrink
    if ntlo >= nthi:
        return (*_EMPTY, 0.0)
    if shrink == 0.0:
        return tlo, thi, 0.0
    theta_worst = ntlo if math.sin(ntlo) <= math.sin(nthi) else nthi
    if not 0.0 < theta_worst < math.pi:
        return ntlo, nthi, math.inf
    try:
        return ntlo, nthi, lune_half_angle(shrink, theta_worst)
    except InfeasibleShrinkError:
        return ntlo, nthi, math.inf


class ScaledRegions(Sequence):
    """The scaled regions of one selection, held as box arrays.

    cells is the (m, 2) array of parent (band, sector) rows, theta and phi the
    (lo, hi) bound arrays and cos the cosines (cos(theta_lo), cos(theta_hi))
    as math.cos gives them.  verify_scaled_opf reads the arrays; indexing or
    iterating builds ScaledRegion objects from them on each access, and
    equality compares them.  The arrays are read-only.
    """

    def __init__(self, level, shrink, cells, theta, phi, cos):
        for a in (cells, *theta, *phi, *cos):
            a.setflags(write=False)
        self.level, self.shrink, self.cells = level, shrink, cells
        self.theta, self.phi, self.cos = theta, phi, cos

    @property
    def empty(self) -> np.ndarray:
        """Boolean array: the region's bounds are inverted, as ScaledRegion.empty."""
        return (self.theta[0] >= self.theta[1]) | (self.phi[0] >= self.phi[1])

    def to_json(self) -> list[dict]:
        """[r.to_json() for r in self], built from the arrays with no region objects."""
        columns = (x.tolist() for x in (self.empty, *self.cells.T, *self.theta, *self.phi))
        return [{"parent": [b, s], "shrink": self.shrink, "theta": [t0, t1], "phi": [p0, p1],
                 "empty": e} for e, b, s, t0, t1, p0, p1 in zip(*columns)]

    def _columns(self) -> tuple:
        return (*self.cells.T, *self.theta, *self.phi)

    def _region(self, b, s, t0, t1, p0, p1) -> ScaledRegion:
        return ScaledRegion(DyadicCell(self.level, b, s), self.shrink, t0, t1, p0, p1)

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, index: int) -> ScaledRegion:
        return self._region(*(x[index].item() for x in self._columns()))

    def __iter__(self):
        return (self._region(*row) for row in zip(*(x.tolist() for x in self._columns())))

    def __eq__(self, other):
        if not isinstance(other, ScaledRegions):
            return NotImplemented
        return ((self.level, self.shrink) == (other.level, other.shrink)
                and all(map(np.array_equal, self._columns(), other._columns())))


def _shrink_cells(level: int, cells: np.ndarray,
                  shrink: float) -> tuple[ScaledRegions, np.ndarray]:
    """(ScaledRegions of the (band, sector) rows, array of their measures).

    The shrink rule and the cosines run once per distinct band in scalar
    math; sectors take them with float +, - and *, so every bound and
    measure equals the per-cell computation bit for bit.
    """
    if not 0.0 <= shrink < math.inf:  # a NaN or infinite shrink would pass vacuously
        raise ValueError(f"shrink must be finite and >= 0, got {shrink}")
    bands, band_of = np.unique(cells[:, 0], return_inverse=True)
    rule = [_band_shrink(level, b, shrink) for b in bands.tolist()]
    tlo, thi, omega, cos_lo, cos_hi = np.array(
        [(*r, math.cos(r[0]), math.cos(r[1])) for r in rule]).reshape(-1, 5)[band_of].T
    _, (plo, phi) = cell_bounds_batch(level, 0, cells[:, 1])
    plo, phi = plo + omega, phi - omega
    inverted = plo >= phi
    plo[inverted], phi[inverted] = _EMPTY
    empty = (tlo >= thi) | inverted
    measures = np.where(empty, 0.0, (cos_lo - cos_hi) * (phi - plo))
    return ScaledRegions(level, shrink, cells, (tlo, thi), (plo, phi), (cos_lo, cos_hi)), measures


def shrink_cell(cell: DyadicCell, shrink: float) -> ScaledRegion:
    """Inward offset of a cell by a geodesic distance; empty result on inversion."""
    (region,), _ = _shrink_cells(cell.level, np.array([[cell.band, cell.sector]]), shrink)
    return region


def remove_polar_caps(selection: CellSet, delta: float) -> CellSet:
    """Drop every cell whose closure meets either open polar cap of radius delta."""
    if delta < 0.0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    if delta == 0.0:
        return selection
    cd = math.cos(delta)
    cells = selection.array()
    (ulo, uhi), _ = cell_bounds_batch(selection.level, cells[:, 0], 0)
    return CellSet(selection.level, cells[(uhi <= cd) & (ulo >= -cd)])


def scaled_measure_lower_bound(cell: DyadicCell, constants: ScaleConstants) -> float:
    """Closed-form lower bound on the shrunk region's area, clamped at 0."""
    cbrt = constants.epsilon1 ** (1.0 / constants.n_root)
    factor = 1.0 - cbrt * (3.0 * SQRT_PI + 2.0 / (math.sin(constants.delta) * SQRT_PI))
    return max(0.0, factor * cell_area(cell.level))


@dataclass(frozen=True)
class ScaleSummary:
    constants: ScaleConstants
    regions: ScaledRegions
    kept: CellSet
    removed_cells: int
    removed_measure: float
    total_region_measure: float
    lower_bound_total: float
    target_measure: float  # (1 - epsilon) * mu(M)
    meets_target: bool

    def to_json(self) -> dict:
        return {"constants": self.constants.to_json(),
                "regions": self.regions.to_json(),
                "summary": {
                    "kept_cells": len(self.kept),
                    "removed_cells": self.removed_cells,
                    "removed_measure_sr": self.removed_measure,
                    "total_region_measure_sr": self.total_region_measure,
                    "lower_bound_total_sr": self.lower_bound_total,
                    "target_measure_sr": self.target_measure,
                    "meets_target": self.meets_target,
                }}

    def save(self, path) -> None:
        write_json(path, self.to_json())


def scale_set(selection: CellSet, constants: ScaleConstants) -> ScaleSummary:
    """Polar-cap removal followed by per-cell shrink, with measure accounting."""
    kept = remove_polar_caps(selection, constants.delta)
    removed = len(selection) - len(kept)
    cells = kept.array()  # ScaledRegions.cells shares it
    regions, measures = _shrink_cells(kept.level, cells, constants.shrink(selection.level))
    total = _running_sum(measures)
    # every cell has the same bound; add it once per kept cell, as a loop would
    bound = (scaled_measure_lower_bound(DyadicCell(kept.level, *cells[0].tolist()), constants)
             if len(kept) else 0.0)
    bound_total = _running_sum(np.full(len(kept), bound))
    target = (1.0 - constants.epsilon) * selection.measure()
    return ScaleSummary(constants, regions, kept, removed,
                        removed * cell_area(selection.level), total, bound_total,
                        target, total >= target)


@dataclass(frozen=True)
class OpfCertification:
    """Outcome of the pairwise orthogonal-pair check over scaled regions."""

    n_regions: int
    margin: float
    violations: tuple  # (i, j) region indices, i == j for self-conflicts
    # kernel evaluations of the region pairs that reach the tree's leaves
    pairs_evaluated: int = field(compare=False)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_scaled_opf(regions: ScaledRegions, margin: float = 0.0) -> OpfCertification:
    """Check all region pairs (and self-pairs) of scale_set's regions for
    achievable inner product 0."""
    live = np.flatnonzero(~regions.empty)
    (cos_lo, cos_hi), (plo, phi) = regions.cos, regions.phi
    boxes = (cos_hi[live], cos_lo[live], plo[live] / TWO_PI, phi[live] / TWO_PI)
    pairs, evaluated = _pair_scan(boxes, margin)
    violations = sorted(zip(live[pairs[:, 0]].tolist(), live[pairs[:, 1]].tolist()))
    return OpfCertification(len(regions), margin, tuple(violations), evaluated)
