"""Density filtering: select dyadic cells nearly filled by a measurable set.

Given a membership oracle for a set M, keep the cells whose M-density
mu(c intersect M)/mu(c) is at least 1 - epsilon, and account for how much of
M the kept cells capture.  Cap-type oracles get exact analytic densities by
one-dimensional integration of the azimuthal width along cos(theta); the
general fallback is Monte Carlo with reported standard errors.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .grid import (CellSet, DyadicCell, cell_area, cell_bounds, locate_coords_batch,
                   n_bands, write_json)
from .sphere import PREDICATE_TOL, SPHERE_AREA, TWO_PI, Cap, cap_area, sample_uniform_batch

THEOREM_BETA = 1.0 / 64.0


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

    def contains(self, p: np.ndarray) -> bool:
        return bool(self.contains_batch(p.reshape(1, 3))[0])

    def contains_batch(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if self.kind == "cap":
            inside = np.zeros(len(points), dtype=bool)
            for cap in self.caps:
                inside |= points @ cap.center > math.cos(cap.radius)
            return inside
        if self.kind == "cell_set":
            level = self.cell_set.level
            n = n_bands(level)
            members = np.asarray(self.cell_set.members, dtype=np.int64).reshape(-1, 2)
            mask = np.zeros((n, n), dtype=bool)
            mask[members[:, 0], members[:, 1]] = True
            return mask[locate_coords_batch(*_polar_batch(points), level)]
        if self.kind == "polygon_set":
            out = np.zeros(len(points), dtype=bool)
            for poly in self.polygons:
                out |= poly.contains_batch(points)
            return out
        # sieve_fractal: survive iff no ancestor step down to levels 1..depth
        # takes the odd/odd child
        u, phi = _polar_batch(points)
        out = np.ones(len(points), dtype=bool)
        for lvl in range(1, self.depth + 1):
            band, sector = locate_coords_batch(u, phi, lvl)
            out &= (band % 2 == 0) | (sector % 2 == 0)
        return out

    def measure(self) -> float | None:
        """Exact measure of M in steradians when a closed form exists."""
        if self.kind == "cap":
            # __post_init__ rejects overlapping caps, so the areas add
            return sum(cap_area(c.radius) for c in self.caps)
        if self.kind == "cell_set":
            return self.cell_set.measure()
        if self.kind == "sieve_fractal":
            return SPHERE_AREA * 0.75**self.depth
        if self.kind == "polygon_set":
            return sum(p.area() for p in self.polygons)
        return None


def _polar_batch(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos(theta), phi in [0, 2*pi)) of each point, as to_polar gives them.

    cos(theta) is the clipped z itself: cos(acos(z)) would only add rounding.
    np.arctan2 may differ from math.atan2 by an ulp, so a point within an ulp
    of a sector edge may land in the neighbouring closed cell.
    """
    phi = np.mod(np.arctan2(points[:, 1], points[:, 0]), TWO_PI)
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


def _arc_overlap(width_center: float, half_width: float,
                 phi_lo: float, phi_hi: float) -> float:
    """Length of [center - hw, center + hw] mod 2*pi inside [phi_lo, phi_hi]."""
    if half_width <= 0.0:
        return 0.0
    if half_width >= math.pi:
        return phi_hi - phi_lo
    lo = (width_center - half_width) % TWO_PI
    total = 0.0
    # the arc may wrap; walk it as at most two plain intervals
    segments = []
    if lo + 2.0 * half_width <= TWO_PI:
        segments.append((lo, lo + 2.0 * half_width))
    else:
        segments.append((lo, TWO_PI))
        segments.append((0.0, lo + 2.0 * half_width - TWO_PI))
    for slo, shi in segments:
        total += max(0.0, min(shi, phi_hi) - max(slo, phi_lo))
    return total


def _cap_cell_density(cap: Cap, cell: DyadicCell) -> float:
    """Exact mu(cap intersect cell)/mu(cell) by 1-D integration over cos(theta)."""
    (ulo, uhi), (plo, phi) = cell_bounds(cell)
    uc = float(cap.center[2])
    cr = math.cos(cap.radius)
    width = (uhi - ulo) * (phi - plo)
    if abs(uc) >= 1.0 - 1e-14:
        # pole-centered: membership depends on cos(theta) alone
        if uc > 0:
            overlap = max(0.0, min(uhi, 1.0) - max(ulo, cr))
        else:
            overlap = max(0.0, min(uhi, -cr) - max(ulo, -1.0))
        return overlap * (phi - plo) / width
    phic = math.atan2(float(cap.center[1]), float(cap.center[0])) % TWO_PI
    sc = math.sqrt(max(0.0, 1.0 - uc * uc))

    def integrand(u: float) -> float:
        su = math.sqrt(max(0.0, 1.0 - u * u))
        denom = su * sc
        if denom < 1e-15:
            return (phi - plo) if u * uc > cr else 0.0
        k = (cr - u * uc) / denom
        if k >= 1.0:
            return 0.0
        if k <= -1.0:
            return phi - plo
        return _arc_overlap(phic, math.acos(k), plo, phi)

    value, _ = quad(integrand, ulo, uhi, limit=200)
    return value / width


def _sieve_cell_density(depth: int, cell: DyadicCell) -> float:
    # parity of the refinement step from level j-1 to level j, read off the
    # binary digits of the cell's own indices
    for j in range(1, min(cell.level, depth) + 1):
        db = (cell.band >> (cell.level - j)) & 1
        ds = (cell.sector >> (cell.level - j)) & 1
        if db == 1 and ds == 1:
            return 0.0
    return 0.75 ** max(0, depth - cell.level)


def _cell_set_density(oracle_set: CellSet, cell: DyadicCell) -> float:
    k = oracle_set.level
    members = set(oracle_set.members)
    if cell.level >= k:
        shift = cell.level - k
        return 1.0 if (cell.band >> shift, cell.sector >> shift) in members else 0.0
    shift = k - cell.level
    hits = sum(1 for b, s in members
               if b >> shift == cell.band and s >> shift == cell.sector)
    return hits / float(4 ** shift)


def analytic_cell_density(oracle: MembershipOracle, cell: DyadicCell) -> float | None:
    """Exact density when the oracle kind admits a closed form, else None."""
    if oracle.kind == "cap":
        return min(1.0, sum(_cap_cell_density(c, cell) for c in oracle.caps))
    if oracle.kind == "cell_set":
        return _cell_set_density(oracle.cell_set, cell)
    if oracle.kind == "sieve_fractal":
        return _sieve_cell_density(oracle.depth, cell)
    return None


def sample_in_cell(cell: DyadicCell, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, 3) points area-uniform in the cell: uniform in cos(theta) and phi."""
    (ulo, uhi), (plo, phi) = cell_bounds(cell)
    u = rng.uniform(ulo, uhi, n)
    p = rng.uniform(plo, phi, n)
    s = np.sqrt(np.maximum(0.0, 1.0 - u * u))
    return np.stack([s * np.cos(p), s * np.sin(p), u], axis=1)


def _cell_rng(seed: int, cell: DyadicCell) -> np.random.Generator:
    # per-cell stream so parallel estimation order cannot change results
    return np.random.default_rng([seed, cell.level, cell.ordinal])


def estimate_cell_density(oracle: MembershipOracle, cell: DyadicCell,
                          samples: int = 1000, seed: int = 0,
                          method: str = "auto") -> tuple[float, float]:
    """(density, standard error); analytic value with zero error when available."""
    if samples < 100:
        raise ValueError(f"samples must be >= 100, got {samples}")
    if method not in ("auto", "analytic", "monte_carlo"):
        raise ValueError(f"unknown method {method!r}")
    if method != "monte_carlo":
        exact = analytic_cell_density(oracle, cell)
        if exact is not None:
            return exact, 0.0
        if method == "analytic":
            raise ValueError(f"no analytic density for oracle kind {oracle.kind!r}")
    points = sample_in_cell(cell, samples, _cell_rng(seed, cell))
    hits = float(np.count_nonzero(oracle.contains_batch(points)))
    p = hits / samples
    return p, math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)


@dataclass(frozen=True)
class DensityReport:
    """Outcome of dense-cell selection at one level and threshold."""

    level: int
    epsilon: float
    selected: CellSet
    densities: tuple  # (band, sector, density, stderr) for every selected cell
    captured_measure: float
    beta: float = THEOREM_BETA
    within_theorem_range: bool = True

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "epsilon": self.epsilon,
            "beta": self.beta,
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
            w = csv.writer(f)
            w.writerow(["band", "sector", "density", "stderr"])
            for row in self.densities:
                w.writerow(list(row))


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
    kept = []
    records = []
    captured = 0.0
    area = cell_area(level)
    for band in range(n):
        for sector in range(n):
            cell = DyadicCell(level, band, sector)
            d, e = estimate_cell_density(oracle, cell, samples, seed, method)
            if d >= 1.0 - epsilon:
                kept.append((band, sector))
                records.append((band, sector, d, e))
                captured += d * area
    return DensityReport(level, epsilon, CellSet.from_cells(level, kept),
                         tuple(records), captured,
                         within_theorem_range=epsilon < THEOREM_BETA)


@dataclass(frozen=True)
class CoveringReport:
    """Two-sided covering diagnostics against a target set M."""

    mu_m: float
    mu_m_stderr: float
    mu_union: float
    mu_intersection: float
    mu_intersection_stderr: float
    captured_gap: float   # mu(M ∩ union) - mu(M); Lemma-style bound wants > -eps
    excess_gap: float     # mu(union) - mu(M); bound wants < eps

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in (
            "mu_m", "mu_m_stderr", "mu_union", "mu_intersection",
            "mu_intersection_stderr", "captured_gap", "excess_gap")}


def covering_report(oracle: MembershipOracle, selection: CellSet,
                    samples: int = 200_000, seed: int = 0) -> CoveringReport:
    """Estimate mu(M), mu(union of cells), mu(M ∩ union) and both gaps.

    mu(union) is exact (equal-area cells); mu(M) is exact when the oracle has
    a closed-form measure; the intersection uses analytic per-cell densities
    when available and Monte Carlo otherwise.
    """
    mu_union = selection.measure()
    exact_m = oracle.measure()
    if exact_m is not None:
        mu_m, mu_m_err = exact_m, 0.0
    else:
        rng = np.random.default_rng([seed, 1])
        pts = sample_uniform_batch(rng, samples)
        hit = np.count_nonzero(oracle.contains_batch(pts)) / samples
        mu_m = SPHERE_AREA * hit
        mu_m_err = SPHERE_AREA * math.sqrt(max(hit * (1 - hit), 1.0 / samples) / samples)
    area = cell_area(selection.level)
    inter = 0.0
    var = 0.0
    per_cell = max(100, samples // max(1, len(selection)))
    for cell in selection.cells():
        d, e = estimate_cell_density(oracle, cell, per_cell, seed)
        inter += d * area
        var += (e * area) ** 2
    return CoveringReport(mu_m, mu_m_err, mu_union, inter, math.sqrt(var),
                          inter - mu_m, mu_union - mu_m)
