"""Equal-area dyadic decompositions of the sphere.

Level k partitions the sphere into 4*4^k cells by 2^(k+1) meridians and
2^(k+1) equal-area latitude bands.  Cells are indexed (band, sector) with
band 0 at the north pole; the cell geometry is closed-form:

    cos(theta) in [1 - (band+1)*2^-k, 1 - band*2^-k]        (width 2^-k)
    phi        in [sector*2*pi/2^(k+1), (sector+1)*2*pi/2^(k+1))

so every cell at level k has area pi*4^-k exactly, and level k+1 refines
level k cell-by-cell.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .sphere import TWO_PI, to_polar


def n_bands(level: int) -> int:
    """Number of latitude bands (= number of sectors) at a level."""
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    return 2 ** (level + 1)


def cell_count(level: int) -> int:
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    return 4 * 4**level


def cell_area(level: int) -> float:
    """Area in steradians of any single cell at the level: pi * 4^-level."""
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    return math.pi * 4.0 ** (-level)


@dataclass(frozen=True, order=True)
class DyadicCell:
    level: int
    band: int
    sector: int

    def __post_init__(self):
        n = n_bands(self.level)
        if not 0 <= self.band < n:
            raise ValueError(f"band {self.band} out of range [0, {n}) at level {self.level}")
        if not 0 <= self.sector < n:
            raise ValueError(f"sector {self.sector} out of range [0, {n}) at level {self.level}")


def cell_bounds(cell: DyadicCell) -> tuple[tuple[float, float], tuple[float, float]]:
    """((cos_theta_lo, cos_theta_hi), (phi_lo, phi_hi)).

    The cos(theta) interval is closed; the phi interval is half-open in
    [phi_lo, phi_hi).
    """
    return cell_bounds_batch(cell.level, cell.band, cell.sector)


def cell_bounds_batch(level: int, band, sector):
    """cell_bounds from indices; band and sector may be integer arrays."""
    w = 2.0 ** (-level)
    dphi = TWO_PI / n_bands(level)
    return (1.0 - (band + 1) * w, 1.0 - band * w), (sector * dphi, (sector + 1) * dphi)


def theta_bounds(cell: DyadicCell) -> tuple[float, float]:
    """(theta_lo, theta_hi) colatitude interval (theta_lo at the high-cos end)."""
    (cos_lo, cos_hi), _ = cell_bounds(cell)
    return math.acos(min(1.0, cos_hi)), math.acos(max(-1.0, cos_lo))


def locate_coords(cos_theta: float, phi: float, level: int) -> DyadicCell:
    """Cell whose closed bounds contain (cos_theta, phi); ties go to lower indices."""
    n = n_bands(level)
    x = (1.0 - cos_theta) * 2.0**level
    band = math.floor(x)
    if band == x and band > 0:
        band -= 1
    band = min(max(band, 0), n - 1)
    phi = phi % TWO_PI
    y = phi / (TWO_PI / n)
    sector = math.floor(y)
    if sector == y and sector > 0:
        sector -= 1
    sector = min(max(sector, 0), n - 1)
    return DyadicCell(level, band, sector)


def locate_coords_batch(cos_theta, phi, level: int) -> tuple[np.ndarray, np.ndarray]:
    """(band, sector) arrays of locate_coords over arrays, with its tie rules.

    ceil(x) - 1 is floor(x) off the integers and x - 1 on them, so a point on
    an edge goes to the lower index, and the clip puts x = 0 in cell 0.
    """
    n = n_bands(level)
    x = (1.0 - np.asarray(cos_theta, dtype=float)) * 2.0**level
    phi = np.asarray(phi, dtype=float)
    # np.mod returns an azimuth in [0, 2 pi) as it is, so it runs only if some is not
    if phi.size and (phi.min() < 0.0 or phi.max() >= TWO_PI):
        phi = np.mod(phi, TWO_PI)
    y = phi / (TWO_PI / n)
    return (np.clip(np.ceil(x) - 1.0, 0, n - 1).astype(np.int64),
            np.clip(np.ceil(y) - 1.0, 0, n - 1).astype(np.int64))


def locate_point(p: np.ndarray, level: int) -> DyadicCell:
    theta, phi = to_polar(p)
    return locate_coords(math.cos(theta), phi, level)


def parent(cell: DyadicCell) -> DyadicCell:
    if cell.level == 0:
        raise ValueError("level-0 cells have no parent")
    return DyadicCell(cell.level - 1, cell.band // 2, cell.sector // 2)


def neighbors(cell: DyadicCell) -> list[DyadicCell]:
    """Distinct same-level cells whose closures meet this cell's closure.

    Includes edge and corner sharing, the phi wraparound, and the poles:
    all cells of the top band meet at the north pole (likewise the bottom
    band at the south pole), so they are mutually adjacent.
    """
    n = n_bands(cell.level)
    out: set[tuple[int, int]] = set()
    for db in (-1, 0, 1):
        b = cell.band + db
        if not 0 <= b < n:
            continue
        for ds in (-1, 0, 1):
            out.add((b, (cell.sector + ds) % n))
    if cell.band == 0:
        for s in range(n):
            out.add((0, s))
    if cell.band == n - 1:
        for s in range(n):
            out.add((n - 1, s))
    out.discard((cell.band, cell.sector))
    return [DyadicCell(cell.level, b, s) for b, s in sorted(out)]


def antipodal_cell(cell: DyadicCell) -> DyadicCell:
    """Image of the cell under the point reflection p -> -p."""
    n = n_bands(cell.level)
    return DyadicCell(cell.level, n - 1 - cell.band, (cell.sector + n // 2) % n)


def all_cells(level: int):
    n = n_bands(level)
    for band in range(n):
        for sector in range(n):
            yield DyadicCell(level, band, sector)


def write_json(path, doc: dict) -> None:
    """Write doc as an artifact: sorted keys, compact separators, one newline."""
    with open(path, "w") as f:
        # json.dumps runs the C encoder; json.dump always the pure-Python one
        f.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _cell_key(cell, level: int):
    """A DyadicCell's (band, sector) after checking its level; other items as given."""
    if not isinstance(cell, DyadicCell):
        return cell
    if cell.level != level:
        raise ValueError(f"cell level {cell.level} does not match set level {level}")
    return cell.band, cell.sector


@dataclass(frozen=True)
class CellSet:
    """Cells at one level: rows, one read-only (k, 2) int64 array of (band, sector)
    in ascending ordinal order, built from pairs, DyadicCells or a (k, 2) int
    array.  Duplicates collapse; a level or index that is not an integer
    (float, string, bool) raises, and an out-of-range index raises
    DyadicCell's error for the first bad input.  Ordinals band * n + sector
    are int64, so levels above 30 are refused.  Iteration yields (band, sector) tuples."""

    level: int
    rows: np.ndarray

    def __post_init__(self):
        level, cells = self.level, self.rows
        if not isinstance(cells, np.ndarray):
            # an object array keeps each index as given: numpy would read a
            # bool beside ints as an int, and ints beside 2**63 as floats
            cells = np.array([_cell_key(c, level) for c in cells], dtype=object)
        # other arrays by dtype, in O(1); an empty one of any dtype holds no index
        types = {type(level), *(map(type, cells.flat) if cells.dtype == object
                                else [cells.dtype.type] * (cells.size > 0))}
        bad = sorted({t.__name__ for t in types
                      if t is bool or not issubclass(t, (int, np.integer))})
        if bad:
            raise ValueError(f"level and cell indices must be integers, got {', '.join(bad)}")
        level = int(level)  # a numpy integer level would reach to_json, which json refuses
        object.__setattr__(self, "level", level)
        if level > 30:
            raise ValueError(f"level {level} exceeds 30, the largest with int64 ordinals")
        n = n_bands(level)
        try:
            pairs = np.asarray(cells, dtype=np.int64)
        except OverflowError:
            for c in cells:  # an index beyond int64 is out of range; name the first bad one
                DyadicCell(level, int(c[0]), int(c[1]))
            raise
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"expected (band, sector) pairs, got shape {pairs.shape}")
        bad = ((pairs < 0) | (pairs >= n)).any(axis=1)
        if bad.any():
            DyadicCell(level, *pairs[np.argmax(bad)].tolist())  # raises
        ords = np.sort(pairs[:, 0] * n + pairs[:, 1])
        ords = ords[np.diff(ords, prepend=-1) != 0]  # dedupe; np.unique hashes, far slower
        rows = np.stack(np.divmod(ords, n), axis=1)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows.view())  # a view cannot turn writable

    def __eq__(self, other):
        return (isinstance(other, CellSet) and self.level == other.level
                and np.array_equal(self.rows, other.rows))

    def __hash__(self) -> int:
        return hash((self.level, self.rows.tobytes()))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return zip(*self.rows.T.tolist())

    def __contains__(self, cell) -> bool:
        if isinstance(cell, DyadicCell):
            return cell.level == self.level and (cell.band, cell.sector) in self
        return bool((self.rows == tuple(cell)).all(axis=1).any())

    def array(self) -> np.ndarray:
        """The read-only (k, 2) int64 array of (band, sector) rows, in order."""
        return self.rows

    def measure(self) -> float:
        """Total area in steradians."""
        return len(self) * cell_area(self.level)

    def fraction(self) -> float:
        """Measure normalized by the total sphere area: |cells| / (4*4^level)."""
        return len(self) / cell_count(self.level)

    def to_json(self) -> dict:
        return {"level": self.level, "cells": self.rows.tolist()}

    @classmethod
    def from_json(cls, doc: dict) -> "CellSet":
        """A CellSet document, or one whose "selected" (a filter report) or
        "selection" (a search result) member is one."""
        for key in ("selected", "selection"):
            if isinstance(doc, dict) and isinstance(doc.get(key), dict):
                doc = doc[key]
        try:
            return cls(doc["level"], doc["cells"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f'{exc}; expected a CellSet {{"level": k, "cells": [[band, sector], '
                             '...]} or a document whose "selected" or "selection" member is one'
                             ) from exc

    def save(self, path) -> None:
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "CellSet":
        with open(path) as f:
            return cls.from_json(json.load(f))
