"""Orthogonal-pair conflict tests between dyadic cells.

Two regions conflict when the closed pair contains two points at geodesic
distance exactly pi/2, i.e. when 0 lies in the closed range of inner products
achievable between them.  For theta/phi boxes the range is computed in closed
form: the trivariate function

    f(u1, u2, dphi) = u1*u2 + sqrt(1-u1^2)*sqrt(1-u2^2)*cos(dphi),  u = cos(theta)

is monotone in cos(dphi) (the square-root product is nonnegative), so the
extremes occur at the extreme achievable cos(dphi), and for fixed cos(dphi)
at box corners or at per-edge stationary points of A*cos(t) + B*sin(t).

Cell boundaries are dyadic in u and quarter-turn-rational in phi, so the
kernel works in u and in "turns" (phi / 2*pi): there the boundary arithmetic
is exact in doubles and an extreme of exactly zero comes out as exactly zero,
which the closed-cell conflict semantics at margin 0 relies on.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .grid import CellSet, DyadicCell, cell_bounds, cell_bounds_batch, cell_count, n_bands
from .sphere import TWO_PI


class ResourceCapError(RuntimeError):
    """A request above a size cap: a graph above MAX_LEVEL, or an exact search
    over more than search.EXACT_MAX_CELLS candidate cells."""


class CorruptCacheError(RuntimeError):
    """Graph cache file failed its version or checksum validation, or differs
    from the rebuilt graph."""


@dataclass(frozen=True)
class DotRange:
    """Closed interval of inner products achievable between two regions."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty dot range [{self.lo}, {self.hi}]")

    def contains_zero(self, margin: float = 0.0) -> bool:
        _check_margin(margin)
        return self.lo - margin <= 0.0 <= self.hi + margin


def _check_margin(margin: float) -> float:
    """The margin, -0.0 as 0.0; a NaN, negative or infinite margin, with which
    a test fails open, is refused."""
    if not 0.0 <= margin < math.inf:
        raise ValueError(f"margin must be finite and >= 0, got {margin}")
    return margin + 0.0


def _cos_turns(t):
    """cos(2*pi*t), exact at multiples of a quarter turn."""
    r = np.mod(np.asarray(t, dtype=float), 1.0)
    out = np.cos(TWO_PI * r)
    out = np.where(r == 0.0, 1.0, out)
    out = np.where(r == 0.25, 0.0, out)
    out = np.where(r == 0.5, -1.0, out)
    out = np.where(r == 0.75, 0.0, out)
    return out


def _cos_interval_extremes_turns(dlo, dhi):
    """Min and max of cos(2*pi*t) over t in [dlo, dhi] (turns)."""
    dlo, dhi = np.asarray(dlo, dtype=float), np.asarray(dhi, dtype=float)
    has_peak = np.floor(dhi) >= np.ceil(dlo)
    has_trough = np.floor(dhi - 0.5) >= np.ceil(dlo - 0.5)
    clo, chi = _cos_turns(dlo), _cos_turns(dhi)
    end_max = np.maximum(clo, chi)
    end_min = np.minimum(clo, chi)
    return np.where(has_trough, -1.0, end_min), np.where(has_peak, 1.0, end_max)


def _g(u1, u2, c):
    return u1 * u2 + c * np.sqrt(np.maximum(0.0, 1.0 - u1 * u1)) \
        * np.sqrt(np.maximum(0.0, 1.0 - u2 * u2))


def _extremize_u_box(u1lo, u1hi, u2lo, u2hi, c, maximize: bool) -> np.ndarray:
    """Extreme of _g over the closed box in (u1, u2) at fixed cos(dphi) = c."""
    fill = -np.inf if maximize else np.inf
    reduce_fn = np.maximum if maximize else np.minimum
    best = np.full(np.broadcast(np.asarray(u1lo), np.asarray(u2lo), np.asarray(c)).shape, fill)
    for a in (u1lo, u1hi):
        for b in (u2lo, u2hi):
            reduce_fn(best, _g(a, b, c), out=best)
    # stationary points along each box edge: with the other coordinate fixed at
    # u, the edge restriction is A*cos(t) + B*sin(t) with A = u, B = c*sqrt(1-u^2),
    # extremal at (cos t, sin t) = +-(A, B)/R with value +-R; valid when the
    # sine component is nonnegative and the cosine component lies in the interval.
    # The -R point's cosine is exactly -A/R, so one quotient serves both signs.
    for vlo, vhi, ufix in ((u1lo, u1hi, u2lo), (u1lo, u1hi, u2hi),
                           (u2lo, u2hi, u1lo), (u2lo, u2hi, u1hi)):
        a = np.asarray(ufix, dtype=float)
        vlo, vhi = np.asarray(vlo, dtype=float), np.asarray(vhi, dtype=float)
        b = c * np.sqrt(np.maximum(0.0, 1.0 - a * a))
        r = np.hypot(a, b)
        with np.errstate(invalid="ignore"):
            q = a / r  # NaN exactly where R = 0 (then A = 0), which fails every test
        reduce_fn(best, r, out=best, where=(b >= 0.0) & (q >= vlo) & (q <= vhi))
        reduce_fn(best, -r, out=best, where=(b <= 0.0) & (q <= -vlo) & (q >= -vhi))
    return best


def dot_range_boxes_u(u1lo, u1hi, p1lo, p1hi, u2lo, u2hi, p2lo, p2hi):
    """(lo, hi) of inner products between boxes in (cos(theta), phi-in-turns).

    u intervals satisfy ulo <= uhi in [-1, 1]; phi intervals are in turns
    (any real bounds, interpreted mod 1).  All arguments broadcast.
    """
    cmin, cmax = _cos_interval_extremes_turns(np.asarray(p1lo) - np.asarray(p2hi),
                                              np.asarray(p1hi) - np.asarray(p2lo))
    hi = _extremize_u_box(u1lo, u1hi, u2lo, u2hi, cmax, maximize=True)
    lo = _extremize_u_box(u1lo, u1hi, u2lo, u2hi, cmin, maximize=False)
    return np.clip(lo, -1.0, 1.0), np.clip(hi, -1.0, 1.0)


def _cell_box_u(cell: DyadicCell) -> tuple[float, float, float, float]:
    """(ulo, uhi, phi_lo_turns, phi_hi_turns) with exact dyadic boundaries."""
    (cos_lo, cos_hi), _ = cell_bounds(cell)
    n = n_bands(cell.level)
    return cos_lo, cos_hi, cell.sector / n, (cell.sector + 1) / n


def dot_range_cells(c1: DyadicCell, c2: DyadicCell) -> DotRange:
    """Exact range of inner products between points of two closed cells."""
    b1, b2 = _cell_box_u(c1), _cell_box_u(c2)
    lo, hi = dot_range_boxes_u(*b1, *b2)
    return DotRange(float(lo), float(hi))


def cells_conflict(c1: DyadicCell, c2: DyadicCell, margin: float = 0.0) -> bool:
    """True iff the closed cells contain a pair at distance pi/2 (within margin)."""
    return dot_range_cells(c1, c2).contains_zero(margin)


@dataclass(eq=False)
class ConflictGraph:
    """Pairwise orthogonal-pair relation over all cells at one level.

    Nodes are cell ordinals (band * n + sector, n = 2^(k+1)).  Whether two
    cells conflict depends only on their bands and on their circular sector
    distance t = min(d, n - d), d = (s1 - s2) mod n, and for each band pair
    the conflicting distances are one run: cell (b1, s1) conflicts with cell
    (b2, s2) iff first[b1, b2] <= t <= last[b1, b2].  Both (n, n) arrays are
    symmetric; a band pair with no conflict stores first > last, as (1, 0).
    first[b, b] == 0 marks the bands whose cells contain an orthogonal pair on
    their own.  Everything else is a view of the intervals.
    """

    level: int
    margin: float
    first: np.ndarray = field(repr=False)
    last: np.ndarray = field(repr=False)

    def n_cells(self) -> int:
        return cell_count(self.level)

    def self_conflicting(self) -> np.ndarray:
        """Mask by ordinal of the cells that conflict with themselves: whole bands."""
        return np.repeat(np.diag(self.first) == 0, n_bands(self.level))

    @cached_property
    def self_conflicts(self) -> np.ndarray:
        """Ascending uint32 ordinals of the self-conflicting cells."""
        return np.flatnonzero(self.self_conflicting()).astype(np.uint32)

    @cached_property
    def windows(self) -> np.ndarray:
        """(n, n, 2n) W[b1, b2, k]: whether cell (b1, s) conflicts with cell
        (b2, s + k), i.e. whether k's circular distance lies in the run, so cell
        (b, s)'s mask over band b2 is the slice W[b, b2, n - s:2n - s]."""
        n = n_bands(self.level)
        k = np.arange(2 * n) % n
        t = np.minimum(k, n - k)
        return (self.first[:, :, None] <= t) & (t <= self.last[:, :, None])

    @cached_property
    def edges(self) -> np.ndarray:
        """Sorted (m, 2) uint32 array of the conflicting ordinal pairs (a, c), a < c.

        Cell (b, s) meets the cells (b2, d) of W[b, b2, n + d] rotated by s: row
        s of ordinals (b2 * n + (d + s) mod n), b2 >= b.  Each row sorted, the
        entries above b * n + s are the cell's pairs, in (a, c) order band by band.
        """
        n = n_bands(self.level)
        pairs = np.empty((self.degrees().sum() // 2, 2), dtype=np.uint32)
        own = np.arange(n, dtype=np.uint32)[:, None]  # row s: cell (b, s), ordinal b * n + s
        end = 0
        for b in range(n):
            b2, d = np.nonzero(self.windows[b, b:, n:])
            rows = (d.astype(np.uint32) + own) % n + ((b + b2) * n).astype(np.uint32)
            rows.sort(axis=1)
            keep = rows > b * n + own
            counts = np.count_nonzero(keep, axis=1)
            start, end = end, end + counts.sum()
            pairs[start:end, 0] = np.repeat(b * n + own.ravel(), counts)
            pairs[start:end, 1] = rows[keep]
        return pairs

    def _runs(self, bands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(first, last) between the given bands, the runs _member_pairs reads."""
        between = np.ix_(bands, bands)
        return self.first[between], self.last[between]

    def conflict_view(self, o: int) -> np.ndarray:
        """(n, n) view [band, sector] of the cells that conflict with cell o,
        o itself included when its band self-conflicts: ORed, added or
        subtracted into a reshaped (n, n) view of a mask by ordinal, it needs
        no copy."""
        n = n_bands(self.level)
        b, s = divmod(int(o), n)
        return self.windows[b, :, n - s:2 * n - s]

    def neighbours(self, o: int) -> np.ndarray:
        """Mask by ordinal of the cells that conflict with cell o, o itself cleared."""
        mask = self.conflict_view(o).ravel()  # a copy: rows lie 2n apart
        mask[o] = False
        return mask

    def degrees(self) -> np.ndarray:
        """Neighbour count of every cell, by ordinal; it depends only on the band.

        Every distance of a run stands for two sectors, but 0 and n/2 for one.
        The empty run (1, 0) counts 0.
        """
        n = n_bands(self.level)
        first, last = self.first, self.last
        per_pair = 2 * (last - first + 1) - (first == 0) - (last == n // 2)
        return np.repeat(per_pair.sum(axis=1) - (np.diag(first) == 0), n)

    def adjacency(self) -> Mapping[int, set[int]]:
        """Read-only {ordinal: set of neighbouring ordinals}, a view of the graph.

        Each read of a cell builds a new set from neighbours(o), filled by
        ascending inserts, so the sets and their iteration order are those of
        sets grown from the sorted edge list; the view itself holds no
        per-cell state.
        """
        return _Adjacency(self)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ConflictGraph)
                and self.level == other.level and self.margin == other.margin
                and np.array_equal(self.first, other.first)
                and np.array_equal(self.last, other.last))


class _Adjacency(Mapping):
    """ConflictGraph.adjacency(): keys range(n_cells()), values new sets."""

    def __init__(self, graph: ConflictGraph):
        self._graph = graph

    def __getitem__(self, key) -> set[int]:
        if key not in self:
            raise KeyError(key)
        return set(np.flatnonzero(self._graph.neighbours(int(key))).tolist())

    def __contains__(self, key) -> bool:
        return isinstance(key, numbers.Integral) and 0 <= key < len(self)

    def __iter__(self):
        return iter(range(len(self)))

    def __len__(self) -> int:
        return self._graph.n_cells()


# Kernel decisions per call: bounds the kernel's float temporaries to a
# few tens of MB whatever the level.
_CHUNK = 1 << 20

# Widens the tree's margin: a node range contains its members' ranges
# exactly, but the kernel may round each by a few ulps.
_BLOCK_SLACK = 1e-9
# Bits per axis of the Morton key of a box centre: enough to tell apart the
# 2^(k+1) bands and sectors of every level k up to 15.
_MORTON_BITS = 16


def _morton_order(ulo, uhi, plo, phi_) -> np.ndarray:
    """Permutation sorting boxes by the Z-order key of their centres, taken in
    (u, azimuth turns mod 1), both axes scaled to [0, 1)."""
    scale = 1 << _MORTON_BITS
    axes = ((ulo + uhi) / 4.0 + 0.5, np.mod((plo + phi_) / 2.0, 1.0))
    qu, qa = (np.minimum(a * scale, scale - 1).astype(np.int64) for a in axes)
    key = np.zeros(len(ulo), dtype=np.int64)
    for b in range(_MORTON_BITS):
        key |= ((qu >> b) & 1) << (2 * b + 1) | ((qa >> b) & 1) << (2 * b)
    return np.argsort(key, kind="stable")


def _ranges_meet(boxes, i: np.ndarray, j: np.ndarray, margin: float) -> np.ndarray:
    """Mask of the pairs (i[t], j[t]) whose dot range meets [-margin, margin],
    in kernel calls of <= _CHUNK pairs."""
    meet = np.empty(len(i), dtype=bool)
    for c0 in range(0, len(i), _CHUNK):
        a, b = i[c0:c0 + _CHUNK], j[c0:c0 + _CHUNK]
        lo, hi = dot_range_boxes_u(*(x[a] for x in boxes), *(x[b] for x in boxes))
        meet[c0:c0 + _CHUNK] = (lo - margin <= 0.0) & (hi + margin >= 0.0)
    return meet


def _pair_scan(boxes, margin: float) -> tuple[np.ndarray, int]:
    """((k, 2) index pairs i <= j whose dot ranges contain 0, pairs evaluated).

    Boxes are (ulo, uhi, plo, phi) arrays, azimuth in turns.  They are sorted
    in Morton order, and level k of a binary tree bounds each run of 2^k
    consecutive sorted boxes by one box.  Descending from the root, a node
    pair is dropped when its range misses [-margin, margin] by more than
    _BLOCK_SLACK, and each surviving pair expands to its child pairs.  The
    leaf pairs left reach the kernel as (smaller, larger) input index, so the
    answer is the dense scan's, and they are the pairs evaluated.  The pairs
    come in no particular order.
    """
    _check_margin(margin)
    boxes = tuple(np.asarray(a, dtype=float) for a in boxes)
    m = len(boxes[0])
    if m == 0:
        return np.empty((0, 2), dtype=np.int64), 0
    order = _morton_order(*boxes)
    levels = [tuple(x[order] for x in boxes)]
    while len(levels[-1][0]) > 1:
        ulo, uhi, plo, phi_ = levels[-1]
        starts = np.arange(0, len(ulo), 2)
        levels.append((np.minimum.reduceat(ulo, starts), np.maximum.reduceat(uhi, starts),
                       np.minimum.reduceat(plo, starts), np.maximum.reduceat(phi_, starts)))
    i = j = np.zeros(1, dtype=np.int64)
    for k in range(len(levels) - 1, 0, -1):
        live = _ranges_meet(levels[k], i, j, margin + _BLOCK_SLACK)
        i = (2 * i[live, None] + [0, 0, 1, 1]).ravel()
        j = (2 * j[live, None] + [0, 1, 0, 1]).ravel()
        keep = (i <= j) & (j < len(levels[k - 1][0]))
        i, j = i[keep], j[keep]
    i, j = np.minimum(order[i], order[j]), np.maximum(order[i], order[j])
    hit = _ranges_meet(boxes, i, j, margin)
    return np.stack([i[hit], j[hit]], axis=1), len(i)


def _interval_build(level: int, margin: float, bands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, last): the run of sector distances t in [0, n/2] at which a cell
    of band bands[i] conflicts with a cell of band bands[j], at [i, j].

    Two points whose azimuth gap has cosine c have |dot| <= margin iff c is in
    [(-u1*u2 - margin) / (s1*s2), (-u1*u2 + margin) / (s1*s2)], s = sqrt(1 - u^2).
    In x = cot(theta) of each band the ends are concave (-margin) and convex
    (+margin) in each x separately, so over a band pair's u-box the gap cosines
    that conflict form one interval [L, H]: L is the least corner value of the
    lower end and H the greatest of the upper end, 0/0 at a pole counting as
    -inf and +inf.  Cells at distance t have gap cosines in
    [cos(min(t + 1, n/2) w), cos(max(t - 1, 0) w)], w = 2 pi / n, and both ends
    fall as t grows: the run is one searchsorted per end.  The cosine table is
    odd about the quarter turn, so the transpose, the band flip and the
    antipodal map on one cell (runs (n/2 - last, n/2 - first)) hold bit for bit.
    """
    n = n_bands(level)
    h = n // 2
    (ulo, uhi), _ = cell_bounds_batch(level, bands, 0)
    u = np.stack((ulo, uhi))
    s = np.sqrt(1.0 - u * u)
    p = u[:, None, :, None] * u[None, :, None, :]  # [corner of b1, corner of b2, b1, b2]
    q = s[:, None, :, None] * s[None, :, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        lo, hi = (-p - margin) / q, (margin - p) / q
    low = np.where(np.isnan(lo), -np.inf, lo).min(axis=(0, 1))
    high = np.where(np.isnan(hi), np.inf, hi).max(axis=(0, 1))
    j = np.arange(h + 1)
    cos = np.where(2 * j <= h, 1.0, -1.0) * _cos_turns(np.minimum(j, h - j) / n)
    first = np.searchsorted(-cos[np.minimum(j + 1, h)], -high, side="left")
    last = np.searchsorted(-cos[np.maximum(j - 1, 0)], -low, side="right") - 1
    empty = first > last
    return np.where(empty, 1, first), np.where(empty, 0, last)


# The largest level build_conflict_graph accepts.  What caps it is `windows`,
# which every search method reads: 2n^3 bytes, 34 MB at level 7, 268 MB at
# level 8 (590 MB peak while it is built) and 2.1 GB at level 9.  `edges`,
# built only when asked for, is 346 MB at level 7 (~357 MB peak).
MAX_LEVEL = 7


def build_conflict_graph(level: int, margin: float = 0.0) -> ConflictGraph:
    """Decide all cell pairs (and self-pairs) at a level; deterministic."""
    if level > MAX_LEVEL:
        raise ResourceCapError(
            f"level {level} exceeds the maximum {MAX_LEVEL} ({cell_count(level)} cells)")
    margin = _check_margin(margin)
    return ConflictGraph(level, margin, *_interval_build(level, margin, np.arange(n_bands(level))))


def _member_pairs(selection: CellSet, runs) -> np.ndarray:
    """Sorted (k, 2) ordinal pairs (a, b), a <= b, of a selection's members that
    conflict, a == b for a self-conflict, from runs(bands): (first, last)
    between its occupied bands, ascending, indexed by rank among them.

    Member (b, s) conflicts with the members of band b2 whose sector offset
    d = (s2 - s) mod n lies in [first, last] or in [n - last, n - first]; the
    second arc drops d = n/2 and d = n (that is, 0), which the first holds when
    they are in the run, so the two never overlap.  Each arc starts at s + lo,
    lo in [0, n], so prefix counts of each band's members over the doubled
    sector axis count it, and a nonzero count names its members by rank, mod
    the band's size.  Only band pairs with a nonempty run are read.
    """
    n = n_bands(selection.level)
    bands, sectors = selection.array().T  # ascending ordinals: by band, then sector
    start = np.flatnonzero(np.diff(bands, prepend=-1))  # each occupied band's first member
    size = np.diff(start, append=len(bands))
    first, last = runs(bands[start])
    row = np.repeat(np.arange(len(start)), size)  # each member's band, by rank
    below = np.zeros((len(start), 2 * n + 1), dtype=np.int64)  # [r, j]: at doubled sector < j
    below[row, sectors + 1] = below[row, sectors + n + 1] = 1
    np.cumsum(below, axis=1, out=below)
    arc_lo = np.stack((first, n - np.minimum(last, n // 2 - 1)))  # [arc, r, r2]
    arc_end = np.stack((last, n - np.maximum(first, 1))) + 1      # past the arc
    k = len(bands)
    keys = [np.empty(0, dtype=np.int64)]  # i * k + j for each conflicting member pair i <= j
    for r in range(len(start)):
        others = np.flatnonzero(first[r] <= last[r])
        if not len(others):
            continue
        s = sectors[start[r]:start[r] + size[r], None]
        before = below[others, s + arc_lo[:, r][:, None, others]]  # [arc, member, other]
        count = below[others, s + arc_end[:, r][:, None, others]] - before
        arc, i, o = np.nonzero(count)
        c = count[arc, i, o]
        rank = np.repeat(before[arc, i, o] - np.cumsum(c) + c, c) + np.arange(c.sum())
        r2 = np.repeat(others[o], c)
        i, j = np.repeat(start[r] + i, c), start[r2] + rank % size[r2]
        keys.append(i[j >= i] * k + j[j >= i])  # members ascend, so i <= j is a <= b
    ords = bands * n + sectors
    return ords[np.stack(np.divmod(np.sort(np.concatenate(keys)), k), axis=1)]


def selection_violations(selection: CellSet,
                         margin: float = 0.0) -> tuple[list[int], list[tuple[int, int]]]:
    """(self-conflicting ordinals, conflicting ordinal pairs (a, b), a < b) within
    a selection, both ascending, from the closed-form runs between its occupied
    bands alone: no graph is built, so any level is accepted."""
    margin = _check_margin(margin)
    a, b = _member_pairs(selection, partial(_interval_build, selection.level, margin)).T
    diagonal = a == b
    return a[diagonal].tolist(), list(zip(a[~diagonal].tolist(), b[~diagonal].tolist()))


_MAGIC = b"OPFG"
_FORMAT_VERSION = 2
_HEADER = struct.Struct("<4sHHd32s")  # magic, version, level, margin, body sha256


def _encode(graph: ConflictGraph) -> bytes:
    """The cache file of a graph: the header, then first and then last as
    little-endian uint16, row by row."""
    body = np.stack((graph.first, graph.last)).astype("<u2").tobytes()
    return _HEADER.pack(_MAGIC, _FORMAT_VERSION, graph.level, graph.margin,
                        hashlib.sha256(body).digest()) + body


def save_graph(graph: ConflictGraph, path) -> None:
    """Write the graph's .opfg file, _encode(graph): the header with the body's
    checksum, then the interval arrays.  No command reads it back; load_graph
    checks a file against a rebuild."""
    with open(path, "wb") as f:
        f.write(_encode(graph))


def load_graph(path) -> ConflictGraph:
    """The graph of a cache file, which must hold exactly what save_graph
    writes for the level and margin in its header.

    The checksum covers only the body, so the graph is rebuilt from the
    header's level and margin, and the file must equal its encoding.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise CorruptCacheError("graph cache truncated before header")
    magic, version, level, margin, digest = _HEADER.unpack_from(raw)
    if magic != _MAGIC or version != _FORMAT_VERSION:
        raise CorruptCacheError(f"bad magic/version in graph cache: {magic!r} v{version}")
    if hashlib.sha256(memoryview(raw)[_HEADER.size:]).digest() != digest:
        raise CorruptCacheError("graph cache checksum mismatch")
    if level > MAX_LEVEL or not 0.0 <= margin < math.inf:
        raise CorruptCacheError(f"graph cache header level {level} margin {margin} is out "
                                f"of range (level <= {MAX_LEVEL}, finite margin >= 0)")
    graph = build_conflict_graph(level, margin)
    if raw != _encode(graph):
        raise CorruptCacheError(f"graph cache differs from the level {level} "
                                f"margin {margin:g} graph it names")
    return graph
