"""Planar point processes on a sqrt(n) x sqrt(n) grid of cells.

Cell counts are i.i.d. from a configurable (possibly heavy-tailed)
distribution; once counts are fixed, the points inside a cell may be
placed uniformly, bunched, spread, or adversarially, which models
within-cell collusion.  A count law offers sample, its mean (which the
config layer's point cap reads) and pmf.

A PointSet holds one (s, 2) array of points and an (s,) column giving
each row's owning cell, with rows grouped by ascending cell and kept in
placement order inside a cell.  sample_point_set draws the n_cells
counts from the Generator it is given first.  Only uniform_in_cell draws
more: one uniform per coordinate, each cell's x block and then its y
block, cell by cell.  The other placements are functions of the counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "Poisson",
    "TruncatedZeta",
    "TwoPoint",
    "Deterministic",
    "PlacementStrategy",
    "PointSet",
    "sample_point_set",
    "cell_bounds",
    "point_cell",
]


@dataclass(frozen=True)
class Poisson:
    """Poisson cell counts; all moments finite."""

    mean: float = 1.0

    def __post_init__(self):
        if not self.mean >= 0:
            raise InvalidArgumentError("mean must be >= 0")

    def sample(self, rng, size):
        return rng.poisson(self.mean, size=size)

    def pmf(self, k):
        return math.exp(-self.mean + k * math.log(self.mean) - math.lgamma(k + 1)) \
            if self.mean > 0 else (1.0 if k == 0 else 0.0)


# The most entries of k^-s that a zeta law computes at once (128 KB).
_ZETA_CHUNK = 2**14


def _pairwise_sum(term, lo, n):
    """np.add.reduce(term(lo, lo + n)) bit for bit, from chunks of at most
    _ZETA_CHUNK entries.  numpy sums a float64 array pairwise: it splits n
    entries at n // 2 rounded down to a multiple of 8 and sums each part
    the same way, so reducing each node of that split tree on its own and
    adding the two parts rounds exactly as the whole array does."""
    if n <= _ZETA_CHUNK:
        return float(np.add.reduce(term(lo, lo + n)))
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(term, lo, half) + _pairwise_sum(term, lo + half, n - half)


def _zeta_weights(s, lo, hi, out=None):
    """k^-s for k = lo + 1 .. hi, equal to entries lo .. hi - 1 of the full
    float64 table arange(1, cap + 1) ** -s; written into out when given."""
    return np.power(np.arange(lo + 1, hi + 1, dtype=float), -s, out=out)


@lru_cache(maxsize=16)
def _zeta_normaliser(s, cap):
    """The sum of k^-s over 1..cap, equal to the full table's w.sum()."""
    return _pairwise_sum(lambda lo, hi: _zeta_weights(s, lo, hi), 0, cap)


def _zeta_cdf_pass(s, cap, z, out=None):
    """Runs np.cumsum(w / z) of the full table a chunk at a time, writing
    it into out when given (through len(out) entries), and returns the
    number of entries through its last change.  The pmf decreases, so once
    an entry leaves the running sum unchanged every later entry does too:
    the entries that change it are a prefix, each larger than the one
    before, and the rest equal its last."""
    carry = 0.0
    stop = cap if out is None else len(out)
    for lo in range(0, stop, _ZETA_CHUNK):
        hi = min(lo + _ZETA_CHUNK, stop)
        cdf = _zeta_weights(s, lo, hi, None if out is None else out[lo:hi])
        cdf /= z
        cdf[0] += carry
        np.cumsum(cdf, out=cdf)
        changed = 0 if cdf[0] == carry else int(np.searchsorted(cdf, cdf[-1])) + 1
        if changed < hi - lo:
            return lo + changed
        carry = cdf[-1]
    return stop


@lru_cache(maxsize=16)
def _zeta_cdf(s, cap):
    """The full table's CDF through its last change, in one array that a
    first pass sizes and a second fills."""
    z = _zeta_normaliser(s, cap)
    cdf = np.empty(_zeta_cdf_pass(s, cap, z))
    _zeta_cdf_pass(s, cap, z, cdf)
    return cdf


@dataclass(frozen=True)
class TruncatedZeta:
    """Power-law counts: Pr(Y = k) proportional to k^(-s) on 1..cap, with
    optional zero inflation Pr(Y = 0) = p0.

    Truncation keeps every moment finite and the bookkeeping exact; the
    untruncated law has E Y^l finite only for l < s - 1.  p0 > 0 gives the
    count law genuine mass at zero (the empty-cell probability the grid
    hypotheses speak about); it rescales, not reshapes, the power-law part.
    """

    s: float
    cap: int = 10**6
    p0: float = 0.0

    def __post_init__(self):
        if not self.s > 1 or self.cap < 1:
            raise InvalidArgumentError("need exponent s > 1 and cap >= 1")
        if not 0 <= self.p0 < 1:
            raise InvalidArgumentError("p0 must be in [0, 1)")

    def sample(self, rng, size):
        cdf = _zeta_cdf(self.s, self.cap)
        counts = np.searchsorted(cdf, rng.random(size), side="right") + 1
        # A draw at or past the last kept entry lies past every entry of the
        # full CDF, where no count below the cap is left.
        counts[counts > len(cdf)] = self.cap
        if self.p0:
            counts = np.where(rng.random(size) < self.p0, 0, counts)
        return counts

    @property
    def mean(self):
        z = _zeta_normaliser(self.s, self.cap)

        def term(lo, hi):  # the full table's pmf * ks
            ks = np.arange(lo + 1, hi + 1, dtype=float)
            return _zeta_weights(self.s, lo, hi) / z * ks

        return (1.0 - self.p0) * _pairwise_sum(term, 0, self.cap)

    def pmf(self, k):
        if k == 0:
            return self.p0
        if not 1 <= k <= self.cap:
            return 0.0
        w = float(_zeta_weights(self.s, k - 1, k)[0])
        return (1.0 - self.p0) * (w / _zeta_normaliser(self.s, self.cap))


@dataclass(frozen=True)
class TwoPoint:
    """Y = 0 with probability p0, else a fixed positive count."""

    p0: float
    value: int

    def __post_init__(self):
        if not 0 <= self.p0 <= 1:
            raise InvalidArgumentError("p0 must be in [0, 1]")
        if self.value < 1:
            raise InvalidArgumentError("value must be >= 1")

    def sample(self, rng, size):
        return np.where(rng.random(size) < self.p0, 0, self.value).astype(np.int64)

    @property
    def mean(self):
        return (1 - self.p0) * self.value

    def pmf(self, k):
        if k == 0:
            return self.p0
        return 1 - self.p0 if k == self.value else 0.0


@dataclass(frozen=True)
class Deterministic:
    """Exactly k points in every cell."""

    k: int

    def __post_init__(self):
        if self.k < 0:
            raise InvalidArgumentError("k must be >= 0")

    def sample(self, rng, size):
        return np.full(size, self.k, dtype=np.int64)

    @property
    def mean(self):
        return float(self.k)

    def pmf(self, j):
        return 1.0 if j == self.k else 0.0


class PlacementStrategy(str, Enum):
    UNIFORM_IN_CELL = "uniform_in_cell"
    CORNER_BUNCH = "corner_bunch"
    GRID_SPREAD = "grid_spread"
    ADVERSARIAL_DIAGONAL = "adversarial_diagonal"


def _side(n_cells):
    side = math.isqrt(n_cells)
    if side * side != n_cells or n_cells < 4:
        raise InvalidArgumentError(f"n_cells must be a perfect square >= 4, got {n_cells}")
    return side


def cell_bounds(n_cells, index):
    """Half-open cell [x0, x1) x [y0, y1); the top row and right column own
    their outer boundary so the cells partition the unit square."""
    side = _side(n_cells)
    r, c = divmod(index, side)
    h = 1.0 / side
    return c * h, (c + 1) * h, r * h, (r + 1) * h


def point_cell(n_cells, x, y):
    """Owning cell of a point of the unit square under the half-open rule,
    read as int(x * side).  It is not the owner of a uniform_in_cell draw
    on an inner edge: a draw at u = 0 is x0 = c*h, which can read as cell
    c - 1, and one at u just below 1 rounds onto, or at most one ulp past,
    the next cell's lower edge.  A PointSet's cell column owns its points."""
    side = _side(n_cells)
    c = min(int(x * side), side - 1)
    r = min(int(y * side), side - 1)
    return r * side + c


@dataclass
class PointSet:
    n_cells: int
    points: np.ndarray  # (s, 2) floats, rows grouped by ascending cell
    cell: np.ndarray  # (s,) int64 owning cell of each row

    @property
    def total_points(self):
        return len(self.points)


def _toward_center(index, side, h):
    """Per row, the edge of its column (or row) index nearest 0.5; an upper
    edge is open except on the outer boundary, so it is one float inside."""
    low, high = index * h, (index + 1) * h
    inside = np.where(index == side - 1, high, np.nextafter(high, low))
    return np.where(np.abs(low - 0.5) <= np.abs(high - 0.5), low, inside)


def sample_point_set(n_cells, count_dist, placement, rng):
    """Draw i.i.d. cell counts from count_dist with the Generator rng and
    place that many points in each cell per the placement strategy."""
    side = _side(n_cells)
    placement = PlacementStrategy(placement)
    counts = count_dist.sample(rng, n_cells)
    cell = np.repeat(np.arange(n_cells, dtype=np.int64), counts)
    row = np.arange(len(cell))
    ends = np.cumsum(counts)
    first = (ends - counts)[cell]  # first row of each row's cell
    h = 1.0 / side
    r, c = np.divmod(cell, side)
    x0, y0 = c * h, r * h
    if placement is PlacementStrategy.UNIFORM_IN_CELL:
        # Cell i owns rows [S, E) and draws 2S..2S+k-1 (x) then 2S+k..2E-1 (y).
        # With u a few ulp below 1, x0 + u*h can round onto or one ulp past
        # an upper edge.  Past the outer edge side*h of the last row or
        # column it would leave the square, so coordinates are clamped to it.
        u = rng.random(2 * len(cell))
        top = side * h
        xy = (np.minimum(x0 + u[row + first] * h, top),
              np.minimum(y0 + u[row + ends[cell]] * h, top))
    elif placement is PlacementStrategy.CORNER_BUNCH:
        xy = (x0, y0)
    elif placement is PlacementStrategy.GRID_SPREAD:
        # A g x g lattice with g = ceil(sqrt(k)); isqrt keeps g exact.
        distinct, which = np.unique(counts[cell], return_inverse=True)
        g = np.array([math.isqrt(int(k) - 1) + 1 for k in distinct], dtype=np.int64)[which]
        gy, gx = np.divmod(row - first, g)
        xy = (x0 + (gx + 0.5) * h / g, y0 + (gy + 0.5) * h / g)
    else:  # ADVERSARIAL_DIAGONAL
        xy = (_toward_center(c, side, h), _toward_center(r, side, h))
    return PointSet(n_cells=n_cells, points=np.column_stack(xy), cell=cell)

