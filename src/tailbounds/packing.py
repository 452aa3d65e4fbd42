"""Stochastic bin packing over discrete item-size distributions via the
covering LP relaxation.

The LP  min sum x_i  s.t.  sum_i x_i a_ij >= n_j, x >= 0  ranges over
enumerated feasible bin types a_i; its optimal basic solution has at most
r nonzero variables, so rounding those up costs at most r extra bins.
The dual variables y_j act as imputed item sizes; the size vector itself
is always dual-feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidArgumentError, SizeLimitError

__all__ = ["ItemDistribution", "BinTypeSet", "LpSolution", "enumerate_bin_types",
           "solve_packing_lp", "lp_round_up", "lower_bound_distribution",
           "lp_value_after_insert"]

MAX_BIN_TYPES = 10**6
MAX_PIVOTS = 10**6
MIN_SIZE = 0.05
MAX_ATOMS = 8


@dataclass(frozen=True)
class ItemDistribution:
    """Discrete item sizes zeta_j in (0, 1] with probabilities p_j."""

    sizes: tuple
    probs: tuple

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(float(z) for z in self.sizes))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if len(self.sizes) != len(self.probs) or not self.sizes:
            raise InvalidArgumentError("sizes and probs must be nonempty and aligned")
        if any(not 0 < z <= 1 for z in self.sizes):
            raise InvalidArgumentError("sizes must lie in (0, 1]")
        if any(not p >= 0 for p in self.probs):  # NaN too
            raise InvalidArgumentError("probabilities must be >= 0")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise InvalidArgumentError("probabilities must sum to 1")

    @property
    def r(self):
        return len(self.sizes)

    @property
    def mu(self):
        return float(sum(p * z for p, z in zip(self.probs, self.sizes)))

    @property
    def sigma2(self):
        mu = self.mu
        return float(sum(p * (z - mu) ** 2 for p, z in zip(self.probs, self.sizes)))

    def sample_counts(self, rng, n_items):
        return rng.multinomial(n_items, self.probs)


def lower_bound_distribution(k):
    """The two-atom distribution with sizes (k-1)/(k(k-2)) and 1/k and
    probabilities (k-2)/(k-1) and 1/(k-1): k-2 large items plus one small
    item fill a bin exactly, so it packs perfectly in expectation."""
    if k < 4:
        raise InvalidArgumentError("k must be >= 4")
    return ItemDistribution(
        sizes=((k - 1) / (k * (k - 2)), 1.0 / k),
        probs=((k - 2) / (k - 1), 1.0 / (k - 1)),
    )


@dataclass
class BinTypeSet:
    """Feasible integer fill vectors: sum_j a_ij * zeta_j <= 1 per row."""

    sizes: tuple
    rows: np.ndarray  # (s, r) nonnegative integers, lexicographically sorted

    @property
    def count(self):
        return self.rows.shape[0]


def enumerate_bin_types(dist: ItemDistribution, maximal_only=True):
    """The maximal (or, with maximal_only False, all) feasible bin types,
    lexicographically ordered.  Every bin type fits inside a maximal one,
    so the covering LP has the same value over either set.

    Guarded to r <= 8 atoms and minimum size 0.05 to keep the enumeration
    bounded; aborts past 10^6 types.
    """
    sizes = dist.sizes
    r = dist.r
    if r > MAX_ATOMS:
        raise InvalidArgumentError(f"at most {MAX_ATOMS} item types supported, got {r}")
    if min(sizes) < MIN_SIZE:
        raise InvalidArgumentError(f"sizes below {MIN_SIZE} are not supported")
    rows = []
    vec = [0] * r
    tol = 1e-12

    def rec(j, remaining):
        if len(rows) > MAX_BIN_TYPES:
            raise SizeLimitError(f"more than {MAX_BIN_TYPES} bin types")
        if j == r:
            rows.append(tuple(vec))
            return
        cap = int((remaining + tol) / sizes[j])
        for c in range(cap + 1):
            vec[j] = c
            rec(j + 1, remaining - c * sizes[j])
        vec[j] = 0

    rec(0, 1.0)
    rows.sort()
    arr = np.array(rows, dtype=np.int64)
    if maximal_only:
        load = arr @ np.array(sizes)
        keep = []
        for i, row in enumerate(arr):
            slack = 1.0 - load[i]
            if all(z > slack + tol for z in sizes):
                keep.append(i)
        arr = arr[keep]
    return BinTypeSet(sizes=sizes, rows=arr)


@dataclass
class LpSolution:
    x: np.ndarray          # per bin type
    y: np.ndarray          # per item type (imputed sizes)
    value: float
    dual_value: float
    basis_size: int

    @property
    def duality_gap(self):
        return abs(self.value - self.dual_value)


def _simplex_min_cover(a_rows, b, tol):
    """Two-phase tableau simplex with Bland's rule for
    min sum x  s.t.  A^T x >= b, x >= 0  (A given row-wise per variable).

    Generic over the number type: float inputs run in double precision,
    Fraction inputs run exactly (tol should then be 0).  Returns (x, y,
    value) with y the dual vector read off the surplus columns.
    """
    s = len(a_rows)           # variables (bin types)
    r = len(b)                # constraints (item types)
    ncols = s + r + r         # x | surplus | artificial
    zero = b[0] - b[0]
    one = zero + 1
    # tableau rows: r constraint rows, columns ncols + rhs
    tab = [[zero] * (ncols + 1) for _ in range(r)]
    for j in range(r):
        for i in range(s):
            tab[j][i] = a_rows[i][j]
        tab[j][s + j] = -one
        tab[j][s + r + j] = one
        tab[j][ncols] = b[j]
    basis = [s + r + j for j in range(r)]

    def pivot(row, col):
        piv = tab[row][col]
        inv = one / piv
        tab[row] = [v * inv for v in tab[row]]
        prow = tab[row]
        for rr in range(r):
            if rr == row:
                continue
            f = tab[rr][col]
            if f == zero:
                continue
            tab[rr] = [v - f * p for v, p in zip(tab[rr], prow)]
        basis[row] = col

    def run_phase(cost, allowed):
        # reduced costs: z[j] = cost[j] - cost_B . column_j
        pivots = 0
        while True:
            cb = [cost[basis[row]] for row in range(r)]
            entering = -1
            for col in allowed:
                if col in basis:
                    continue
                red = cost[col] - sum(cb[row] * tab[row][col] for row in range(r))
                if red < -tol:
                    entering = col  # Bland: first (smallest) index
                    break
            if entering < 0:
                return
            leaving = -1
            best_ratio = None
            for row in range(r):
                coef = tab[row][entering]
                if coef > tol:
                    ratio = tab[row][ncols] / coef
                    if (best_ratio is None or ratio < best_ratio
                            or (ratio == best_ratio and basis[row] < basis[leaving])):
                        best_ratio = ratio
                        leaving = row
            if leaving < 0:
                raise InvalidArgumentError("LP is unbounded")
            pivot(leaving, entering)
            pivots += 1
            if pivots > MAX_PIVOTS:
                raise SizeLimitError(f"the simplex took more than MAX_PIVOTS = {MAX_PIVOTS} "
                                     "pivots in one phase")

    # Phase 1: drive artificials out.
    cost1 = [zero] * ncols
    for j in range(r):
        cost1[s + r + j] = one
    run_phase(cost1, list(range(s + r)))
    infeas = sum(tab[row][ncols] for row in range(r) if basis[row] >= s + r)
    if infeas > tol:
        raise InvalidArgumentError("LP is infeasible")
    # Pivot any lingering zero-level artificials out of the basis.
    for row in range(r):
        if basis[row] >= s + r:
            for col in range(s + r):
                if abs(tab[row][col]) > tol:
                    pivot(row, col)
                    break
    # Phase 2: the real objective.
    cost2 = [zero] * ncols
    for i in range(s):
        cost2[i] = one
    run_phase(cost2, list(range(s + r)))

    x = [zero] * s
    for row in range(r):
        if basis[row] < s:
            x[basis[row]] = tab[row][ncols]
    cb = [cost2[basis[row]] for row in range(r)]
    y = []
    for j in range(r):
        col = s + j
        red = cost2[col] - sum(cb[row] * tab[row][col] for row in range(r))
        y.append(red)  # reduced cost of the surplus column equals y_j
    value = sum(x)
    return x, y, value


def solve_packing_lp(types: BinTypeSet, counts, exact=False):
    """Optimal primal/dual pair for min bins covering the item counts.

    exact=True re-solves in rational arithmetic (Fractions of the float
    inputs); intended for small oracle instances.
    """
    counts = list(counts)
    if len(counts) != len(types.sizes):
        raise InvalidArgumentError("counts must have one entry per item type")
    if any(c < 0 for c in counts):
        raise InvalidArgumentError("counts must be nonnegative")
    if types.count == 0:
        raise InvalidArgumentError("empty bin-type set")
    covered = types.rows.max(axis=0) > 0
    for j, c in enumerate(counts):
        if c > 0 and not covered[j]:
            raise InvalidArgumentError(f"item type {j} packs into no bin type")
    if exact:
        a_rows = [[Fraction(int(v)) for v in row] for row in types.rows]
        b = [Fraction(int(c)) for c in counts]
        x, y, value = _simplex_min_cover(a_rows, b, tol=Fraction(0))
        xf = np.array([float(v) for v in x])
        yf = np.array([float(v) for v in y])
        dual = float(sum(Fraction(int(c)) * yv for c, yv in zip(counts, y)))
        return LpSolution(x=xf, y=yf, value=float(value), dual_value=dual,
                          basis_size=int((xf > 0).sum()))
    a_rows = [[float(v) for v in row] for row in types.rows]
    b = [float(c) for c in counts]
    x, y, value = _simplex_min_cover(a_rows, b, tol=1e-9)
    x = np.array(x)
    y = np.array(y)
    dual = float(np.dot(b, y))
    return LpSolution(x=x, y=y, value=float(value), dual_value=dual,
                      basis_size=int((x > 1e-9).sum()))


def lp_round_up(sol: LpSolution):
    """Round each nonzero basic variable up to an integer; costs at most
    one extra bin per nonzero variable."""
    total = 0
    for v in sol.x:
        if v > 1e-9:
            total += math.ceil(v - 1e-9)
    return total


def lp_value_after_insert(types: BinTypeSet, counts, item_type, exact=False):
    """LP value after adding one item of the given type."""
    counts = list(counts)
    counts[item_type] += 1
    return solve_packing_lp(types, counts, exact=exact).value
