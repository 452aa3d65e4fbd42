"""Longest increasing subsequences with essential-element statistics, and
unit-vector families for random-projection experiments.

Comparison rule for sequences: strict value comparison, with equal values
ordered by position index, so lis() is deterministic on any input and
agrees with the usual LIS on distinct values (continuous draws are
distinct almost surely).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

__all__ = ["lis", "lis_positions", "essential_mask", "essential_probability",
           "EssentialEstimate", "SphereUniform", "GaussianIid",
           "RadialBetaMixture", "sample_unit_vector",
           "jl_projection_statistic", "ProjectionStat",
           "check_jl_hypotheses", "JlHypothesisReport"]


def lis(values):
    """Length of the longest increasing subsequence by patience sorting.

    Equal values chain in position order (see module docstring), so e.g.
    [1, 1, 1] has lis 3.
    """
    tails = []
    for v in values:
        pos = bisect_right(tails, v)
        if pos == len(tails):
            tails.append(v)
        else:
            tails[pos] = v
    return len(tails)


def _forward_ranks(values):
    ranks = []
    tails = []
    for v in values:
        pos = bisect_right(tails, v)
        if pos == len(tails):
            tails.append(v)
        else:
            tails[pos] = v
        ranks.append(pos + 1)
    return ranks


def lis_positions(values):
    """(length, fwd, bwd): fwd[j]/bwd[j] are the longest chain lengths
    ending/starting at j.  Position j lies on some maximum chain iff
    fwd[j] + bwd[j] - 1 equals the length."""
    values = list(values)
    fwd = _forward_ranks(values)
    bwd = _forward_ranks([-v for v in reversed(values)])[::-1]
    return max(fwd, default=0), fwd, bwd


def essential_mask(values):
    """Boolean mask of positions whose removal shortens the LIS, i.e. the
    positions present in every maximum-length increasing subsequence.

    Under the module's comparison rule the forward ranks are exact chain
    lengths, ties included, and every maximum chain holds exactly one
    on-chain position of each rank 1..length.  So a position is essential
    iff it is the only position of its forward rank on a maximum chain.
    """
    values = list(values)
    n = len(values)
    length, fwd, bwd = lis_positions(values)
    on_chain = [fwd[j] + bwd[j] - 1 == length for j in range(n)]
    rank_count = {}
    for j in range(n):
        if on_chain[j]:
            rank_count[fwd[j]] = rank_count.get(fwd[j], 0) + 1
    return np.array(
        [on_chain[j] and rank_count[fwd[j]] == 1 for j in range(n)], dtype=bool
    )


@dataclass
class EssentialEstimate:
    """Monte Carlo estimates of a_j = Pr(position j is essential | prefix)."""

    i: int
    n: int
    a_hat: np.ndarray            # indexed j = i..n (1-based positions)
    standard_error: np.ndarray
    resamples: int


def essential_probability(n, i, prefix, resamples, rng):
    """Estimate, for each j >= i, the probability that position j is
    essential given fixed values Y_1..Y_{i-1}, by redrawing the suffix
    uniformly `resamples` times from the Generator rng."""
    if resamples < 100:
        raise InvalidArgumentError("resamples must be >= 100")
    prefix = list(prefix)
    if len(prefix) != i - 1:
        raise InvalidArgumentError("prefix must have length i-1")
    width = n - i + 1
    hits = np.zeros(width)
    for _ in range(resamples):
        suffix = rng.random(width)
        mask = essential_mask(prefix + suffix.tolist())
        hits += mask[i - 1:]
    a_hat = hits / resamples
    se = np.sqrt(a_hat * (1 - a_hat) / resamples)
    return EssentialEstimate(
        i=i, n=n, a_hat=a_hat, standard_error=se,
        resamples=resamples,
    )


# --- unit vectors -----------------------------------------------------------


@dataclass(frozen=True)
class SphereUniform:
    """Uniform direction on the unit sphere of R^n: normalized standard
    normals; every coordinate has E Y_i^2 = 1/n."""

    def radial_moment(self, l):
        return 1.0

    def coord_second_moment(self, n):
        return 1.0 / n


@dataclass(frozen=True)
class GaussianIid:
    """Independent N(0, 1/n) coordinates: not a unit vector, but the
    natural flat-conditional reference for the hypothesis diagnostics."""

    def radial_moment(self, l):
        return 1.0

    def coord_second_moment(self, n):
        return 1.0 / n


@dataclass(frozen=True)
class RadialBetaMixture:
    """Sphere direction scaled by a random radius with R^2 ~ scale*Beta(a, b).

    All radial moments are finite and analytic:
    E R^(2l) = scale^l * prod_{j<l} (a+j)/(a+b+j).
    """

    scale: float = 1.2
    a: float = 8.0
    b: float = 2.0

    def __post_init__(self):
        if self.scale <= 0 or self.a <= 0 or self.b <= 0:
            raise InvalidArgumentError("scale, a, b must be positive")

    def radial_moment(self, l):
        """E R^(2l)."""
        out = self.scale**l
        for j in range(l):
            out *= (self.a + j) / (self.a + self.b + j)
        return out

    def coord_second_moment(self, n):
        return self.radial_moment(1) / n


def sample_unit_vector(n, family, rng):
    """One draw of the coordinate vector (Y_1..Y_n) from the Generator rng."""
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    return _draw_vectors(rng, n, family, 1)[0]


def _draw_vectors(rng, n, family, count):
    g = rng.standard_normal((count, n))
    if isinstance(family, GaussianIid):
        return g / math.sqrt(n)
    g /= np.sqrt((g**2).sum(axis=1, keepdims=True))
    if isinstance(family, SphereUniform):
        return g
    if isinstance(family, RadialBetaMixture):
        g *= np.sqrt(family.scale * rng.beta(family.a, family.b, size=(count, 1)))
        return g
    raise InvalidArgumentError(f"unknown vector family {family!r}")


@dataclass
class ProjectionStat:
    total: float      # sum of the first k squared coordinates
    centered: float   # total minus k * E Y_i^2


def jl_projection_statistic(v, k, family=SphereUniform()):
    """Sum of the first k squared coordinates and its centered version.

    Centering uses E Y_i^2 = 1/n for the sphere (exchangeability) and the
    family's analytic second moment otherwise.
    """
    v = np.asarray(v, dtype=float)
    n = len(v)
    if not 0 <= k <= n:
        raise InvalidArgumentError("k must be in 0..n")
    total = float((v[:k] ** 2).sum())
    return ProjectionStat(total=total,
                          centered=total - k * family.coord_second_moment(n))


@dataclass
class JlHypothesisReport:
    """Diagnostics for the two random-projection hypotheses:
    (i) E(Y_i^2 | Y_1^2+...+Y_{i-1}^2) non-increasing in the condition, and
    (ii) E Y_i^l <= (c l)^(l/2) / n^(l/2) for even l, reported through the
    realized constant c per order."""

    n: int
    k: int
    samples: int
    monotone_stats: list      # (i, Spearman rank z of Y_i^2 on W) per probe
    monotone_flagged: bool
    moment_constants: dict    # even l -> realized c
    moment_flagged: bool

    @property
    def passed(self):
        return not (self.monotone_flagged or self.moment_flagged)

    def reasons(self):
        out = []
        if self.monotone_flagged:
            worst = max(z for _, z in self.monotone_stats)
            out.append(
                "conditional second moment increases with the prefix sum "
                f"(max rank trend z {worst:.2f})"
            )
        if self.moment_flagged:
            worst = max(self.moment_constants.values())
            out.append(
                f"even-moment growth constant {worst:.2f} exceeds the "
                f"admissible limit {MOMENT_LIMIT}"
            )
        return out


TREND_Z_LIMIT = 3.0
MOMENT_ORDERS = (2, 4, 6)
MOMENT_LIMIT = 8.0


def _average_ranks(x):
    """Ranks 1..len(x) of x, tied values sharing the mean of their ranks."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((2 * ends - counts + 1) / 2.0)[inverse]


def check_jl_hypotheses(family, n, k, samples, rng):
    """Empirical test of the projection hypotheses on `samples` draws from
    the Generator rng.

    (i) is tested at a spread of indices i <= k by Spearman's rank
    correlation rho (average ranks for ties) of Y_i^2 with
    W = Y_1^2+...+Y_{i-1}^2, flagged where z = rho * sqrt(samples - 1) is
    above TREND_Z_LIMIT; z = 0 when either ranking is constant.  Caveat:
    (i) is about the conditional mean E(Y_i^2 | W), but ranks respond to
    the whole conditional law of Y_i^2 given W, so typical values that rise
    with W under a flat mean are flagged too.
    (ii) reports, for each even l in MOMENT_ORDERS, the max over probed i
    of n * (E Y_i^l)^(2/l) / l, i.e. the realized c in the bound
    (c*l)^(l/2)/n^(l/2); values above MOMENT_LIMIT are flagged.
    """
    if samples < 100:
        raise InvalidArgumentError("samples must be >= 100")
    if not 1 <= k <= n:
        raise InvalidArgumentError("k must be in 1..n")
    sq = _draw_vectors(rng, n, family, samples)
    np.square(sq, out=sq)
    probe = sorted({max(2, k // 4), max(2, k // 2), k} | {min(8, k)})
    probe = [i for i in probe if 2 <= i <= k]
    mono = []
    for i in probe:
        rw = _average_ranks(sq[:, : i - 1].sum(axis=1)) - (samples + 1) / 2
        rt = _average_ranks(sq[:, i - 1]) - (samples + 1) / 2
        denom = math.sqrt((rw @ rw) * (rt @ rt))
        rho = (rw @ rt) / denom if denom > 0 else 0.0
        mono.append((i, float(rho * math.sqrt(samples - 1))))
    monotone_flagged = any(z > TREND_Z_LIMIT for _, z in mono)
    constants = {}
    for l in MOMENT_ORDERS:
        worst = 0.0
        for i in probe:
            with np.errstate(over="ignore"):  # a moment past the float range is flagged
                ml = float((sq[:, i - 1] ** (l // 2)).mean())
            if ml > 0:
                worst = max(worst, n * ml ** (2.0 / l) / l)
        constants[l] = worst
    moment_flagged = any(c > MOMENT_LIMIT for c in constants.values())
    return JlHypothesisReport(
        n=n, k=k, samples=samples, monotone_stats=mono,
        monotone_flagged=monotone_flagged, moment_constants=constants,
        moment_flagged=moment_flagged,
    )
