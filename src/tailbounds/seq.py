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
from .harness.rng import substream

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
    suffix_lis_mean: float       # mean lis of the resampled suffix alone
    suffix_lis_se: float
    resamples: int


def essential_probability(n, i, prefix, resamples, seed=0):
    """Estimate, for each j >= i, the probability that position j is
    essential given fixed values Y_1..Y_{i-1}, by redrawing the suffix
    uniformly `resamples` times."""
    if resamples < 100:
        raise InvalidArgumentError("resamples must be >= 100")
    prefix = list(prefix)
    if len(prefix) != i - 1:
        raise InvalidArgumentError("prefix must have length i-1")
    rng = substream(seed, "essential", n, i)
    width = n - i + 1
    hits = np.zeros(width)
    suffix_lis = np.empty(resamples)
    for rep in range(resamples):
        suffix = rng.random(width)
        mask = essential_mask(prefix + suffix.tolist())
        hits += mask[i - 1:]
        suffix_lis[rep] = lis(suffix)
    a_hat = hits / resamples
    se = np.sqrt(a_hat * (1 - a_hat) / resamples)
    return EssentialEstimate(
        i=i, n=n, a_hat=a_hat, standard_error=se,
        suffix_lis_mean=float(suffix_lis.mean()),
        suffix_lis_se=float(suffix_lis.std(ddof=1) / np.sqrt(resamples)),
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
    norms = np.sqrt((g**2).sum(axis=1, keepdims=True))
    directions = g / norms
    if isinstance(family, SphereUniform):
        return directions
    if isinstance(family, RadialBetaMixture):
        r2 = family.scale * rng.beta(family.a, family.b, size=(count, 1))
        return directions * np.sqrt(r2)
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
    monotone_stats: list      # (i, trend z-score, max adjacent-rise z-score)
    monotone_flagged: bool
    moment_constants: dict    # even l -> realized c
    moment_flagged: bool

    @property
    def passed(self):
        return not (self.monotone_flagged or self.moment_flagged)

    def reasons(self):
        out = []
        if self.monotone_flagged:
            worst = max(z for _, z, _ in self.monotone_stats)
            out.append(
                "conditional second moment increases with the prefix sum "
                f"(max standardized trend {worst:.2f})"
            )
        if self.moment_flagged:
            worst = max(self.moment_constants.values())
            out.append(
                f"even-moment growth constant {worst:.2f} exceeds the "
                f"admissible limit {MOMENT_LIMIT}"
            )
        return out


TREND_Z_LIMIT = 3.0
PAIR_Z_LIMIT = 4.5  # single-pair jumps face ~(probes * bins) comparisons
TREND_BINS = 10
MOMENT_ORDERS = (2, 4, 6)
MOMENT_LIMIT = 8.0
SE_FLOOR = 1e-150  # its square and inverse square are finite


def check_jl_hypotheses(family, n, k, samples, seed=0):
    """Empirical test of the projection hypotheses on `samples` draws.

    (i) is tested at a spread of indices i <= k by quantile-binning
    W = Y_1^2+...+Y_{i-1}^2 into TREND_BINS bins: the isotonic-violation
    statistic is the precision-weighted trend of the binned means of Y_i^2
    (flagged above z = 3), backed by a multiplicity-corrected check on any
    single adjacent rise (z = 4.5).  (ii) reports, for each even l in
    MOMENT_ORDERS, the max over probed i of n * (E Y_i^l)^(2/l) / l, i.e.
    the realized c in the bound (c*l)^(l/2)/n^(l/2); values above
    MOMENT_LIMIT are flagged.
    """
    if samples < 100:
        raise InvalidArgumentError("samples must be >= 100")
    if not 1 <= k <= n:
        raise InvalidArgumentError("k must be in 1..n")
    rng = substream(seed, "jl-check")
    vecs = _draw_vectors(rng, n, family, samples)
    sq = vecs**2
    # Scaling by a power of two leaves the trend statistics exact; with the
    # largest entry in [0.5, 1) and SE_FLOOR, no sum, square or weight overflows.
    unit = np.ldexp(sq, -np.frexp(sq.max())[1])
    probe = sorted({max(2, k // 4), max(2, k // 2), k} | {min(8, k)})
    probe = [i for i in probe if 2 <= i <= k]
    mono = []
    for i in probe:
        w = unit[:, : i - 1].sum(axis=1)
        target = unit[:, i - 1]
        order = np.argsort(w, kind="stable")
        groups = np.array_split(order, TREND_BINS)
        means = np.array([target[g].mean() for g in groups])
        ses = np.array([
            max(target[g].std(ddof=1) / math.sqrt(len(g)), SE_FLOOR)
            for g in groups
        ])
        xs = np.arange(len(groups), dtype=float)
        weights = 1.0 / ses**2
        xbar = (weights * xs).sum() / weights.sum()
        denom = (weights * (xs - xbar) ** 2).sum()
        slope = (weights * (xs - xbar) * means).sum() / denom
        trend_z = float(slope * math.sqrt(denom))
        rises = (means[1:] - means[:-1]) / np.sqrt(ses[1:] ** 2 + ses[:-1] ** 2)
        mono.append((i, trend_z, float(rises.max())))
    monotone_flagged = any(
        tz > TREND_Z_LIMIT or rz > PAIR_Z_LIMIT for _, tz, rz in mono
    )
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
