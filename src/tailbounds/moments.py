"""Empirical conditional moments, martingale-difference decomposition, and
strong-negative-correlation diagnostics from simulated sequences.

Everything here is an estimator, not a certificate: max-over-bins estimates
of conditional moments converge to the true worst case only as the sample
and bin counts grow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .harness.rng import substream

__all__ = [
    "SampleMatrix",
    "ConditionalMomentEstimate",
    "SncEntry",
    "SncReport",
    "DoobDecomposition",
    "estimate_conditional_moment",
    "check_snc",
    "doob_decompose",
]

# Flagging multiplier for confidence intervals; conservative against
# false violation reports.
CI_MULTIPLIER = 3.0


@dataclass
class SampleMatrix:
    """N replicates (rows) of n real variables (columns)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise InvalidArgumentError("sample matrix must be 2-dimensional")
        if self.values.shape[0] < 2:
            raise InvalidArgumentError("need at least 2 replicates")

    @property
    def replicates(self):
        return self.values.shape[0]

    @property
    def n(self):
        return self.values.shape[1]

    def prefix_sums(self):
        """S[:, i] = X_1 + ... + X_i per replicate, with S[:, 0] = 0."""
        out = np.zeros((self.replicates, self.n + 1))
        np.cumsum(self.values, axis=1, out=out[:, 1:])
        return out


@dataclass
class ConditionalMomentEstimate:
    """Binned estimate of E(X_i^l | X_1+...+X_{i-1}).

    Replicates are split into equal-count quantile bins of the prefix sum;
    max_over_bins estimates the worst-case conditional moment bound.
    """

    i: int
    l: int
    bin_edges: np.ndarray
    per_bin: np.ndarray
    max_over_bins: float
    standard_error: float
    collapsed: bool = False  # degenerate constant prefix fell back to one bin


def estimate_conditional_moment(samples: SampleMatrix, i, l, bin_count=10):
    """Estimate E(X_i^l | X_1+...+X_{i-1}) by quantile-binning the prefix sum.

    i is 1-based; for i = 1 the unconditional sample moment is returned and
    bins are ignored.
    """
    if l < 2 or l % 2 != 0:
        raise InvalidArgumentError("l must be an even integer >= 2")
    if not 1 <= i <= samples.n:
        raise InvalidArgumentError(f"i must be in 1..{samples.n}")
    if bin_count < 1:
        raise InvalidArgumentError("bin_count must be >= 1")
    powers = samples.values[:, i - 1] ** l
    if i == 1 or bin_count == 1:
        est = float(powers.mean())
        se = float(powers.std(ddof=1) / np.sqrt(len(powers)))
        return ConditionalMomentEstimate(
            i=i, l=l, bin_edges=np.array([-np.inf, np.inf]),
            per_bin=np.array([est]), max_over_bins=est, standard_error=se,
        )
    prefix = samples.prefix_sums()[:, i - 1]
    collapsed = False
    if prefix.max() == prefix.min():
        # Constant prefix: conditioning is vacuous, collapse to one bin.
        collapsed = True
        bin_count = 1
    order = np.argsort(prefix, kind="stable")
    groups = np.array_split(order, bin_count)
    groups = [g for g in groups if len(g)]
    per_bin = np.array([powers[g].mean() for g in groups])
    edges = np.concatenate(
        [[-np.inf], [prefix[g[-1]] for g in groups[:-1]], [np.inf]]
    )
    best = int(np.argmax(per_bin))
    g = groups[best]
    se = float(powers[g].std(ddof=1) / np.sqrt(len(g))) if len(g) > 1 else 0.0
    return ConditionalMomentEstimate(
        i=i, l=l, bin_edges=edges, per_bin=per_bin,
        max_over_bins=float(per_bin.max()), standard_error=se,
        collapsed=collapsed,
    )


@dataclass
class SncEntry:
    i: int
    l: int
    statistic: float
    standard_error: float
    flagged: bool


@dataclass
class SncReport:
    m: int
    entries: list

    @property
    def violations(self):
        return [e for e in self.entries if e.flagged]

    @property
    def ok(self):
        return not self.violations


def check_snc(samples: SampleMatrix, m):
    """Sample means of X_i * (X_1+...+X_{i-1})^l for each i and odd l < m.

    Strong negative correlation requires each expectation to be <= 0; an
    entry is flagged when its normal-approximation interval
    statistic +/- 3*SE lies strictly above 0.
    """
    if m < 2 or m % 2 != 0:
        raise InvalidArgumentError("m must be an even integer >= 2")
    prefix = samples.prefix_sums()
    N = samples.replicates
    entries = []
    for i in range(1, samples.n + 1):
        xi = samples.values[:, i - 1]
        s = prefix[:, i - 1]
        for l in range(1, m, 2):
            prod = xi * s**l
            mean = float(prod.mean())
            se = float(prod.std(ddof=1) / np.sqrt(N))
            flagged = mean - CI_MULTIPLIER * se > 0
            entries.append(SncEntry(i=i, l=l, statistic=mean,
                                    standard_error=se, flagged=flagged))
    return SncReport(m=m, entries=entries)


@dataclass
class DoobDecomposition:
    """Nested-Monte-Carlo estimates of the martingale differences
    X_i = E(f | Y_1..Y_i) - E(f | Y_1..Y_{i-1}) of a functional f of
    independent inputs Y_1..Y_n.

    Per replicate, sum_i X_i telescopes exactly to
    f(Y) - (that replicate's estimate of Ef).
    """

    f_values: np.ndarray        # (outer,) exact functional values
    x: np.ndarray               # (outer, n) difference estimates
    ef_estimates: np.ndarray    # (outer,) per-replicate estimates of Ef
    inner_resamples: int


def doob_decompose(generator, functional, n, outer, inner, base_seed=0):
    """Estimate the martingale differences of functional(Y_1..Y_n).

    generator(rng, n) draws one independent replicate of (Y_1..Y_n); for
    each outer replicate and each i, E(f | Y_1..Y_i) is estimated by
    redrawing the suffix Y_{i+1}..Y_n `inner` times with the prefix held
    fixed (valid because the Y_i are independent).
    """
    if inner < 1:
        raise InvalidArgumentError("inner must be >= 1")
    if outer < 1:
        raise InvalidArgumentError("outer must be >= 1")

    f_values = np.empty(outer)
    x = np.empty((outer, n))
    ef = np.empty(outer)
    for r in range(outer):
        rng = substream(base_seed, "doob-outer", r)
        y = np.asarray(generator(rng, n), dtype=float)
        f_values[r] = functional(y)
        cond = np.empty(n + 1)  # cond[i] estimates E(f | Y_1..Y_i)
        cond[n] = f_values[r]
        for i in range(n):
            rng_i = substream(base_seed, "doob-inner", r, i)
            acc = 0.0
            for _ in range(inner):
                suffix = np.asarray(generator(rng_i, n), dtype=float)[i:]
                acc += functional(np.concatenate([y[:i], suffix]))
            cond[i] = acc / inner
        x[r] = np.diff(cond)
        ef[r] = cond[0]
    return DoobDecomposition(f_values=f_values, x=x, ef_estimates=ef,
                             inner_resamples=inner)
