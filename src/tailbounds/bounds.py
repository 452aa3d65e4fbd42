"""Even-moment upper bounds for sums of dependent random variables.

The engine here bounds E(X_1 + ... + X_n)^m for even m, for variables that
satisfy strong negative correlation (E X_i (X_1+...+X_{i-1})^l <= 0 for odd
l < m) together with per-variable bounds on conditional even moments
E(X_i^l | X_1+...+X_{i-1}).  Every bound is computed in two steps: a
moment curve (orders, log_bounds) holding the log moment bound for each
even order up to a cap, then tail_curve, which applies Markov's
inequality to each order and keeps the best at every t of a grid.  The
Chernoff corollaries are moment curves too, which stop at the highest
order that a grid's largest t can need.

All moment bounds are computed and stored in natural-log domain:
(48*n*m)^(m/2) overflows double precision already for modest m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import IncompleteProfileError, InvalidArgumentError, SizeLimitError

__all__ = [
    "BoundMethod",
    "MomentProfile",
    "TypicalProfile",
    "TailBoundResult",
    "TailCurve",
    "theorem1_closed_curve",
    "theorem1_recursion_bound",
    "theorem1_recursion_curve",
    "jl_envelope_curve",
    "main_theorem_bound",
    "main_theorem_curve",
    "markov_tail",
    "tail_curve",
    "tail_bound",
    "optimize_m",
    "chernoff_corollary_curve",
    "chernoff_corollary_bound",
    "general_chernoff_curve",
    "general_chernoff_bound",
]

_LOG_11_5 = math.log(11.0 / 5.0)


class BoundMethod(str, Enum):
    THEOREM1_CLOSED = "Theorem1Closed"
    THEOREM1_RECURSION = "Theorem1Recursion"
    MAIN_THEOREM = "MainTheorem"
    CHERNOFF_COROLLARY = "ChernoffCorollary"
    GENERAL_CHERNOFF = "GeneralChernoff"
    JL_ENVELOPE = "JlMomentEnvelope"


# Generic constants of the bound family.  C_THEOREM1 is the explicit
# constant of the closed-form moment bound (48*n*m)^(m/2).  C_MAIN plays the
# same role in the typical/worst-case bound and the general Chernoff bound.
# Neither is sharp; tests treat them as dominance/shape parameters, never
# as reproducible absolutes.
C_THEOREM1 = 48.0
C_MAIN = 48.0

# The highest order of a moment curve.  A curve holds m_max/2 orders, and
# the closed form costs about 40 bytes an order: at the cap it peaks near
# 120 MB of RSS, and n = 10^9 would need about 20 GB, so such a request is
# refused before np.arange runs.
MAX_CURVE_ORDER = 2**22

# The most bytes of one (m_max/2 + 1) x (m_max/2) float64 term matrix of
# theorem1_recursion_curve.  A pass holds about six such arrays at once, so
# this caps it near 100 MB (m_max <= 2894); a higher m_max is refused
# before any matrix is built.
MAX_RECURSION_MATRIX_BYTES = 2**24

# The most (m, l) terms of main_theorem_curve, which evaluates
# main_theorem_bound at every even order m <= m_max, and that takes
# l = 1..m/2 as array rows: (m_max/2)(m_max/2 + 1)/2 terms, each two
# log-sum-exps over the variables.  On 20 variables (2 vCPU, Python 3.11,
# numpy 2.4) order 400 (20100 terms) took 0.04 s and order 722, the highest
# under the cap, 0.10 s; a higher m_max is refused before the first
# evaluation.
MAX_MAIN_CURVE_TERMS = 2**16


def _check_even_order(m, name="m"):
    if not isinstance(m, (int, np.integer)) or m < 2 or m % 2 != 0:
        raise InvalidArgumentError(f"{name} must be an even integer >= 2, got {m!r}")


def _check_t(t):
    if not t > 0:
        raise InvalidArgumentError(f"t must be > 0, got {t!r}")


def _even_floor(n):
    return n if n % 2 == 0 else n - 1


def _profile_table(name, by_order, n, orders, log):
    """The (n, len(orders)) array of a map order -> value, where a value is
    one number for every variable or a sequence of n numbers in variable
    order.  With log, values are stored in log domain (0 as -inf) and a
    negative value is refused.  An order outside orders or a sequence of
    another length raises InvalidArgumentError, and an order with no value
    (or a NaN) IncompleteProfileError; n < 1 is refused before allocating."""
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    table = np.full((n, len(orders)), np.nan)
    for l, v in by_order.items():
        if l not in orders:
            raise InvalidArgumentError(
                f"{name}[1,{l}]: order {l} is not one of the orders {list(orders)} of M")
        column = np.asarray(v, dtype=float)
        if column.ndim and column.shape != (n,):
            raise InvalidArgumentError(
                f"{name}: order {l} has {column.size} values, not 1 or {n}")
        if log:
            negative = np.flatnonzero(column < 0)
            if negative.size:
                raise InvalidArgumentError(f"{name}[{negative[0] + 1},{l}] must be >= 0")
            # math.log: np.log differs in the last bit for a few values in 10^6
            column = [-math.inf if x == 0 else math.log(x)
                      for x in np.atleast_1d(column).tolist()]
        table[:, orders.index(l)] = column
    if np.isnan(table).any():
        i, j = map(int, np.argwhere(np.isnan(table))[0])
        raise IncompleteProfileError(i + 1, orders[j])
    return table


class MomentProfile:
    """Per-variable upper bounds M_{i,l} on conditional even moments.

    Variables are indexed i = 1..n (matching the usual mathematical
    numbering); orders are even integers >= 2.  Values are stored in
    log domain; zeros are representable as -inf.
    """

    def __init__(self, n, orders, log_m):
        orders = tuple(int(o) for o in orders)
        if n < 1:
            raise InvalidArgumentError("n must be >= 1")
        if len(set(orders)) != len(orders) or sorted(orders) != list(orders):
            raise InvalidArgumentError("orders must be strictly ascending")
        for o in orders:
            _check_even_order(o, "order")
        log_m = np.asarray(log_m, dtype=float)
        if log_m.shape != (n, len(orders)):
            raise InvalidArgumentError(
                f"log_m must have shape ({n}, {len(orders)}), got {log_m.shape}"
            )
        if np.isnan(log_m).any():
            raise InvalidArgumentError("moment bounds must not be NaN")
        self.n = int(n)
        self.orders = orders
        self.log_m = log_m

    @classmethod
    def from_values(cls, n, by_order: Mapping[int, object]):
        """Build from a map l -> M_{.,l}: one number for every variable, or
        n numbers in variable order, as a profile file gives them."""
        orders = tuple(sorted(by_order))
        return cls(n, orders, _profile_table("M", by_order, n, orders, log=True))

    # A map of single numbers is a profile independent of i.
    uniform = from_values

    def log_bound(self, i, l):
        if not (1 <= i <= self.n and l in self.orders):
            raise IncompleteProfileError(i, l)
        return float(self.log_m[i - 1, self.orders.index(l)])

    def columns_through(self, m):
        """Indices of the columns of orders 2, 4, ..., m, the first m/2 as orders
        ascend; IncompleteProfileError for a missing order.  An index array, as
        a sliced view would change the main theorem's sums in the last bit."""
        for j, l in enumerate(range(2, m + 1, 2)):
            if j == len(self.orders) or self.orders[j] != l:
                raise IncompleteProfileError(1, l)
        return np.arange(m // 2)


class TypicalProfile:
    """Worst-case bounds M_{i,l} plus typical-case bounds L_{i,l} and
    atypical-event probabilities delta_{i,l} = Pr(not typical)."""

    def __init__(self, base: MomentProfile, log_l, delta):
        log_l = np.asarray(log_l, dtype=float)
        delta = np.asarray(delta, dtype=float)
        shape = base.log_m.shape
        if log_l.shape != shape or delta.shape != shape:
            raise InvalidArgumentError(f"L and delta must have shape {shape}")
        if np.isnan(log_l).any():
            raise InvalidArgumentError("typical bounds L must not be NaN")
        if np.any((delta < 0) | (delta > 1)) or np.isnan(delta).any():
            raise InvalidArgumentError("delta values must lie in [0, 1]")
        # Typical never exceeds worst case; tolerate float fuzz only.
        if np.any(log_l > base.log_m + 1e-9):
            raise InvalidArgumentError("L values must not exceed the matching M values")
        self.base = base
        self.log_l = log_l
        self.delta = delta

    @classmethod
    def from_values(cls, base: MomentProfile, l_by_order, delta_by_order):
        """Build from maps l -> L_{.,l} and l -> delta_{.,l}, shaped as in
        MomentProfile.from_values, over the variables and orders of base."""
        n, orders = base.n, base.orders
        return cls(base, _profile_table("L", l_by_order, n, orders, log=True),
                   _profile_table("delta", delta_by_order, n, orders, log=False))

    @classmethod
    def uniform(cls, n, m_by_order, l_by_order, delta_by_order):
        """from_values on a MomentProfile built from m_by_order."""
        return cls.from_values(MomentProfile.uniform(n, m_by_order),
                               l_by_order, delta_by_order)


@dataclass(frozen=True)
class TailBoundResult:
    """A tail bound Pr(|sum| >= t) <= tail_probability obtained by Markov
    from a log-domain bound on the m_used-th moment."""

    t: float
    m_used: int
    moment_bound: float  # log domain
    tail_probability: float
    method: BoundMethod

    def __post_init__(self):
        expected = markov_tail(self.moment_bound, self.m_used, self.t)
        if not math.isclose(self.tail_probability, expected, rel_tol=1e-12, abs_tol=1e-300):
            raise InvalidArgumentError(
                "tail_probability must equal min(1, exp(moment_bound - m*log t))"
            )


def _orders_through(m_max):
    """The even orders 2, 4, ..., m_max of a moment curve; above
    MAX_CURVE_ORDER, SizeLimitError."""
    _check_even_order(m_max, "m_max")
    if m_max > MAX_CURVE_ORDER:
        raise SizeLimitError(f"m_max={m_max}: moment curves stop at order "
                             f"MAX_CURVE_ORDER = {MAX_CURVE_ORDER}")
    return np.arange(2, m_max + 1, 2)


def theorem1_closed_curve(n, m_max):
    """Moment curve (orders, log bounds) of the closed form (c1*n*m)^(m/2)
    for every even m <= m_max.

    Valid as a bound on E(sum X_i)^m when the variables satisfy strong
    negative correlation and E(X_i^l | X_1+...+X_{i-1}) <= (n/m)^((l-2)/2) l!
    for even l <= m; the caller asserts that hypothesis.
    """
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    orders = _orders_through(m_max)
    with np.errstate(over="ignore"):
        log_bounds = (orders / 2.0) * np.log(C_THEOREM1 * n * orders)
    # the JSON output could not hold an infinite log moment bound
    if not math.isfinite(log_bounds[-1]):
        raise InvalidArgumentError(f"n={n}: the log moment bound overflows a double")
    return orders, log_bounds


def jl_envelope_curve(n, k):
    """Moment curve of the random-projection envelope: the closed form for k
    coordinates scaled by n^-m, for every even m <= k."""
    orders, log_bounds = theorem1_closed_curve(k, max(2, _even_floor(k)))
    return orders, log_bounds - orders * math.log(n)


def _logsumexp_rows(a):
    """log(sum(exp(a), axis=1)), shifted by each row's maximum; a row of
    -inf gives -inf."""
    top = a.max(axis=1)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(a - top[:, None]).sum(axis=1)) + top


def theorem1_recursion_curve(profile: MomentProfile, m_max):
    """Moment curve (orders, log g(n, m)) for every even m <= m_max, from
    one pass of the dynamic program

        g(i, 0) = 1; g(1, q) = M_{1,q}; and for i >= 2,
        g(i, q) = g(i-1, q) + (11/5) * sum over even t in [2, q] of
                  (q^t / t!) * M_{i,t} * g(i-1, q-t).

    g(n, m) upper-bounds E(sum X_i)^m whenever the profile's conditional
    moment bounds hold and the variables are strongly negatively
    correlated.  g(i, q) reads only g(i-1, q') with q' <= q, so the pass to
    m_max yields every smaller order too.  Each step over i is vectorised
    over q: row q/2 of the term matrix holds g(i-1, q) and the terms for
    t = 2, 4, ..., q, in log domain.  An m_max whose term matrix would
    pass MAX_RECURSION_MATRIX_BYTES raises SizeLimitError.
    """
    _check_even_order(m_max, "m_max")
    matrix_bytes = 8 * (m_max // 2 + 1) * (m_max // 2)
    if matrix_bytes > MAX_RECURSION_MATRIX_BYTES:
        raise SizeLimitError(
            f"m_max={m_max}: the recursion's term matrices would take {matrix_bytes} "
            f"bytes each, above MAX_RECURSION_MATRIX_BYTES = {MAX_RECURSION_MATRIX_BYTES}")
    orders = _orders_through(m_max)
    log_m = profile.log_m[:, profile.columns_through(m_max)]
    qs = np.arange(0, m_max + 1, 2)
    valid = orders[None, :] <= qs[:, None]
    # math.log and math.lgamma keep each term bitwise equal to a term-by-term
    # evaluation of the recursion; only the order of summation inside the
    # log-sum-exp differs.
    log_q = np.array([math.log(q) if q else 0.0 for q in qs])
    log_fact = np.array([math.lgamma(t + 1) for t in orders])
    coef = _LOG_11_5 + orders[None, :] * log_q[:, None] - log_fact[None, :]
    lag = np.where(valid, (qs[:, None] - orders[None, :]) // 2, 0)
    g = np.concatenate(([0.0], log_m[0]))
    for row in log_m[1:]:
        terms = np.where(valid, coef + row + g[lag], -np.inf)
        g = _logsumexp_rows(np.column_stack((g, terms)))
    return orders, g[1:]


def theorem1_recursion_bound(profile: MomentProfile, m):
    """log of g(n, m), the dynamic-programming moment bound: the last point
    of theorem1_recursion_curve(profile, m)."""
    _check_even_order(m)
    return float(theorem1_recursion_curve(profile, m)[1][-1])


def main_theorem_bound(profile: TypicalProfile, m):
    """log of the typical/worst-case moment bound.

    With c = C_MAIN, n variables, and hat-M_{i,2l} = M_{i,2l} *
    delta_{i,2l}^(2/(m-2l+2)), the bound on E(sum X_i)^m is

        (c*m)^(m/2) * ( sum_{l=1}^{m/2} (m^(1-1/l)/l^2)
                        * (sum_i L_{i,2l})^(1/l) )^(m/2)
      + (c*m)^m * sum_{l=1}^{m/2} (1/(n*l^2))
                        * sum_i (n * hat-M_{i,2l})^(m/(2l)),

    with the convention 0^(positive) = 0 so a zero delta removes the
    worst-case term for that (i, l) exactly.
    """
    _check_even_order(m)
    base = profile.base
    cols = base.columns_through(m)
    log_n = math.log(base.n)
    # Column l - 1 of each (n, m/2) table below holds order 2l, and row
    # l - 1 of its transpose is one log-sum-exp over the variables.
    l = np.arange(1, m // 2 + 1)
    # typical part: (m^(1-1/l)/l^2) * (sum_i L_{i,2l})^(1/l)
    typ_terms = ((1.0 - 1.0 / l) * math.log(m) - 2.0 * np.log(l)
                 + _logsumexp_rows(profile.log_l[:, cols].T) / l)
    # worst part: (1/(n l^2)) * sum_i (n M delta^(2/(m-2l+2)))^(m/2l)
    with np.errstate(divide="ignore"):
        log_hat = (log_n + base.log_m[:, cols]
                   + 2.0 / (m - 2 * l + 2) * np.log(profile.delta[:, cols]))
    worst_terms = (-log_n - 2.0 * np.log(l)
                   + _logsumexp_rows((m / (2.0 * l) * log_hat).T))

    log_term1 = (m / 2.0) * (math.log(C_MAIN * m) + _logsumexp_rows(typ_terms[None])[0])
    log_term2 = m * math.log(C_MAIN * m) + _logsumexp_rows(worst_terms[None])[0]
    return float(np.logaddexp(log_term1, log_term2))


def main_theorem_curve(profile: TypicalProfile, m_max):
    """Moment curve (orders, log bounds) of main_theorem_bound for every
    even m <= m_max: the bound depends on m throughout, so one evaluation
    per order.  An m_max with more than MAX_MAIN_CURVE_TERMS terms raises
    SizeLimitError."""
    _check_even_order(m_max, "m_max")
    terms = (m_max // 2) * (m_max // 2 + 1) // 2
    if terms > MAX_MAIN_CURVE_TERMS:
        raise SizeLimitError(f"m_max={m_max}: the main-theorem curve would evaluate "
                             f"{terms} terms, above MAX_MAIN_CURVE_TERMS = "
                             f"{MAX_MAIN_CURVE_TERMS}")
    orders = _orders_through(m_max)
    return orders, np.array([main_theorem_bound(profile, int(m))
                             for m in orders])


def markov_tail(moment_bound, m, t):
    """min(1, exp(moment_bound - m*log t)): Markov's inequality applied to
    the m-th moment, with moment_bound in log domain."""
    _check_even_order(m)
    _check_t(t)
    log_p = moment_bound - m * math.log(t)
    return 1.0 if log_p >= 0.0 else math.exp(log_p)


class TailCurve(NamedTuple):
    """Markov's inequality minimised over m at each point of a t-grid."""

    m_used: np.ndarray
    moment_bound: np.ndarray  # log domain
    tail_probability: np.ndarray


def tail_curve(orders, log_bounds, t_grid):
    """Minimise markov_tail over a moment curve at every t of t_grid.

    (orders, log_bounds) is a moment curve: ascending even orders and their
    log-domain moment bounds.  At each t the order with the smallest
    log p = min(0, log_bound - m*log t) wins; ties on equal log p resolve
    to the smaller m (weakest hypothesis), including the clamp at 0.  Only
    the winning entries are exponentiated, so where p underflows to 0 the
    order is still the minimiser.
    """
    orders = np.asarray(orders)
    log_bounds = np.asarray(log_bounds, dtype=float)
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    bad = t_grid[~(t_grid > 0)]
    if bad.size:
        _check_t(float(bad[0]))
    # math.log and math.exp, as in markov_tail: each p is bitwise the value
    # markov_tail gives its order.
    log_t = np.array([math.log(t) for t in t_grid])
    log_p = log_bounds - np.outer(log_t, orders)
    np.minimum(log_p, 0.0, out=log_p)
    best = np.argmin(log_p, axis=1)  # first minimum: the smallest m
    chosen = log_p[np.arange(len(t_grid)), best]
    return TailCurve(m_used=orders[best], moment_bound=log_bounds[best],
                     tail_probability=np.array([math.exp(x) for x in chosen.tolist()]))


def tail_bound(orders, log_bounds, t, method: BoundMethod):
    """tail_curve of the moment curve (orders, log_bounds) at the single
    point t, as a TailBoundResult."""
    curve = tail_curve(orders, log_bounds, [t])
    return TailBoundResult(t=float(t), m_used=int(curve.m_used[0]),
                           moment_bound=float(curve.moment_bound[0]),
                           tail_probability=float(curve.tail_probability[0]),
                           method=method)


def optimize_m(bound_fn: Callable[[int], float], t, m_max,
               method: BoundMethod = BoundMethod.THEOREM1_CLOSED):
    """Minimise markov_tail(bound_fn(m), m, t) over even m in [2, m_max];
    ties resolve to the smaller m (weakest hypothesis).

    bound_fn maps an even order m to a log-domain moment bound.  This is
    the single-t view of tail_curve over the moment curve of bound_fn;
    callers with a whole t-grid build the curve once and call tail_curve.
    m_max is used as given: the harness's default order cap (n rounded down
    to even for Theorem 1) is applied in runner.bound_source alone.
    """
    orders = _orders_through(m_max)
    return tail_bound(orders, [bound_fn(int(m)) for m in orders], t, method)


def _top_order(m_star, cap=MAX_CURVE_ORDER):
    """The highest order of a Chernoff curve whose Markov log p is convex in
    m with its real minimiser at or below m_star for every t of a grid: the
    even ceiling of m_star, but at most the even floor of cap and
    MAX_CURVE_ORDER, and at least 2.  On even orders a convex function is
    least next to its real minimiser, so no t of the grid needs a higher
    order."""
    top = 2 * math.ceil(min(m_star, MAX_CURVE_ORDER) / 2)
    return max(2, min(top, 2 * math.floor(min(cap, MAX_CURVE_ORDER) / 2)))


def chernoff_corollary_curve(n, sigma2, t_max):
    """Moment curve (orders, log bounds) of variables with all conditional
    even moments <= sigma2 (through the order used) and strong negative
    correlation, for every order that a t <= t_max can need.

    It is the closed form applied to the sigma-scaled variables
    Y_i = X_i/sigma: E(sum X_i)^m = sigma^m E(sum Y_i)^m <=
    (C_THEOREM1*n*m*sigma2)^(m/2), theorem1_closed_curve(n, .) plus
    (m/2)*log sigma2.  The closed form asks E(Y_i^l | Y_1+...+Y_{i-1}) <=
    (n/m)^((l-2)/2) l! for even l <= m, and here E(Y_i^l | ...) <=
    sigma2^(1-l/2) = (1/sigma2)^((l-2)/2).  That is within the hypothesis
    at every l once m <= n*sigma2, and at m = 2 always (l = 2 asks
    E Y_i^2 <= 2), so the orders stop at max(2, n*sigma2).  Markov's log p
    is (m/2)*log(C_THEOREM1*n*sigma2*m) - m*log t, convex in m with its
    real minimiser at t^2/(e*C_THEOREM1*n*sigma2), so the orders also stop
    at the even ceiling of that at t_max (see _top_order).
    """
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    if not sigma2 > 0:
        raise InvalidArgumentError("sigma2 must be > 0")
    _check_t(t_max)
    # t_max / sqrt(e*c1*n*sigma2), one factor at a time so nothing overflows
    root = t_max / math.sqrt(math.e * C_THEOREM1) / math.sqrt(n) / math.sqrt(sigma2)
    orders, log_bounds = theorem1_closed_curve(n, _top_order(root * root, n * sigma2))
    return orders, log_bounds + (orders / 2.0) * math.log(sigma2)


def chernoff_corollary_bound(n, sigma2, t):
    """Tail bound at t of chernoff_corollary_curve(n, sigma2, t)."""
    return tail_bound(*chernoff_corollary_curve(n, sigma2, t), t,
                      BoundMethod.CHERNOFF_COROLLARY)


def general_chernoff_curve(nu, t_max):
    """Moment curve (C_MAIN*m*(nu+m))^(m/2) of sums of independent centered
    Bernoulli-type variables with nu = sum of the individual means, for
    every order that a t <= t_max can need.

    Markov's log p = (m/2)*log(C_MAIN*m*(nu+m)) - m*log t is convex in m,
    and its derivative in m is at least log(m*sqrt(e*C_MAIN)/t), so its
    real minimiser is below t/sqrt(e*C_MAIN); the orders stop at the even
    ceiling of that at t_max (see _top_order).  The log is taken factor by
    factor, so a large nu does not overflow.
    """
    if not nu > 0:
        raise InvalidArgumentError("nu must be > 0")
    _check_t(t_max)
    orders = _orders_through(_top_order(t_max / math.sqrt(math.e * C_MAIN)))
    return orders, (orders / 2.0) * (np.log(C_MAIN * orders) + np.log(nu + orders))


def general_chernoff_bound(nu, t):
    """Tail bound at t of general_chernoff_curve(nu, t)."""
    return tail_bound(*general_chernoff_curve(nu, t), t, BoundMethod.GENERAL_CHERNOFF)
