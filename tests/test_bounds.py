import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from conftest import chernoff_corollary_rule, general_chernoff_rule, \
    log_binomial_tail_exact, log_gaussian_tail_exact, optimize_m_oracle, \
    rademacher_moment_exact, theorem1_recursion_oracle
from tailbounds import bounds
from tailbounds.bounds import (
    C_MAIN,
    C_THEOREM1,
    MAX_CURVE_ORDER,
    _orders_through,
    _logsumexp_rows,
    BoundMethod,
    MomentProfile,
    TailBoundResult,
    TypicalProfile,
    chernoff_corollary_bound,
    chernoff_corollary_curve,
    general_chernoff_bound,
    jl_envelope_curve,
    main_theorem_bound,
    main_theorem_curve,
    markov_tail,
    optimize_m,
    tail_curve,
    theorem1_closed_curve,
    theorem1_recursion_bound,
    theorem1_recursion_curve,
)
from tailbounds.errors import (
    IncompleteProfileError,
    InvalidArgumentError,
    SizeLimitError,
)
from tailbounds.harness.config import MAX_CHERNOFF_N
from tailbounds.harness.runner import T_GRID_HI, T_GRID_LO, T_GRID_POINTS, bound_source


def closed_point(n, m):
    """log (c1*n*m)^(m/2): the last point of theorem1_closed_curve(n, m)."""
    return float(theorem1_closed_curve(n, m)[1][-1])


class TestClosedForm:
    def test_direct_substitution(self):
        assert math.exp(closed_point(100, 2)) == pytest.approx(9600.0)

    def test_smallest_instance(self):
        assert math.exp(closed_point(1, 2)) == pytest.approx(96.0)

    def test_fourth_moment(self):
        assert math.exp(closed_point(10, 4)) == pytest.approx(1920.0**2)

    @pytest.mark.parametrize("m", [1, 3, 0, -2])
    def test_rejects_bad_order(self, m):
        with pytest.raises(InvalidArgumentError):
            theorem1_closed_curve(10, m)

    def test_curve_order_cap_is_inclusive(self):
        assert _orders_through(MAX_CURVE_ORDER)[-1] == MAX_CURVE_ORDER
        with pytest.raises(SizeLimitError, match="MAX_CURVE_ORDER"):
            theorem1_closed_curve(10, MAX_CURVE_ORDER + 2)


class TestRecursion:
    def test_single_variable_base_case(self):
        profile = MomentProfile.uniform(1, {2: 2.5})
        assert math.exp(theorem1_recursion_bound(profile, 2)) == pytest.approx(2.5)

    def test_two_variable_hand_value(self):
        # 1 + (11/5) * (2^2/2!) * 1 * 1 = 5.4
        profile = MomentProfile.uniform(2, {2: 1.0})
        assert math.exp(theorem1_recursion_bound(profile, 2)) == pytest.approx(5.4)

    def test_dominates_exact_rademacher_fourth_moment(self):
        profile = MomentProfile.uniform(6, {2: 1.0, 4: 1.0})
        exact = rademacher_moment_exact(6, 4)
        assert exact == 96  # 3n^2 - 2n at n=6
        assert math.exp(theorem1_recursion_bound(profile, 4)) >= float(exact)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_dominates_exact_rademacher_grid(self, n, m):
        profile = MomentProfile.uniform(n, {l: 1.0 for l in range(2, m + 1, 2)})
        exact = float(rademacher_moment_exact(n, m))
        assert math.exp(theorem1_recursion_bound(profile, m)) >= exact

    def test_missing_entry_is_reported(self):
        profile = MomentProfile.uniform(3, {2: 1.0})
        with pytest.raises(IncompleteProfileError):
            theorem1_recursion_bound(profile, 4)

    def test_matches_direct_evaluation(self):
        # Linear-domain reference recursion, far from overflow.
        rng = np.random.default_rng(7)
        n, m = 5, 6
        values = {(i, l): float(rng.uniform(0.1, 2.0))
                  for i in range(1, n + 1) for l in (2, 4, 6)}
        profile = MomentProfile.from_values(
            n, {l: [values[(i, l)] for i in range(1, n + 1)] for l in (2, 4, 6)})

        def direct(i, q):
            if q == 0:
                return 1.0
            if i == 1:
                return values[(1, q)]
            total = direct(i - 1, q)
            for t in range(2, q + 1, 2):
                total += (11 / 5) * q**t / math.factorial(t) * values[(i, t)] \
                    * direct(i - 1, q - t)
            return total

        got = math.exp(theorem1_recursion_bound(profile, m))
        assert got == pytest.approx(direct(n, m), rel=1e-9)

    def test_zero_moments_allowed(self):
        profile = MomentProfile.uniform(3, {2: 0.0})
        # All conditional moments zero: the sum is deterministic.
        assert theorem1_recursion_bound(profile, 2) == -np.inf

    def test_matrix_cap_is_inclusive(self, monkeypatch):
        # m_max = 8 gives 5 x 4 term matrices, 160 bytes each
        monkeypatch.setattr(bounds, "MAX_RECURSION_MATRIX_BYTES", 160)
        profile = MomentProfile.uniform(3, {2: 1.0, 4: 3.0, 6: 15.0, 8: 105.0, 10: 945.0})
        assert theorem1_recursion_curve(profile, 8)[0][-1] == 8
        with pytest.raises(SizeLimitError, match="MAX_RECURSION_MATRIX_BYTES = 160"):
            theorem1_recursion_curve(profile, 10)


def hypothesis_profile(n, m, c=None):
    """The admissible-profile boundary M_{i,t} = (n/m)^((t-2)/2) t!."""
    return MomentProfile.uniform(
        n, {t: (n / m) ** ((t - 2) / 2) * math.factorial(t)
            for t in range(2, m + 1, 2)}
    )


class TestDpVersusClosedForm:
    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_recursion_below_closed_form(self, n, m):
        if m > n:
            pytest.skip("hypothesis couples m <= n")
        profile = hypothesis_profile(n, m)
        assert theorem1_recursion_bound(profile, m) <= closed_point(n, m)


class TestMainTheorem:
    def test_curve_term_cap_is_inclusive(self, monkeypatch):
        # m_max = 8 has 4*5/2 = 10 (m, l) terms, m_max = 10 has 15
        monkeypatch.setattr(bounds, "MAX_MAIN_CURVE_TERMS", 10)
        profile = TypicalProfile.uniform(3, {o: 1.0 for o in range(2, 11, 2)},
                                         {o: 0.5 for o in range(2, 11, 2)},
                                         {o: 0.1 for o in range(2, 11, 2)})
        assert main_theorem_curve(profile, 8)[0][-1] == 8
        with pytest.raises(SizeLimitError, match="15 terms, above MAX_MAIN_CURVE_TERMS = 10"):
            main_theorem_curve(profile, 10)

    def test_zero_delta_drops_worst_case_term(self):
        n, m = 10, 4
        profile = TypicalProfile.uniform(
            n,
            m_by_order={2: 5.0, 4: 9.0},
            l_by_order={2: 1.0, 4: 2.0},
            delta_by_order={2: 0.0, 4: 0.0},
        )
        got = main_theorem_bound(profile, m)
        # First term alone, in linear domain.
        c = 48.0
        inner = sum(
            m ** (1 - 1 / l) / l**2 * (n * {1: 1.0, 2: 2.0}[l]) ** (1 / l)
            for l in (1, 2)
        )
        expected = (c * m) ** (m / 2) * inner ** (m / 2)
        assert math.exp(got) == pytest.approx(expected, rel=1e-9)

    def test_m2_uniform_reduction(self):
        # At m=2 with delta 0 the bound collapses to c*2*(sum of L_{i,2}).
        n, sigma2 = 7, 0.35
        profile = TypicalProfile.uniform(
            n, m_by_order={2: sigma2}, l_by_order={2: sigma2},
            delta_by_order={2: 0.0},
        )
        got = math.exp(main_theorem_bound(profile, 2))
        assert got == pytest.approx(48.0 * 2 * n * sigma2, rel=1e-9)

    def test_doubling_l_never_decreases(self):
        n, m = 6, 4
        base = dict(m_by_order={2: 8.0, 4: 64.0},
                    delta_by_order={2: 0.01, 4: 0.01})
        lo = TypicalProfile.uniform(n, l_by_order={2: 0.5, 4: 1.0}, **base)
        hi = TypicalProfile.uniform(n, l_by_order={2: 1.0, 4: 2.0}, **base)
        assert main_theorem_bound(hi, m) >= main_theorem_bound(lo, m)

    def test_delta_out_of_range_rejected(self):
        base = MomentProfile.uniform(3, {2: 1.0})
        with pytest.raises(InvalidArgumentError):
            TypicalProfile(base, log_l=np.zeros((3, 1)) - 1.0,
                           delta=np.full((3, 1), 1.5))

    def test_nan_l_rejected(self):
        # a NaN L would make main_theorem_bound return NaN
        base = MomentProfile.uniform(3, {2: 1.0, 4: 3.0})
        with pytest.raises(InvalidArgumentError, match="L must not be NaN"):
            TypicalProfile(base, np.full((3, 2), np.nan), np.full((3, 2), 0.1))

    def test_l_above_m_rejected(self):
        base = MomentProfile.uniform(3, {2: 1.0})
        with pytest.raises(InvalidArgumentError):
            TypicalProfile.uniform(3, m_by_order={2: 1.0},
                                   l_by_order={2: 2.0}, delta_by_order={2: 0.1})

    @pytest.mark.parametrize("l_values, delta_values, named", [
        ({2: 0.5, 6: 1.0}, {2: 0.1, 4: 0.1}, "L[1,6]: order 6"),
        ({2: 0.5, 4: 1.0}, {2: 0.1, 6: 0.1}, "delta[1,6]: order 6"),
        ({2: [], 4: 1.0}, {2: 0.1, 4: 0.1}, "L: order 2 has 0 values, not 1 or 1"),
        ({2: 0.5, 4: 1.0}, {2: 0.1, 4: [0.1, 0.1]},
         "delta: order 4 has 2 values, not 1 or 1"),
        ({2: -0.5, 4: 1.0}, {2: 0.1, 4: 0.1}, "L[1,2] must be >= 0"),
        ({2: [-0.5], 4: 1.0}, {2: 0.1, 4: 0.1}, "L[1,2] must be >= 0"),
    ])
    def test_from_values_rejects_entry_outside_base(self, l_values, delta_values, named):
        base = MomentProfile.uniform(1, {2: 1.0, 4: 3.0})
        with pytest.raises(InvalidArgumentError, match=named.replace("[", r"\[")):
            TypicalProfile.from_values(base, l_values, delta_values)

    def test_uniform_matches_from_values(self):
        m, l, d = {2: 2.0, 4: 9.0}, {2: 0.0, 4: 4.5}, {2: 0.25, 4: 0.0}
        profile = TypicalProfile.uniform(3, m, l, d)
        rebuilt = TypicalProfile.from_values(
            MomentProfile.from_values(3, {o: [m[o]] * 3 for o in m}),
            {o: [l[o]] * 3 for o in l}, {o: [d[o]] * 3 for o in d})
        assert np.array_equal(profile.base.log_m, rebuilt.base.log_m)
        assert np.array_equal(profile.log_l, rebuilt.log_l)
        assert np.array_equal(profile.delta, rebuilt.delta)
        assert profile.log_l[0, 0] == -np.inf

    def test_matches_direct_evaluation(self):
        n, m = 4, 4
        rng = np.random.default_rng(3)
        mv = {t: float(rng.uniform(2.0, 5.0)) for t in (2, 4)}
        lv = {t: mv[t] * float(rng.uniform(0.1, 0.9)) for t in (2, 4)}
        dv = {t: float(rng.uniform(0.0, 0.5)) for t in (2, 4)}
        profile = TypicalProfile.uniform(n, mv, lv, dv)
        c = 48.0
        term1 = (c * m) ** (m / 2) * sum(
            m ** (1 - 1 / l) / l**2 * (n * lv[2 * l]) ** (1 / l)
            for l in (1, 2)
        ) ** (m / 2)
        term2 = (c * m) ** m * sum(
            1 / (n * l**2)
            * n * (n * mv[2 * l] * dv[2 * l] ** (2 / (m - 2 * l + 2))) ** (m / (2 * l))
            for l in (1, 2)
        )
        got = math.exp(main_theorem_bound(profile, m))
        assert got == pytest.approx(term1 + term2, rel=1e-9)

    def test_per_variable_profile_matches_direct_evaluation(self):
        # M, L and delta differ across the variables; a delta of 0 drops its
        # (i, l) worst-case term and a delta of 1 keeps M unscaled
        n, m = 3, 6
        mv = {(1, 2): 2.0, (2, 2): 3.5, (3, 2): 1.25,
              (1, 4): 9.0, (2, 4): 4.0, (3, 4): 16.0,
              (1, 6): 40.0, (2, 6): 75.0, (3, 6): 20.0}
        lv = {(1, 2): 0.5, (2, 2): 3.0, (3, 2): 0.0,
              (1, 4): 2.0, (2, 4): 1.5, (3, 4): 7.0,
              (1, 6): 11.0, (2, 6): 30.0, (3, 6): 4.5}
        dv = {(1, 2): 0.0, (2, 2): 0.2, (3, 2): 1.0,
              (1, 4): 0.05, (2, 4): 1.0, (3, 4): 0.0,
              (1, 6): 0.3, (2, 6): 0.0, (3, 6): 0.01}
        c, ls, vs = 48.0, (1, 2, 3), (1, 2, 3)

        def by_order(values):
            return {2 * l: [values[i, 2 * l] for i in vs] for l in ls}

        profile = TypicalProfile.from_values(MomentProfile.from_values(n, by_order(mv)),
                                             by_order(lv), by_order(dv))
        term1 = (c * m) ** (m / 2) * sum(
            m ** (1 - 1 / l) / l**2 * sum(lv[i, 2 * l] for i in vs) ** (1 / l)
            for l in ls
        ) ** (m / 2)
        term2 = (c * m) ** m * sum(
            1 / (n * l**2) * sum(
                (n * mv[i, 2 * l] * dv[i, 2 * l] ** (2 / (m - 2 * l + 2))) ** (m / (2 * l))
                for i in vs)
            for l in ls
        )
        got = math.exp(main_theorem_bound(profile, m))
        assert got == pytest.approx(term1 + term2, rel=1e-9)


# Few distinct values, so ties at the maximum are common, with infinities
# and magnitudes where exp over- and underflows.
_lse_entries = st.one_of(
    st.sampled_from([-np.inf, np.inf, 0.0, 1.0, -745.0, 709.0, 710.0]),
    st.floats(min_value=-1e3, max_value=1e3),
)


class TestLogSumExp:
    @given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 39)),
                  elements=_lse_entries),
           st.sampled_from(["contiguous", "repeated", "transposed"]))
    @example(np.array([[-np.inf] * 3]), "contiguous")
    @example(np.array([[np.inf, -np.inf, 2.0]]), "contiguous")
    @example(np.array([[2.5]]), "contiguous")
    @example(np.array([[1.0, 3.0, 3.0, -np.inf], [-np.inf] * 4]), "repeated")
    @example(np.array([[709.0, 710.0], [-745.0, 0.0], [np.inf, 710.0]]), "transposed")
    @settings(max_examples=200, deadline=None)
    def test_rows_match_scipy(self, rows, layout):
        # main_theorem_bound passes transposed profile tables, whose rows
        # are strided
        a = rows
        if layout == "repeated":
            a = np.repeat(a, 2, axis=1)[:, ::2]
        elif layout == "transposed":
            a = np.ascontiguousarray(a.T).T
        with np.errstate(over="ignore"):  # exp overflows on a finite entry beside +inf
            got = _logsumexp_rows(a)
        want = logsumexp(a, axis=1)
        for x, y, row in zip(got, want, rows):
            if not np.isfinite(y) or np.isinf(row).all():
                assert x == y, row
            else:
                assert math.isclose(x, y, rel_tol=1e-15, abs_tol=1e-15), row


class TestMarkovTail:
    def test_direct_division(self):
        assert markov_tail(math.log(9600), 2, 200) == pytest.approx(0.24)

    def test_clamps_at_one(self):
        assert markov_tail(math.log(9600), 2, 10) == 1.0

    def test_fourth_order_hand_value(self):
        bound = math.log((48 * 100 * 4) ** 2)
        assert markov_tail(bound, 4, 500) == pytest.approx(5.89824e-3, rel=1e-9)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(InvalidArgumentError):
            markov_tail(0.0, 2, 0.0)

    @given(st.floats(min_value=-50, max_value=200),
           st.integers(min_value=1, max_value=12),
           st.floats(min_value=1e-3, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_always_a_probability(self, bound, half_m, t):
        p = markov_tail(bound, 2 * half_m, t)
        assert 0.0 <= p <= 1.0

    @given(st.floats(min_value=-10, max_value=60),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_t(self, bound, half_m):
        ts = np.linspace(0.5, 50, 25)
        ps = [markov_tail(bound, 2 * half_m, t) for t in ts]
        assert all(a >= b for a, b in zip(ps, ps[1:]))


class TestOptimizeM:
    def test_scan_matches_hand_rule(self):
        res = optimize_m(lambda m: closed_point(100, m), t=200, m_max=40)
        # optimal continuous order is t^2/(e*48*n) ~ 3.07
        assert res.m_used in range(2, 13, 2)
        assert res.m_used == 4
        at_two = markov_tail(closed_point(100, 2), 2, 200)
        assert res.tail_probability <= at_two

    def test_exhaustiveness(self):
        res = optimize_m(lambda m: closed_point(50, m), t=120, m_max=20)
        for m in range(2, 21, 2):
            assert res.tail_probability <= markov_tail(
                closed_point(50, m), m, 120) + 1e-15

    def test_clamped_regime(self):
        res = optimize_m(lambda m: closed_point(100, m), t=0.5, m_max=20)
        assert res.m_used == 2
        assert res.tail_probability == 1.0

    def test_singleton_search_space(self):
        res = optimize_m(lambda m: closed_point(100, m), t=1e6, m_max=2)
        assert res.m_used == 2

    def test_tail_non_increasing_in_t(self):
        ts = np.linspace(10, 400, 30)
        ps = [optimize_m(lambda m: closed_point(100, m), t, 20).tail_probability
              for t in ts]
        assert all(a >= b - 1e-15 for a, b in zip(ps, ps[1:]))

    def test_result_invariant_enforced(self):
        with pytest.raises(InvalidArgumentError):
            TailBoundResult(t=10.0, m_used=2, moment_bound=5.0,
                            tail_probability=0.123,
                            method=BoundMethod.THEOREM1_CLOSED)


class TestChernoffCorollary:
    def test_out_of_regime(self):
        # Past t = n*sigma2 the curve still bounds the tail, from the orders
        # m <= n*sigma2 that meet the hypothesis.
        res = chernoff_corollary_bound(1000, 0.5, 501.0)
        assert res.m_used <= 500
        assert res.tail_probability < chernoff_corollary_bound(1000, 0.5, 500.0).tail_probability
        # The minimiser t^2/(e*48*n*sigma2), about 766 here, is above the
        # cap n*sigma2 = 10, so the cap's order wins.
        res = chernoff_corollary_bound(10, 1.0, 1000.0)
        assert res.m_used == 10
        assert res.tail_probability == pytest.approx((48 * 10 * 10 / 1000.0**2) ** 5, rel=1e-12)

    def test_boundary_accepted(self):
        res = chernoff_corollary_bound(1000, 0.5, 500.0)
        assert res.m_used % 2 == 0 and res.m_used >= 2
        assert 0 < res.tail_probability <= 1

    def test_bernoulli_setting(self):
        res = chernoff_corollary_bound(1000, 0.5, 100.0)
        assert res.method is BoundMethod.CHERNOFF_COROLLARY
        assert res.m_used == 2  # the real minimiser t^2/(e*48*n*sigma2) is about 0.15
        expected = markov_tail(res.moment_bound, res.m_used, 100.0)
        assert res.tail_probability == pytest.approx(expected)

    def test_tail_non_increasing_in_t(self):
        ts = np.linspace(5, 500, 40)
        ps = [chernoff_corollary_bound(1000, 0.5, float(t)).tail_probability
              for t in ts]
        assert all(a >= b - 1e-15 for a, b in zip(ps, ps[1:]))

    def test_m_clamped_to_n(self):
        res = chernoff_corollary_bound(5, 1.0, 5.0)
        assert res.m_used <= 4  # even floor of n*sigma2


class TestGeneralChernoff:
    def test_hand_rule_m(self):
        res = general_chernoff_bound(4.0, 120.0)
        # (48*m*(4+m)/120^2)^(m/2) is 0.04, 0.0114, 0.008 and 0.0105 at
        # m = 2, 4, 6, 8: least at 6, below t/sqrt(48e) ~ 10.5
        assert res.m_used == 6
        assert res.tail_probability == pytest.approx((48 * 6 * 10 / 120.0**2) ** 3, rel=1e-12)

    def test_small_t_clamps(self):
        res = general_chernoff_bound(100, 1e-6)
        assert res.m_used == 2
        assert res.tail_probability == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidArgumentError):
            general_chernoff_bound(-1.0, 5.0)
        with pytest.raises(InvalidArgumentError):
            general_chernoff_bound(1.0, 0.0)


class TestHoeffdingAzuma:
    """Hoeffding-Azuma as a special case of Theorem 1: the tail of the
    closed-form curve for |X_i| <= 1."""

    def test_method_and_shape(self):
        method, _, curve = bound_source({"kind": "closed", "n": 100}, [20, 60, 80, 120, 200])
        assert method is BoundMethod.THEOREM1_CLOSED
        assert curve.m_used.max() <= 100
        ps = curve.tail_probability
        assert all(a >= b - 1e-15 for a, b in zip(ps, ps[1:]))


class TestUnderflowedTail:
    """When Markov's p underflows to 0.0, the order is still the one with
    the least log p, not the smallest order whose p underflows."""

    def test_chernoff_corollary(self):
        t = 290_000.0
        res = chernoff_corollary_bound(100_000, 3.0, t)
        assert res.tail_probability == 0.0
        orders, log_bounds = chernoff_corollary_curve(100_000, 3.0, t)
        assert res.m_used == orders[np.argmin(log_bounds - orders * math.log(t))]
        # the real minimiser t^2/(e*48*n*sigma2) is about 2148.5
        assert res.m_used in (2148, 2150)


class TestOverflowingSquare:
    """Past t of about 1.34e154, t*t overflows a double; the curves never
    square t, and take their logs factor by factor."""

    @pytest.mark.parametrize("bound", [lambda t: general_chernoff_bound(1.0, t),
                                       lambda t: chernoff_corollary_bound(10, 1e199, t)],
                             ids=["general", "corollary"])
    def test_chernoff_curves_bound_t(self, bound):
        res = bound(1e200)
        assert res.m_used == MAX_CURVE_ORDER
        assert res.tail_probability == 0.0

    @pytest.mark.parametrize("bound", [
        lambda: general_chernoff_bound(1e307, 1.0),
        lambda: general_chernoff_bound(1.0, 1.3e154),
        lambda: chernoff_corollary_bound(4, 1.7976931348623157e308, 4e153),
    ], ids=["nu", "t", "sigma2"])
    def test_chernoff_curves_keep_the_moment_finite(self, bound):
        res = bound()
        assert math.isfinite(res.moment_bound)
        assert 0.0 <= res.tail_probability <= 1.0


def _log_tails(curve, grid):
    """log p = min(0, moment_bound - m_used*log t) of a TailCurve over grid,
    or of a TailBoundResult at its t: finite where p has underflowed to 0."""
    return np.minimum(0.0, curve.moment_bound - curve.m_used * np.log(grid))


class TestChernoffCurvesBelowTheirRules:
    """Each Chernoff curve, minimised, is at or below the fixed-order rule it
    replaced (kept in conftest as the oracle), on random (n, sigma2, t) with
    t <= n*sigma2; the general curve reads nu = n*sigma2.  The slack covers
    the last bits of logs taken in another order at the rule's order."""

    @given(st.integers(min_value=1, max_value=10**6),
           st.floats(min_value=1e-3, max_value=10.0),
           st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_corollary(self, n, sigma2, frac):
        t = frac * n * sigma2
        rule, m = chernoff_corollary_rule(n, sigma2, t)
        slack = 1e-12 * m * (abs(math.log(C_THEOREM1 * n * m)) + abs(math.log(sigma2)))
        res = chernoff_corollary_bound(n, sigma2, t)
        assert _log_tails(res, res.t) <= rule + slack

    @given(st.integers(min_value=1, max_value=10**6),
           st.floats(min_value=1e-3, max_value=10.0),
           st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_general(self, n, sigma2, frac):
        nu = n * sigma2
        t = frac * nu
        rule, m = general_chernoff_rule(nu, t)
        slack = 1e-12 * m * (abs(math.log(C_MAIN * m)) + abs(math.log(nu + m)))
        res = general_chernoff_bound(nu, t)
        assert _log_tails(res, res.t) <= rule + slack


@pytest.mark.parametrize("nu", [0.0875, 0.5, 0.999])
@pytest.mark.parametrize("kind", ["bernoulli", "hetero_bernoulli"])
def test_chernoff_curve_cost_at_the_size_cap(kind, nu):
    # A chernoff run at MAX_CHERNOFF_N builds its bound over the summary's
    # 20-point grid out to 6 sd; the curve stops at the order the grid's
    # largest t can need, not at n*sigma2, so this stays small.
    n = MAX_CHERNOFF_N
    sd = math.sqrt(n * nu * (1 - nu))
    grid = np.linspace(T_GRID_LO * sd, T_GRID_HI * sd, T_GRID_POINTS)
    source = ({"kind": kind, "n": n, "sigma2": nu * (1 - nu)} if kind == "bernoulli"
              else {"kind": kind, "nus": np.full(n, nu)})
    tracemalloc.start()
    try:
        _, _, curve = bound_source(source, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(curve.tail_probability) == T_GRID_POINTS
    assert peak < 5 * 2**20


@st.composite
def moment_profiles(draw, max_n=60, max_half=12):
    """Random profiles through order m_max = 2*half, zero entries included."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    half = draw(st.integers(min_value=1, max_value=max_half))
    log_m = draw(arrays(np.float64, (n, half), elements=st.one_of(
        st.just(-np.inf), st.floats(min_value=-30.0, max_value=30.0))))
    return MomentProfile(n, range(2, 2 * half + 1, 2), log_m)


t_grids = st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=1, max_size=20)


def _same_log(got, want):
    """Equal within 1e-12 relative, or both the same infinity.  The absolute
    floor covers log values near 0, where 1e-12 in the log is 1e-12
    relative on the moment itself."""
    if not (math.isfinite(got) and math.isfinite(want)):
        return got == want
    return math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


def _assert_matches_scan(orders, log_bounds, t_grid, bound_fn):
    """tail_curve agrees point by point with a per-t scan over bound_fn."""
    m_max = int(orders[-1])
    curve = tail_curve(orders, log_bounds, t_grid)
    for j, t in enumerate(t_grid):
        p, m, mb = optimize_m_oracle(bound_fn, t, m_max)
        assert curve.m_used[j] == m
        assert _same_log(curve.moment_bound[j], mb)
        assert math.isclose(curve.tail_probability[j], p, rel_tol=1e-12, abs_tol=0.0)


class TestMomentCurves:
    @given(moment_profiles())
    @settings(max_examples=30, deadline=None)
    def test_recursion_curve_matches_scalar_dp(self, profile):
        m_max = max(profile.orders)
        orders, log_bounds = theorem1_recursion_curve(profile, m_max)
        assert list(orders) == list(range(2, m_max + 1, 2))
        for m, got in zip(orders, log_bounds):
            assert _same_log(got, theorem1_recursion_oracle(profile, int(m)))

    def test_recursion_curve_on_normal_moments(self):
        # The benchmark's profile: E Z^l = (l-1)!! for l <= 16, n = 40.
        profile = MomentProfile.uniform(
            40, {l: float(math.prod(range(l - 1, 0, -2))) for l in range(2, 17, 2)})
        orders, log_bounds = theorem1_recursion_curve(profile, 16)
        for m, got in zip(orders, log_bounds):
            assert _same_log(got, theorem1_recursion_oracle(profile, int(m)))

    def test_scalar_evaluators_are_curve_endpoints(self):
        profile = MomentProfile.uniform(7, {2: 1.5, 4: 6.0, 6: 40.0})
        _, rec = theorem1_recursion_curve(profile, 6)
        for j, m in enumerate((2, 4, 6)):
            assert theorem1_recursion_bound(profile, m) == rec[j]

    def test_curve_needs_every_order(self):
        profile = MomentProfile.uniform(3, {2: 1.0, 6: 1.0})
        with pytest.raises(IncompleteProfileError):
            theorem1_recursion_curve(profile, 6)
        with pytest.raises(InvalidArgumentError):
            theorem1_recursion_curve(profile, 5)


class TestTailCurve:
    @given(moment_profiles(max_n=30, max_half=8), t_grids)
    @settings(max_examples=40, deadline=None)
    def test_theorem1_matches_scan(self, profile, t_grid):
        m_max = max(profile.orders)
        oracle = {m: theorem1_recursion_oracle(profile, m)
                  for m in range(2, m_max + 1, 2)}
        _assert_matches_scan(*theorem1_recursion_curve(profile, m_max), t_grid,
                             oracle.__getitem__)

    @given(moment_profiles(max_n=20, max_half=6),
           st.floats(min_value=0.0, max_value=1.0), t_grids)
    @settings(max_examples=40, deadline=None)
    def test_main_theorem_matches_scan(self, base, delta, t_grid):
        profile = TypicalProfile(base, base.log_m - 1.0, np.full(base.log_m.shape, delta))
        m_max = max(base.orders)
        _assert_matches_scan(*main_theorem_curve(profile, m_max), t_grid,
                             lambda m: main_theorem_bound(profile, m))

    @given(st.integers(min_value=1, max_value=400),
           st.integers(min_value=1, max_value=40), t_grids)
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_scan(self, n, half, t_grid):
        _assert_matches_scan(*theorem1_closed_curve(n, 2 * half), t_grid,
                             lambda m: closed_point(n, m))

    @given(st.integers(min_value=1, max_value=10_000),
           st.integers(min_value=1, max_value=200), t_grids)
    @settings(max_examples=60, deadline=None)
    def test_jl_matches_scan(self, n, k, t_grid):
        _assert_matches_scan(*jl_envelope_curve(n, k), t_grid,
                             lambda m: closed_point(k, m) - m * math.log(n))

    def test_tie_resolves_to_smaller_order(self):
        # At t = 1 each p is exp(log bound): orders 4 and 6 tie below order 2.
        curve = tail_curve([2, 4, 6], [-1.0, -2.0, -2.0], [1.0])
        assert curve.m_used[0] == 4
        assert curve.tail_probability[0] == math.exp(-2.0)

    def test_every_p_clamped_to_one(self):
        curve = tail_curve([2, 4, 6], [5.0, 9.0, 20.0], [0.5, 1.0])
        assert list(curve.m_used) == [2, 2]
        assert list(curve.tail_probability) == [1.0, 1.0]
        assert list(curve.moment_bound) == [5.0, 5.0]

    def test_every_p_underflows_to_zero(self):
        # every p is 0.0, but log p still has a least order
        curve = tail_curve([2, 4, 6], [-800.0, -1000.0, -900.0], [1.0])
        assert curve.m_used[0] == 4
        assert curve.moment_bound[0] == -1000.0
        assert curve.tail_probability[0] == 0.0

    def test_underflow_beats_a_positive_tail(self):
        # exp(-700) > 0 loses to the orders whose p underflows; of those
        # the least log p wins.
        curve = tail_curve([2, 4, 6], [-700.0, -900.0, -800.0], [1.0])
        assert curve.m_used[0] == 4
        assert curve.tail_probability[0] == 0.0

    def test_each_t_minimised_separately(self):
        orders, log_bounds = theorem1_closed_curve(100, 40)
        ts = [0.5, 200.0, 1e6]
        curve = tail_curve(orders, log_bounds, ts)
        for j, t in enumerate(ts):
            res = optimize_m(lambda m: closed_point(100, m), t, 40)
            assert curve.m_used[j] == res.m_used
            assert curve.tail_probability[j] == res.tail_probability

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_rejects_nonpositive_t(self, t):
        with pytest.raises(InvalidArgumentError):
            tail_curve([2, 4], [1.0, 2.0], [1.0, t])


def test_centred_bernoulli_moments_within_the_variance():
    # E(X - nu)^l = nu (1 - nu)^l + (1 - nu) nu^l <= nu (1 - nu) for even l
    # >= 2, with equality at l = 2: the corollary's sigma2 of a chernoff
    # run.  Exact in rationals, on nu = k/64.
    for k in range(1, 64):
        nu = Fraction(k, 64)
        var = nu * (1 - nu)
        moments = [nu * (1 - nu)**l + (1 - nu) * nu**l for l in range(2, 65, 2)]
        assert moments[0] == var
        assert all(m <= var for m in moments), nu


def _exact_tail_grid(sd):
    """40 points of a log t-grid from half a standard deviation to 40."""
    return np.geomspace(0.5 * sd, 40.0 * sd, 40)


def _recursion_curve(n, moment, grid):
    """The Theorem 1 recursion to order 64 on n variables whose every even
    moment E X_i^l is moment(l), Markov-minimised over grid."""
    profile = MomentProfile.uniform(n, {l: moment(l) for l in range(2, 65, 2)})
    return tail_curve(*theorem1_recursion_curve(profile, 64), grid)


class TestExactTails:
    """Every bound dominates the exact tail of a sum whose law is known, out
    to 40 sd, far past the few sd where Monte Carlo sees a tail.  Both sides
    are compared in log domain, so a bound and a tail that underflow to 0
    are still compared.  The variables are independent and centred, so
    strongly negatively correlated, and their exact moments are the
    profile.  Where the recursion is below 1 it stays 27 to 34 times above
    the exact tail, and lowering its coefficient 11/5 to 1/2 puts it below
    the exact tail.  Each Chernoff curve is below 1 somewhere on every
    Binomial law here."""

    @pytest.mark.parametrize("n, p", [(1000, 0.5), (1000, 0.05), (200, 0.5)])
    def test_binomial_sum(self, n, p):
        var = p * (1 - p)  # bounds every even moment of a centred Bernoulli(p)
        grid = _exact_tail_grid(math.sqrt(n * var))
        exact = np.array([log_binomial_tail_exact(n, p, t) for t in grid])
        curves = {
            "closed": tail_curve(*theorem1_closed_curve(n, n), grid),
            "recursion": _recursion_curve(n, lambda l: p * (1 - p)**l + (1 - p) * p**l, grid),
            "corollary": bound_source({"kind": "bernoulli", "n": n, "sigma2": var}, grid)[2],
            "general": bound_source({"kind": "hetero_bernoulli", "nus": np.full(n, p)},
                                    grid)[2],
        }
        for name, curve in curves.items():
            log_tail = _log_tails(curve, grid)
            assert (log_tail >= exact).all(), (name, grid[log_tail < exact])
            if name != "closed":
                assert (log_tail < 0).any(), name

    @pytest.mark.parametrize("n", [1000, 200])
    def test_gaussian_sum(self, n):
        grid = _exact_tail_grid(math.sqrt(n))
        exact = np.array([log_gaussian_tail_exact(n, t) for t in grid])
        # E Z^l = (l - 1)!! for a standard normal Z
        curves = {
            "closed": tail_curve(*theorem1_closed_curve(n, n), grid),
            "recursion": _recursion_curve(
                n, lambda l: float(math.prod(range(l - 1, 0, -2))), grid),
        }
        for name, curve in curves.items():
            log_tail = _log_tails(curve, grid)
            assert (log_tail >= exact).all(), (name, grid[log_tail < exact])
            assert (log_tail < 0).any(), name


class TestMomentProfile:
    def test_rejects_negative(self):
        with pytest.raises(InvalidArgumentError):
            MomentProfile.uniform(2, {2: -1.0})

    def test_rejects_odd_orders(self):
        with pytest.raises(InvalidArgumentError):
            MomentProfile.uniform(2, {3: 1.0})

    def test_incomplete_from_values(self):
        with pytest.raises(IncompleteProfileError) as err:
            MomentProfile.from_values(2, {2: [1.0, math.nan]})
        assert err.value.i == 2 and err.value.l == 2

    @pytest.mark.parametrize("n", [-1, 0])
    @pytest.mark.parametrize("build", [
        lambda n: MomentProfile.from_values(n, {2: 1.0}),
        lambda n: MomentProfile.uniform(n, {2: 1.0}),
        lambda n: TypicalProfile.uniform(n, {2: 1.0}, {2: 0.5}, {2: 0.1}),
    ], ids=["from_values", "uniform", "typical_uniform"])
    def test_rejects_n_below_one(self, build, n):
        with pytest.raises(InvalidArgumentError, match=r"^n must be >= 1$"):
            build(n)


