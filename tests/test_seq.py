import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import lis_brute
from tailbounds.errors import InvalidArgumentError
from tailbounds.harness.rng import substream
from tailbounds.seq import (
    GaussianIid,
    RadialBetaMixture,
    SphereUniform,
    check_jl_hypotheses,
    essential_mask,
    essential_probability,
    jl_projection_statistic,
    lis,
    lis_positions,
    sample_unit_vector,
)


class TestLis:
    def test_sorted(self):
        assert lis([1, 2, 3]) == 3

    def test_reversed(self):
        assert lis([3, 2, 1]) == 1

    def test_ties_chain_by_position(self):
        assert lis([1, 1, 1]) == 3

    def test_empty_and_singleton(self):
        assert lis([]) == 0
        assert lis([7.5]) == 1

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_chain_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        values = rng.random(n).tolist()
        assert lis(values) == lis_brute(values)

    def test_matches_enumeration_with_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            values = rng.integers(0, 4, size=10).tolist()
            assert lis(values) == lis_brute(values)

    @given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_bounds_property(self, values):
        length = lis(values)
        assert 0 <= length <= len(values)
        if values:
            assert lis(sorted(values)) == len(values)


class TestEssentialMask:
    def test_single_peak(self):
        # in [1, 3, 2] the value 1 is in every longest chain
        assert essential_mask([1, 3, 2]).tolist() == [True, False, False]

    def test_all_essential_when_sorted(self):
        assert essential_mask([1, 2, 3, 4]).all()

    def test_none_essential_when_reversed(self):
        # every singleton is a longest chain; no position is in all of them
        assert not essential_mask([3, 2, 1]).any()

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_removal_definition(self, seed):
        rng = np.random.default_rng(4000 + seed)
        values = rng.random(int(rng.integers(1, 11))).tolist()
        # the empty sequence, and tie-heavy integer sequences: lengths 1-30
        # over 1-7 distinct values
        ties = [rng.integers(0, rng.integers(1, 8), rng.integers(1, 31)).tolist()
                for _ in range(20)]
        for values in [values, [], *ties]:
            base = lis(values)
            removal = [lis(values[:j] + values[j + 1:]) == base - 1
                       for j in range(len(values))]
            mask = essential_mask(values)
            assert mask.dtype == bool and mask.tolist() == removal

    def test_duplicate_values_fall_back(self):
        values = [0.5, 0.5, 0.2]
        base = lis(values)
        removal = [lis(values[:j] + values[j + 1:]) == base - 1
                   for j in range(len(values))]
        assert essential_mask(values).tolist() == removal


class TestEssentialProbability:
    def test_two_element_case_analysis(self):
        # With distinct uniforms, both positions are essential exactly when
        # the pair is increasing: a_1 = a_2 = 1/2.
        est = essential_probability(2, 1, [], resamples=4000, seed=8)
        for j in range(2):
            assert est.a_hat[j] == pytest.approx(0.5, abs=4 * est.standard_error[j]
                                                 + 1e-9)

    def test_monotone_in_position(self):
        est = essential_probability(30, 1, [], resamples=3000, seed=9)
        for j in range(29):
            slack = 3 * math.sqrt(est.standard_error[j] ** 2
                                  + est.standard_error[j + 1] ** 2)
            assert est.a_hat[j] <= est.a_hat[j + 1] + slack

    def test_sum_bounded_by_suffix_lis(self):
        est = essential_probability(25, 6, [0.1, 0.9, 0.4, 0.6, 0.2],
                                    resamples=1500, seed=10)
        total = est.a_hat.sum()
        budget = est.suffix_lis_mean + 3 * est.suffix_lis_se \
            + 3 * math.sqrt((est.standard_error**2).sum())
        assert total <= budget

    def test_probabilities_in_unit_interval(self):
        est = essential_probability(12, 3, [0.5, 0.25], resamples=500, seed=11)
        assert ((est.a_hat >= 0) & (est.a_hat <= 1)).all()

    def test_requires_enough_resamples(self):
        with pytest.raises(InvalidArgumentError):
            essential_probability(5, 1, [], resamples=10)

    def test_prefix_length_checked(self):
        with pytest.raises(InvalidArgumentError):
            essential_probability(5, 3, [0.5], resamples=200)


class TestUnitVectors:
    def test_one_dimensional_sign(self):
        values = {sample_unit_vector(1, SphereUniform(), substream(seed, "unitvec"))[0]
                  for seed in range(20)}
        assert values <= {-1.0, 1.0}
        assert len(values) == 2

    def test_unit_norm_exact(self):
        v = sample_unit_vector(500, SphereUniform(), substream(4, "unitvec"))
        assert (v**2).sum() == pytest.approx(1.0, abs=1e-12)

    def test_coordinate_second_moment(self):
        rng = substream(700, "coords")
        from tailbounds.seq import _draw_vectors

        vecs = _draw_vectors(rng, 1000, SphereUniform(), 10000)
        m2 = (vecs[:, 0] ** 2).mean()
        se = (vecs[:, 0] ** 2).std(ddof=1) / math.sqrt(len(vecs))
        assert m2 == pytest.approx(1 / 1000, abs=3 * se)

    def test_near_constant_radius_matches_sphere(self):
        # R^2 ~ 2*Beta(a, a) concentrates at 1 for large a
        from tailbounds.seq import _draw_vectors

        rng1 = substream(701, "ks-a")
        rng2 = substream(702, "ks-b")
        sphere = _draw_vectors(rng1, 50, SphereUniform(), 4000)[:, 0]
        mixture = _draw_vectors(rng2, 50, RadialBetaMixture(2.0, 4000.0, 4000.0),
                                4000)[:, 0]
        _, p_value = stats.ks_2samp(sphere, mixture)
        assert p_value > 0.01

    def test_radial_moments_analytic(self):
        fam = RadialBetaMixture(scale=1.2, a=8.0, b=2.0)
        rng = substream(703, "radial")
        r2 = 1.2 * rng.beta(8.0, 2.0, 30000)
        for l in (1, 2, 3):
            se = (r2**l).std(ddof=1) / math.sqrt(len(r2))
            assert fam.radial_moment(l) == pytest.approx((r2**l).mean(),
                                                         abs=4 * se)


class TestProjectionStatistic:
    def test_full_vector_sums_to_one(self):
        v = sample_unit_vector(100, SphereUniform(), substream(5, "unitvec"))
        stat = jl_projection_statistic(v, 100)
        assert stat.total == pytest.approx(1.0, abs=1e-12)
        assert stat.centered == pytest.approx(0.0, abs=1e-12)

    def test_empty_projection(self):
        v = sample_unit_vector(10, SphereUniform(), substream(6, "unitvec"))
        stat = jl_projection_statistic(v, 0)
        assert stat.total == 0.0 and stat.centered == 0.0

    def test_mean_is_k_over_n(self):
        totals = []
        for seed in range(3000):
            v = sample_unit_vector(40, SphereUniform(), substream(seed, "unitvec"))
            totals.append(jl_projection_statistic(v, 10).total)
        totals = np.array(totals)
        se = totals.std(ddof=1) / math.sqrt(len(totals))
        assert totals.mean() == pytest.approx(0.25, abs=3 * se)

    def test_mixture_centering_uses_family_moment(self):
        fam = RadialBetaMixture(scale=1.2, a=8.0, b=2.0)
        v = sample_unit_vector(50, fam, substream(7, "unitvec"))
        stat = jl_projection_statistic(v, 50, fam)
        assert stat.centered == pytest.approx(stat.total - 1.2 * 0.8, abs=1e-12)


class TestJlHypotheses:
    def test_sphere_passes(self):
        report = check_jl_hypotheses(SphereUniform(), 400, 100, samples=4000,
                                     seed=1)
        assert report.passed
        assert not report.reasons()

    def test_sphere_conditional_law_tracks_exact_curve(self):
        # E(Y_i^2 | W = s) = (1 - s)/(n - i + 1) for the sphere
        from tailbounds.seq import _draw_vectors

        n, i = 60, 30
        rng = substream(704, "cond")
        vecs = _draw_vectors(rng, n, SphereUniform(), 20000)
        sq = vecs**2
        w = sq[:, : i - 1].sum(axis=1)
        target = sq[:, i - 1]
        order = np.argsort(w)
        for group in np.array_split(order, 8):
            predicted = (1 - w[group].mean()) / (n - i + 1)
            se = target[group].std(ddof=1) / math.sqrt(len(group))
            assert target[group].mean() == pytest.approx(predicted, abs=4 * se)

    def test_iid_gaussian_flat_conditional_passes(self):
        report = check_jl_hypotheses(GaussianIid(), 400, 100, samples=4000,
                                     seed=2)
        assert not report.monotone_flagged

    def test_wide_radial_mixture_flagged(self):
        report = check_jl_hypotheses(RadialBetaMixture(4.0, 0.5, 0.5), 400, 100,
                                     samples=4000, seed=3)
        assert report.monotone_flagged
        assert not report.passed
        assert report.reasons()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("exponent", [1000, -900])
    def test_trend_is_scale_free_near_the_float_limits(self, exponent):
        # Radii scaled by a power of two leave the trend statistics as they
        # are, bit for bit, and none of them overflows or divides by zero;
        # a moment past the float range is flagged.
        at_one = check_jl_hypotheses(RadialBetaMixture(1.0, 8.0, 2.0), 200, 60,
                                     samples=2000, seed=5)
        scaled = check_jl_hypotheses(RadialBetaMixture(2.0**exponent, 8.0, 2.0), 200, 60,
                                     samples=2000, seed=5)
        assert scaled.monotone_stats == at_one.monotone_stats
        assert scaled.moment_flagged == (exponent > 0)

    @pytest.mark.filterwarnings("error")
    def test_bins_without_spread_stay_finite(self):
        # Beta(0.001, 2) radii underflow to 0 in about half the draws, so the
        # lowest bins hold only zeros.
        report = check_jl_hypotheses(RadialBetaMixture(1.2, 1e-3, 2.0), 200, 60,
                                     samples=2000, seed=6)
        assert all(math.isfinite(z) and math.isfinite(rise)
                   for _, z, rise in report.monotone_stats)

    def test_reports_moment_constants(self):
        report = check_jl_hypotheses(SphereUniform(), 300, 60, samples=2000,
                                     seed=4)
        assert set(report.moment_constants) == {2, 4, 6}
        assert all(0 < c < 2 for c in report.moment_constants.values())


def test_lis_positions_consistency():
    values = [0.3, 0.1, 0.4, 0.2, 0.5]
    length, fwd, bwd = lis_positions(values)
    assert length == lis(values) == 3
    on_chain = [f + b - 1 == length for f, b in zip(fwd, bwd)]
    assert on_chain == [True, True, True, True, True]
