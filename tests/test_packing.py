import math

import numpy as np
import pytest

from conftest import pack_exact_bins, packing_lp_vertex_oracle
from tailbounds.errors import InvalidArgumentError, SizeLimitError
from tailbounds.packing import (
    ItemDistribution,
    enumerate_bin_types,
    lower_bound_distribution,
    lp_round_up,
    lp_value_after_insert,
    solve_packing_lp,
)


def random_distribution(rng, max_atoms=3):
    r = int(rng.integers(1, max_atoms + 1))
    sizes = np.round(rng.uniform(0.12, 0.95, r), 3)
    probs = rng.dirichlet(np.ones(r))
    probs = probs / probs.sum()
    return ItemDistribution(tuple(sizes), tuple(probs))


class TestItemDistribution:
    def test_moments(self):
        d = ItemDistribution((0.5, 0.25), (0.5, 0.5))
        assert d.mu == pytest.approx(0.375)
        assert d.sigma2 == pytest.approx(0.5 * 0.125**2 * 2)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            ItemDistribution((0.5, 1.5), (0.5, 0.5))
        with pytest.raises(InvalidArgumentError):
            ItemDistribution((0.5,), (0.9,))


class TestLowerBoundDistribution:
    def test_k4_atoms(self):
        d = lower_bound_distribution(4)
        assert d.sizes == pytest.approx((3 / 8, 1 / 4))
        assert d.probs == pytest.approx((2 / 3, 1 / 3))
        # k-2 large items plus one small item fill a bin exactly
        assert 2 * d.sizes[0] + d.sizes[1] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("k", range(4, 13))
    def test_probabilities_sum_to_one(self, k):
        d = lower_bound_distribution(k)
        assert sum(d.probs) == pytest.approx(1.0, abs=1e-12)
        assert (k - 2) * d.sizes[0] + d.sizes[1] == pytest.approx(1.0, abs=1e-12)

    def test_k5_hand_moments(self):
        d = lower_bound_distribution(5)
        assert d.mu == pytest.approx(0.25)
        assert d.sigma2 == pytest.approx(1 / 1200)

    def test_rejects_small_k(self):
        with pytest.raises(InvalidArgumentError):
            lower_bound_distribution(3)


class TestEnumerateBinTypes:
    def test_two_size_example(self):
        d = ItemDistribution((0.6, 0.5), (0.5, 0.5))
        full = enumerate_bin_types(d, maximal_only=False)
        assert full.rows.tolist() == [[0, 0], [0, 1], [0, 2], [1, 0]]
        maximal = enumerate_bin_types(d)
        assert maximal.rows.tolist() == [[0, 2], [1, 0]]

    def test_single_unit_size(self):
        d = ItemDistribution((1.0,), (1.0,))
        assert enumerate_bin_types(d).rows.tolist() == [[1]]

    def test_third_fits_twice(self):
        d = ItemDistribution((0.34,), (1.0,))
        assert enumerate_bin_types(d).rows.tolist() == [[2]]

    def test_guards(self):
        with pytest.raises(InvalidArgumentError):
            enumerate_bin_types(ItemDistribution((0.04,), (1.0,)))
        nine = ItemDistribution(tuple([0.9] * 9), tuple([1 / 9] * 9))
        with pytest.raises(InvalidArgumentError):
            enumerate_bin_types(nine)

    def test_size_limit(self):
        # eight atoms of size 0.05 admit C(28, 8) ~ 3.1M fill vectors
        d = ItemDistribution(tuple([0.05] * 8), tuple([1 / 8] * 8))
        with pytest.raises(SizeLimitError):
            enumerate_bin_types(d, maximal_only=False)

    def test_rows_feasible_and_sorted(self):
        d = ItemDistribution((0.55, 0.3, 0.2), (0.4, 0.3, 0.3))
        ts = enumerate_bin_types(d, maximal_only=False)
        loads = ts.rows @ np.array(d.sizes)
        assert (loads <= 1 + 1e-9).all()
        assert ts.rows.tolist() == sorted(ts.rows.tolist())


class TestSolvePackingLp:
    def test_half_sizes(self):
        d = ItemDistribution((0.5,), (1.0,))
        sol = solve_packing_lp(enumerate_bin_types(d, maximal_only=False), [10])
        assert sol.value == pytest.approx(5.0)
        assert sol.y.tolist() == pytest.approx([0.5])

    def test_worked_example(self):
        d = ItemDistribution((0.6, 0.5), (0.5, 0.5))
        sol = solve_packing_lp(enumerate_bin_types(d, maximal_only=False), [3, 4])
        assert sol.value == pytest.approx(5.0)
        assert sol.duality_gap <= 1e-9

    def test_zero_counts(self):
        d = ItemDistribution((0.6, 0.5), (0.5, 0.5))
        sol = solve_packing_lp(enumerate_bin_types(d, maximal_only=False), [0, 0])
        assert sol.value == 0.0
        assert np.allclose(sol.x, 0.0)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_vertex_enumeration_oracle(self, seed):
        rng = np.random.default_rng(900 + seed)
        d = random_distribution(rng, max_atoms=3)
        types = enumerate_bin_types(d)
        if types.count > 7:
            pytest.skip("keep the oracle's combination count small")
        counts = [int(c) for c in rng.integers(0, 12, d.r)]
        sol = solve_packing_lp(types, counts)
        oracle = packing_lp_vertex_oracle(types.rows.tolist(), counts)
        assert sol.value == pytest.approx(float(oracle), abs=1e-9)

    @pytest.mark.parametrize("seed", range(40))
    def test_strong_duality_and_structure(self, seed):
        rng = np.random.default_rng(1300 + seed)
        d = random_distribution(rng)
        types = enumerate_bin_types(d)
        counts = [int(c) for c in rng.integers(0, 50, d.r)]
        sol = solve_packing_lp(types, counts)
        assert sol.duality_gap <= 1e-9 * (1 + abs(sol.value))
        # primal feasibility
        assert (types.rows.T @ sol.x >= np.array(counts) - 1e-9).all()
        # dual feasibility: imputed bin content never exceeds one bin
        assert (types.rows @ sol.y <= 1 + 1e-9).all()
        assert (sol.y >= -1e-12).all()
        # a basic optimum has at most r nonzero bin counts
        assert sol.basis_size <= d.r
        # the size vector itself is dual feasible, so its objective value
        # lower-bounds the optimum
        assert np.dot(counts, d.sizes) <= sol.value + 1e-9

    def test_exact_rational_matches_float(self):
        d = ItemDistribution((0.6, 0.5), (0.5, 0.5))
        types = enumerate_bin_types(d, maximal_only=False)
        a = solve_packing_lp(types, [3, 4])
        b = solve_packing_lp(types, [3, 4], exact=True)
        assert a.value == pytest.approx(b.value, abs=1e-12)
        assert a.y.tolist() == pytest.approx(b.y.tolist(), abs=1e-9)

    def test_maximal_matches_full_enumeration(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            d = random_distribution(rng)
            counts = [int(c) for c in rng.integers(0, 30, d.r)]
            v_full = solve_packing_lp(enumerate_bin_types(d, maximal_only=False), counts).value
            v_max = solve_packing_lp(enumerate_bin_types(d), counts).value
            assert v_full == pytest.approx(v_max, abs=1e-9)


class TestInsertionSandwich:
    @pytest.mark.parametrize("seed", range(25))
    def test_delta_between_dual_and_pure_type_cost(self, seed):
        rng = np.random.default_rng(2200 + seed)
        d = random_distribution(rng)
        types = enumerate_bin_types(d)
        counts = [int(c) for c in rng.integers(0, 40, d.r)]
        sol = solve_packing_lp(types, counts)
        k = int(rng.integers(0, d.r))
        delta = lp_value_after_insert(types, counts, k) - sol.value
        zeta = d.sizes[k]
        assert delta >= sol.y[k] - 1e-7
        assert delta <= 1.0 / math.floor(1.0 / zeta) + 1e-9
        assert delta <= zeta + 2 * zeta**2 + 1e-9


class TestRoundUp:
    def test_integral_solution_unchanged(self):
        d = ItemDistribution((0.5,), (1.0,))
        sol = solve_packing_lp(enumerate_bin_types(d, maximal_only=False), [10])
        assert lp_round_up(sol) == 5

    def test_fractional_rounds_each_basic_variable(self):
        d = ItemDistribution((0.6, 0.5), (0.5, 0.5))
        sol = solve_packing_lp(enumerate_bin_types(d, maximal_only=False), [5, 3])
        total = lp_round_up(sol)
        assert math.ceil(sol.value - 1e-9) <= total <= sol.value + d.r

    @pytest.mark.parametrize("seed", range(15))
    def test_exact_optimum_bracketed(self, seed):
        rng = np.random.default_rng(3100 + seed)
        d = random_distribution(rng, max_atoms=2)
        types = enumerate_bin_types(d)
        counts = [int(c) for c in rng.integers(0, 7, d.r)]
        if sum(counts) == 0 or sum(counts) > 12:
            counts = [min(c, 6) for c in counts]
        sol = solve_packing_lp(types, counts)
        rounded = lp_round_up(sol)
        items = [z for z, c in zip(d.sizes, counts) for _ in range(c)]
        exact = pack_exact_bins(items)
        assert math.ceil(sol.value - 1e-9) <= exact <= rounded
