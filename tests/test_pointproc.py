import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tailbounds import pointproc
from tailbounds.euclid import tsp_strip
from tailbounds.errors import InvalidArgumentError
from tailbounds.harness.config import MAX_ZETA_CAP
from tailbounds.harness.rng import substream
from tailbounds.pointproc import (
    Deterministic,
    PlacementStrategy,
    Poisson,
    TruncatedZeta,
    TwoPoint,
    cell_bounds,
    point_cell,
    sample_point_set,
)

from conftest import sample_point_set_oracle, zeta_tables_oracle

_COUNT_LAWS = [
    Poisson(1.0),
    Poisson(3.5),
    TruncatedZeta(6.0, 10**6, p0=0.35),
    TruncatedZeta(2.0, 50),
    TwoPoint(0.4, 5),
    Deterministic(0),
    Deterministic(1),
    Deterministic(7),
]

# Each chi-square law with the stream tag its draws are taken under.
_CHI_SQUARE_TAGS = {
    Poisson(1.3): "poisson(1.3)",
    TruncatedZeta(6.0, 50, p0=0.2): "zeta(s=6.0,cap=50,p0=0.2)",
    TwoPoint(0.4, 2): "two_point(p0=0.4,value=2)",
}


class TestCountDistributions:
    def test_poisson_moments(self):
        d = Poisson(1.0)
        # raw moments of Poisson(1), summed over its pmf, are the Bell numbers
        ks = np.arange(40)
        pmf = np.array([d.pmf(int(k)) for k in ks])
        assert d.mean == 1.0
        for l, bell in enumerate([1.0, 1.0, 2.0, 5.0, 15.0]):
            assert float((pmf * ks.astype(float)**l).sum()) == pytest.approx(bell)

    def test_zeta_exact_moments(self):
        d = TruncatedZeta(6.0, 100000)
        z = np.arange(1, 100001, dtype=float)
        w = z**-6.0
        w /= w.sum()
        assert d.mean == pytest.approx(float((w * z).sum()), rel=1e-12)

    def test_zero_inflated_zeta(self):
        d = TruncatedZeta(6.0, 1000, p0=0.3)
        plain = TruncatedZeta(6.0, 1000)
        assert d.mean == pytest.approx(0.7 * plain.mean)
        rng = substream(5, "zta")
        draws = d.sample(rng, 20000)
        assert (draws == 0).mean() == pytest.approx(0.3, abs=0.02)

    def test_two_point(self):
        d = TwoPoint(0.25, 3)
        assert d.mean == 0.75 * 3
        assert d.pmf(3) == 0.75 and d.pmf(0) == 0.25 and d.pmf(1) == 0.0

    def test_deterministic(self):
        d = Deterministic(2)
        rng = substream(1, "det")
        assert (d.sample(rng, 10) == 2).all()

    @pytest.mark.parametrize("build", [lambda: Poisson(math.nan), lambda: Poisson(-1.0),
                                       lambda: TruncatedZeta(math.nan, 50)],
                             ids=["poisson-nan", "poisson-negative", "zeta-nan"])
    def test_rejects_nan_and_out_of_domain_parameters(self, build):
        with pytest.raises(InvalidArgumentError):
            build()

    @pytest.mark.parametrize("dist", list(_CHI_SQUARE_TAGS))
    def test_count_marginals_chi_square(self, dist):
        # Empirical count distribution matches the pmf at the 0.1% level.
        rng = substream(77, "chi", _CHI_SQUARE_TAGS[dist])
        draws = dist.sample(rng, 10000)
        top = int(draws.max())
        observed = np.bincount(draws, minlength=top + 1).astype(float)
        expected = np.array([dist.pmf(k) for k in range(top + 1)]) * len(draws)
        # fold the tail into the last cell with expected mass >= 5
        keep = expected >= 5
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
        if exp[-1] == 0:
            obs, exp = obs[:-1], exp[:-1]
        exp *= obs.sum() / exp.sum()
        _, p_value = stats.chisquare(obs, exp)
        assert p_value > 0.001

    def test_zeta_second_moment_stable_across_seeds(self):
        d = TruncatedZeta(6.0, 10**6)
        z = np.arange(1, 10**6 + 1, dtype=float)
        w = z**-6.0
        w /= w.sum()
        second = []
        for seed in range(4):
            rng = substream(seed, "zeta-stab")
            draws = d.sample(rng, 20000).astype(float)
            second.append((draws**2).mean())
        assert np.std(second) < 0.2
        assert np.mean(second) == pytest.approx(float((w * z**2).sum()), rel=0.1)


def _assert_draws_in_their_cells(ps):
    """Each point of a uniform_in_cell PointSet lies in its cell's closed
    bounds or at most one ulp past an upper edge, where x0 + u*h rounds.
    point_cell is not the check: on an inner edge it may name the
    neighbouring cell."""
    side = math.isqrt(ps.n_cells)
    h = 1.0 / side
    r, c = np.divmod(ps.cell, side)
    low = np.column_stack([c * h, r * h])
    high = np.nextafter(np.column_stack([(c + 1) * h, (r + 1) * h]), 2.0)
    assert ((low <= ps.points) & (ps.points <= high)).all()


class _FixedDraws:
    """A Generator stand-in whose every random(size) returns the given draws."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == len(self.u)
        return self.u.copy()


def _zeta_sample_oracle(cdf, cap, p0, rng, size):
    """TruncatedZeta.sample on the full CDF table, with the count clamped
    to the cap."""
    counts = np.minimum(np.searchsorted(cdf, rng.random(size), side="right") + 1, cap)
    return np.where(rng.random(size) < p0, 0, counts) if p0 else counts


class TestZetaLaw:
    """The zeta law is built a chunk at a time and must equal, bit for
    bit, what the full float64 tables give."""

    @settings(max_examples=30, deadline=None)
    @given(s=st.floats(1.01, 12.0), p0=st.sampled_from([0.0, 0.35, 0.9]),
           cap=st.sampled_from([1, 8, 2**14 - 1, 2**14, 2**14 + 1, 10**6]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_full_tables(self, s, p0, cap, seed):
        pmf, cdf = zeta_tables_oracle(s, cap)
        law = TruncatedZeta(s, cap, p0)
        ks = np.arange(1, cap + 1, dtype=float)
        assert law.mean == (1.0 - p0) * float((pmf * ks).sum())
        assert law.pmf(0) == p0
        assert law.pmf(1) == (1.0 - p0) * float(pmf[0])
        assert law.pmf(cap) == (1.0 - p0) * float(pmf[-1])
        assert law.pmf(cap + 1) == 0.0
        draws = law.sample(np.random.default_rng(seed), 500)
        assert np.array_equal(draws, _zeta_sample_oracle(cdf, cap, p0,
                                                         np.random.default_rng(seed), 500))
        kept = np.unique(cdf)
        u = np.concatenate([kept, np.nextafter(kept, 0), np.nextafter(kept, 2)])
        assert np.array_equal(law.sample(_FixedDraws(u), len(u)),
                              _zeta_sample_oracle(cdf, cap, p0, _FixedDraws(u), len(u)))
        pointproc._zeta_cdf.cache_clear()  # hold no large CDF between examples

    @pytest.mark.parametrize("law", [TruncatedZeta(6.0), TruncatedZeta(6.0, p0=0.35),
                                     TruncatedZeta(1.5, 1000), TruncatedZeta(2.0, 50)],
                             ids=["s6", "s6-p0", "s1.5-cap1000", "s2-cap50"])
    def test_top_draw_stays_at_the_cap(self, law):
        # At s = 6 the full CDF ends at 0.9999999999999962, so a draw above
        # it used to give cap + 1.
        draws = law.sample(_FixedDraws(np.full(4, np.nextafter(1.0, 0.0))), 4)
        assert draws.tolist() == [law.cap] * 4

    def test_cdf_at_the_cap_holds_one_table(self):
        # s = 1.5 never flattens at the cap, so the kept CDF is a full
        # table; building it holds that table and the k values of one chunk.
        pointproc._zeta_normaliser.cache_clear()
        pointproc._zeta_cdf.cache_clear()
        tracemalloc.start()
        try:
            cdf = pointproc._zeta_cdf(1.5, MAX_ZETA_CAP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            pointproc._zeta_cdf.cache_clear()
        assert len(cdf) == MAX_ZETA_CAP
        assert peak < cdf.nbytes + 8 * pointproc._ZETA_CHUNK + 8192


class TestSamplePointSet:
    def test_deterministic_one_per_quadrant(self):
        ps = sample_point_set(4, Deterministic(1), "uniform_in_cell",
                              substream(0, "pointset"))
        assert ps.total_points == 4
        assert ps.cell.tolist() == [0, 1, 2, 3]
        _assert_draws_in_their_cells(ps)

    def test_poisson_total_concentrates(self):
        # total over 400 cells is Poisson(400); |T-400| <= 80 this often
        hits = 0
        reps = 200
        for seed in range(reps):
            ps = sample_point_set(400, Poisson(1.0), "uniform_in_cell",
                                  substream(seed, "pointset"))
            hits += abs(ps.total_points - 400) <= 80
        assert hits / reps >= 0.99

    @pytest.mark.parametrize("placement", list(PlacementStrategy))
    def test_containment_exact(self, placement):
        ps = sample_point_set(16, TwoPoint(0.3, 3), placement, substream(9, "pointset"))
        assert ps.points.shape == (len(ps.cell), 2)
        assert (np.diff(ps.cell) >= 0).all()
        if placement is PlacementStrategy.UNIFORM_IN_CELL:
            _assert_draws_in_their_cells(ps)
            return
        for idx, (x, y) in zip(ps.cell.tolist(), ps.points.tolist()):
            assert point_cell(16, x, y) == idx
            x0, x1, y0, y1 = cell_bounds(16, idx)
            assert x0 <= x <= x1 and y0 <= y <= y1

    @pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)], ids=["zero", "top"])
    def test_end_draws_stay_within_an_ulp_of_their_cell(self, u):
        # At u = 0 a draw is its cell's lower-left corner, on which
        # point_cell may name the cell before; one ulp below 1 it lands on
        # or one ulp past the next cell's lower edge on most sides.
        for side in range(2, 301):
            n = side * side
            ps = sample_point_set(n, Deterministic(1), "uniform_in_cell",
                                  _FixedDraws(np.full(2 * n, u)))
            _assert_draws_in_their_cells(ps)
            if u == 0.0:
                r, c = np.divmod(ps.cell, side)
                h = 1.0 / side
                assert np.array_equal(ps.points, np.column_stack([c * h, r * h]))

    def test_top_draw_stays_in_the_outer_cells(self):
        # x0 + u*h with u one ulp below 1 rounds past 1 on the last row or
        # column for some sides (93 among them); inner edges are not checked.
        u = np.nextafter(1.0, 0.0)
        for side in range(2, 301):
            n = side * side
            ps = sample_point_set(n, Deterministic(1), "uniform_in_cell",
                                  _FixedDraws(np.full(2 * n, u)))
            assert ps.points.max() <= 1.0
            for idx in range(side - 1, n, side):  # the last column
                x0, x1, _, _ = cell_bounds(n, idx)
                x, y = ps.points[idx]
                assert x0 <= x <= x1 and point_cell(n, x, y) % side == side - 1
            for idx in range(n - side, n):  # the last row
                _, _, y0, y1 = cell_bounds(n, idx)
                x, y = ps.points[idx]
                assert y0 <= y <= y1 and point_cell(n, x, y) // side == side - 1
            assert point_cell(n, *ps.points[n - 1]) == n - 1
            # the outer ring of cells spans what the whole set does in x and y
            r, c = np.divmod(ps.cell, side)
            ring = (r == 0) | (c == 0) | (r == side - 1) | (c == side - 1)
            assert np.array_equal(np.ptp(ps.points[ring], axis=0), np.ptp(ps.points, axis=0))
            tsp_strip(ps.points[ring], 1.0)

    def test_reproducibility_bytes(self):
        a = sample_point_set(100, Poisson(2.0), "grid_spread", substream(31, "pointset"))
        b = sample_point_set(100, Poisson(2.0), "grid_spread", substream(31, "pointset"))
        assert a.points.tobytes() == b.points.tobytes()
        assert a.cell.tobytes() == b.cell.tobytes()
        c = sample_point_set(100, Poisson(2.0), "grid_spread", substream(32, "pointset"))
        assert (a.points.tobytes(), a.cell.tobytes()) != (c.points.tobytes(), c.cell.tobytes())

    def test_corner_bunch_is_coincident(self):
        ps = sample_point_set(9, Deterministic(3), "corner_bunch", substream(2, "pointset"))
        for idx in range(9):
            rows = ps.points[ps.cell == idx]
            assert len(rows) == 3
            assert len({(x, y) for x, y in rows}) == 1

    def test_adversarial_diagonal_faces_center(self):
        ps = sample_point_set(4, Deterministic(1), "adversarial_diagonal",
                              substream(3, "pointset"))
        assert ps.cell.tolist() == [0, 1, 2, 3]
        for x, y in ps.points:
            # each point sits within a whisker of the cell corner nearest
            # the unit-square center
            assert abs(x - 0.5) < 0.51 and abs(y - 0.5) < 0.51
            assert min(abs(x - b) for b in (0.0, 0.5, 1.0)) < 1e-6
            assert min(abs(y - b) for b in (0.0, 0.5, 1.0)) < 1e-6

    def test_rejects_non_square(self):
        with pytest.raises(InvalidArgumentError):
            sample_point_set(12, Deterministic(1), "uniform_in_cell",
                             substream(0, "pointset"))

    @given(st.integers(min_value=2, max_value=30), st.sampled_from(_COUNT_LAWS),
           st.sampled_from(list(PlacementStrategy)), st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_matches_loop_oracle(self, side, counts, placement, seed):
        ps = sample_point_set(side * side, counts, placement, substream(seed, "pointset"))
        cells = sample_point_set_oracle(side * side, counts, placement, seed)
        expected = np.vstack([np.empty((0, 2))] + cells)
        assert ps.points.dtype == expected.dtype and ps.points.shape == expected.shape
        assert ps.points.tobytes() == expected.tobytes()
        assert ps.cell.tolist() == [idx for idx, c in enumerate(cells) for _ in c]
        assert ps.total_points == len(expected)

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_containment_property(self, side, seed):
        n = side * side
        ps = sample_point_set(n, Poisson(1.5), "uniform_in_cell",
                              substream(seed, "pointset"))
        assert (np.diff(ps.cell) >= 0).all()
        _assert_draws_in_their_cells(ps)

