import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (best_random_permutation_tour, mst_prim_oracle, mst_weight_brute,
                      run_python, tour_length_oracle, tsp_2opt_oracle)
from tailbounds import euclid
from tailbounds.errors import InvalidArgumentError, SizeLimitError
from tailbounds.euclid import (
    STRIP_TOUR_COEFF,
    STRIP_TOUR_OFFSET,
    Tour,
    mst_weight,
    tour_length,
    tsp_2opt,
    tsp_exact,
    tsp_strip,
)
from tailbounds.harness.rng import substream
from tailbounds.pointproc import PlacementStrategy, Poisson, TruncatedZeta, sample_point_set


class TestTspExact:
    def test_right_triangle(self):
        tour = tsp_exact([(0, 0), (3, 0), (0, 4)])
        assert tour.length == pytest.approx(12.0)

    def test_unit_square(self):
        tour = tsp_exact([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert tour.length == pytest.approx(4.0)
        assert tour.order.tolist() == [0, 1, 2, 3]  # lexicographically smallest

    def test_beats_random_permutations(self):
        rng = np.random.default_rng(17)
        points = rng.random((8, 2))
        exact = tsp_exact(points)
        oracle = best_random_permutation_tour(points, trials=10000, rng=rng)
        assert exact.length <= oracle + 1e-12

    def test_length_recomputable(self):
        rng = np.random.default_rng(3)
        points = rng.random((9, 2))
        tour = tsp_exact(points)
        assert tour.length == pytest.approx(tour_length(points, tour.order),
                                            rel=1e-12)

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            tsp_exact(np.zeros((14, 2)))

    def test_degenerate_sizes(self):
        assert tsp_exact([(0.3, 0.4)]).length == 0.0
        assert tsp_exact([(0, 0), (0, 2)]).length == pytest.approx(4.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_monotone_under_insertion(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.random((9, 2))
        base = tsp_exact(points[:-1]).length
        grown = tsp_exact(points).length
        assert grown >= base - 1e-12

    def test_deterministic_tie_break(self):
        # four corners admit many optimal tours; the smallest order wins
        points = [(0, 0), (0, 1), (1, 0), (1, 1)]
        tour = tsp_exact(points)
        assert tour.order.tolist() == [0, 1, 3, 2]

    def test_tour_at_the_tolerance_counts_as_optimal(self):
        # Here the completion of the lexicographically first optimal order,
        # summed from the other end, is one ulp above the optimum: rounding
        # within the tolerance still counts.
        points = [(0.58, 0.72), (0.48, 0.58), (0.33, 0.74), (0.24, 0.16), (0.09, 0.9)]
        tour = tsp_exact(points)
        assert tour.order.tolist() == [0, 1, 3, 4, 2]
        assert tour.length == pytest.approx(tour_length_oracle(points, [0, 1, 3, 4, 2]),
                                            rel=1e-15)

    def test_tour_past_the_tolerance_is_not_optimal(self):
        # On a line, 0 -> 1 -> 2 -> 3 -> 0 runs back over the 1.5e-9 gap
        # between cities 2 and 1, so it is 3e-9 longer than the optimum
        # 2.0: the first optimal order goes out to city 3 before city 2.
        points = [(0.0, 0.0), (0.2500000014999999, 0.0), (0.25, 0.0), (1.0, 0.0)]
        tour = tsp_exact(points)
        assert tour.order.tolist() == [0, 1, 3, 2]
        assert tour.length == 2.0
        assert tour_length_oracle(points, [0, 1, 3, 2]) == pytest.approx(2.0, rel=1e-15)


class TestTspStrip:
    def test_single_point(self):
        tour = tsp_strip([(0.2, 0.7)], alpha=1.0)
        assert tour.length == 0.0

    def test_four_corners_of_alpha_square(self):
        alpha = 2.5
        pts = [(0, 0), (alpha, 0), (alpha, alpha), (0, alpha)]
        tour = tsp_strip(pts, alpha)
        assert tour.length <= 3 * alpha * 2 + 2 * alpha

    def test_large_uniform_cloud(self):
        rng = np.random.default_rng(5)
        pts = rng.random((10000, 2))
        tour = tsp_strip(pts, 1.0)
        assert tour.length <= STRIP_TOUR_COEFF * 100 + STRIP_TOUR_OFFSET
        improved = tsp_2opt(pts, tour, max_passes=1)
        assert improved.length <= tour.length + 1e-9

    @given(st.integers(min_value=0, max_value=400), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_certificate_property(self, s, seed):
        rng = np.random.default_rng(seed)
        alpha = float(rng.uniform(0.1, 5.0))
        pts = rng.random((s, 2)) * alpha
        tour = tsp_strip(pts, alpha)  # asserts its own certificate
        assert tour.length <= STRIP_TOUR_COEFF * alpha * math.sqrt(max(s, 1)) \
            + STRIP_TOUR_OFFSET * alpha + 1e-9

    @pytest.mark.parametrize("axis", [0, 1])
    def test_points_beyond_the_square_are_refused(self, axis):
        # one axis spans [0, 10], the other [0, 1]: no certificate holds
        pts = np.random.default_rng(3).random((50, 2))
        pts[:, axis] *= 10
        extent = float(np.ptp(pts[:, axis]))
        with pytest.raises(InvalidArgumentError) as err:
            tsp_strip(pts, 1.0)
        assert f"points span {extent} in x or y, above alpha = 1.0" in str(err.value)

    def test_certificate_is_checked_under_optimisation(self):
        # python -O drops assert statements; the certificate check must stay.
        # A coefficient cut to 0.1 puts every tour of 50 points above it
        code = ("import numpy as np; from tailbounds import euclid; "
                "euclid.STRIP_TOUR_COEFF = 0.1; "
                "euclid.tsp_strip(np.random.default_rng(3).random((50, 2)), 1.0)")
        exit_code, _, err = run_python("-O", "-c", code)
        assert exit_code == 1
        assert "RuntimeError: strip tour length" in err
        assert "exceeded its certificate" in err

    def test_adversarial_rows(self):
        # points stacked on strip boundaries at both x extremes
        alpha = 1.0
        s = 64
        k = math.isqrt(s)
        pts = []
        for band in range(k):
            y = band / k + 1e-6
            for j in range(k):
                pts.append((j / (k - 1), y + (j % 2) * (1.0 / k - 2e-6)))
        tour = tsp_strip(pts[:s], alpha)
        assert tour.length <= 3 * alpha * math.sqrt(s) + 2 * alpha


class TestTsp2opt:
    def test_convex_position_unchanged(self):
        pts = [(math.cos(a), math.sin(a)) for a in np.linspace(0, 2 * math.pi, 9)[:-1]]
        start = Tour.of(pts, list(range(8)))
        improved = tsp_2opt(pts, start)
        assert improved.length == pytest.approx(start.length)
        assert improved.order.tolist() == list(range(8))

    def test_uncrosses_quadrilateral(self):
        pts = [(0, 0), (1, 1), (1, 0), (0, 1)]  # order 0-1-2-3 self-crosses
        start = Tour.of(pts, [0, 1, 2, 3])
        improved = tsp_2opt(pts, start, max_passes=1)
        assert improved.length == pytest.approx(4.0)

    def test_never_worse_than_start(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pts = rng.random((40, 2))
            start = tsp_strip(pts, 1.0)
            improved = tsp_2opt(pts, start)
            assert improved.length <= start.length + 1e-9

    def test_close_to_exact_on_small_instances(self):
        close = 0
        total = 500
        for seed in range(total):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(5, 11))
            pts = rng.random((n, 2))
            exact = tsp_exact(pts)
            heur = tsp_2opt(pts, tsp_strip(pts, 1.0))
            assert heur.length >= exact.length - 1e-9
            if heur.length <= exact.length * 1.05:
                close += 1
        assert close / total >= 0.95

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        pts = rng.random((60, 2))
        start = tsp_strip(pts, 1.0)
        a = tsp_2opt(pts, start)
        b = tsp_2opt(pts, start)
        assert a.order.tolist() == b.order.tolist()


class TestMst:
    def test_two_points(self):
        assert mst_weight([(0, 0), (3, 4)]).weight == pytest.approx(5.0)

    def test_triangle_plus_center_non_monotone(self):
        side = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]
        without = mst_weight(side).weight
        with_center = mst_weight(side + [(0.5, math.sqrt(3) / 6)]).weight
        assert without == pytest.approx(2.0)
        assert with_center == pytest.approx(math.sqrt(3))
        assert with_center < without  # adding a point lowered the weight

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pruefer_brute_force(self, seed):
        rng = np.random.default_rng(40 + seed)
        pts = rng.random((7, 2))
        assert mst_weight(pts).weight == pytest.approx(mst_weight_brute(pts),
                                                       rel=1e-12)

    def test_tree_shape(self):
        rng = np.random.default_rng(8)
        pts = rng.random((25, 2))
        tree = mst_weight(pts)
        assert len(tree.edges) == 24
        seen = {0}
        for u, v in tree.edges:
            assert (u in seen) != (v in seen) or (u in seen and v in seen)
            seen.update((u, v))
        assert seen == set(range(25))
        d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
        assert tree.weight == pytest.approx(sum(d[u, v] for u, v in tree.edges))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coordinates(self, bad):
        pts = np.array([(0.0, 0.0), (0.5, 0.5), (1.0, 0.0)])
        pts[1, 1] = bad
        with pytest.raises(InvalidArgumentError, match="finite"):
            mst_weight(pts)


class TestPermutationInvariance:
    @pytest.mark.parametrize("seed", range(4))
    def test_functionals_ignore_point_order(self, seed):
        rng = np.random.default_rng(70 + seed)
        pts = rng.random((9, 2))
        perm = rng.permutation(9)
        shuffled = pts[perm]
        assert tsp_exact(pts).length == pytest.approx(tsp_exact(shuffled).length)
        assert mst_weight(pts).weight == pytest.approx(mst_weight(shuffled).weight)
        assert tsp_strip(pts, 1.0).length == pytest.approx(
            tsp_strip(shuffled, 1.0).length)


def _assert_same_tour(points, start, max_passes):
    got = tsp_2opt(points, start, max_passes=max_passes)
    want = tsp_2opt_oracle(points, start, max_passes=max_passes)
    assert got.order.tolist() == want.order.tolist()
    assert got.length == want.length


def _assert_same_tree(points):
    got = mst_weight(points)
    want = mst_prim_oracle(points)
    assert got.edges == want.edges
    assert got.weight == want.weight


def _start(points, rng, strip):
    if strip:
        return tsp_strip(points, 1.0)
    return Tour.of(points, rng.permutation(len(points)))


_PASSES = st.sampled_from([0, 1, 2, 40])
_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


class TestCoordinateSolversMatchDenseOracles:
    """tsp_2opt and mst_weight work on coordinates; the dense-matrix
    versions in conftest are their oracles, and they must agree exactly."""

    @given(st.integers(min_value=4, max_value=400), _SEEDS, _PASSES, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_uniform_clouds(self, n, seed, max_passes, strip):
        rng = np.random.default_rng(seed)
        pts = rng.random((n, 2))
        _assert_same_tour(pts, _start(pts, rng, strip), max_passes)
        _assert_same_tree(pts)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=4,
                    max_size=150), _SEEDS, _PASSES, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_coincident_lattice_points(self, cells, seed, max_passes, strip):
        # at most 16 distinct sites, so most edges have length zero
        rng = np.random.default_rng(seed)
        pts = np.array(cells, dtype=float) / 4.0
        _assert_same_tour(pts, _start(pts, rng, strip), max_passes)
        _assert_same_tree(pts)

    @pytest.mark.parametrize("placement", [PlacementStrategy.CORNER_BUNCH,
                                           PlacementStrategy.ADVERSARIAL_DIAGONAL])
    @pytest.mark.parametrize("seed", range(3))
    def test_stacked_placements(self, placement, seed):
        for n_cells, counts in [(16, Poisson(6.0)), (100, TruncatedZeta(2.0, 40, 0.35))]:
            pts = sample_point_set(n_cells, counts, placement,
                                   substream(seed, "pointset")).points
            _assert_same_tour(pts, tsp_strip(pts, 1.0), 40)
            _assert_same_tree(pts)

    @given(st.integers(min_value=4, max_value=200), _SEEDS, _PASSES, st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_collinear_points(self, n, seed, max_passes, strip):
        rng = np.random.default_rng(seed)
        t = rng.random(n)
        if n % 2:
            t = np.round(t * 8) / 8  # repeated positions on the line
        direction = rng.random(2)
        pts = rng.random(2) * 0.2 + t[:, None] * direction / direction.sum() * 0.8
        _assert_same_tour(pts, _start(pts, rng, strip), max_passes)
        _assert_same_tree(pts)

    @pytest.mark.parametrize("max_passes", [0, 1, 2, 40])
    def test_every_pass_count(self, max_passes):
        rng = np.random.default_rng(12)
        pts = rng.random((150, 2))
        _assert_same_tour(pts, _start(pts, rng, strip=False), max_passes)

    @pytest.mark.parametrize("max_passes", [1, 2])
    def test_entry_cap_binds(self, max_passes):
        # past 2048 points the early rows' blocks are cut by
        # _SWEEP_BLOCK_ENTRIES, not by _SWEEP_BLOCK_CAP
        rng = np.random.default_rng(23)
        pts = rng.random((2300, 2))
        assert euclid._SWEEP_BLOCK_ENTRIES // len(pts) < euclid._SWEEP_BLOCK_CAP
        _assert_same_tour(pts, tsp_strip(pts, 1.0), max_passes)

    @pytest.mark.parametrize("n_cells", [100, 400, 900])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tsp_scale_instances(self, n_cells, seed):
        pts = sample_point_set(n_cells, Poisson(1.0), PlacementStrategy.UNIFORM_IN_CELL,
                               substream(seed, "pointset")).points
        _assert_same_tour(pts, tsp_strip(pts, 1.0), 40)
        _assert_same_tree(pts)

    @pytest.mark.parametrize("n_cells", [400, 900])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_heavy_tail_corner_bunch(self, monkeypatch, n_cells, seed):
        # the law of the mst-heavytail benchmark: copies stacked on cell
        # corners, so sites on a lattice with holes and many tied distances.
        # The radius graph serves every instance: a graph that refuses (a
        # self-pair at distance 0, say) must not hide behind the row scan
        def no_row_scan(pts):
            pytest.fail("mst_weight fell back to the row scan")

        monkeypatch.setattr(euclid, "_mst_rows", no_row_scan)
        pts = sample_point_set(n_cells, TruncatedZeta(6.0, p0=0.35),
                               PlacementStrategy.CORNER_BUNCH,
                               substream(seed, "pointset")).points
        _assert_same_tree(pts)

    @given(st.integers(min_value=1, max_value=40), st.floats(0.02, 1.0),
           st.floats(0.0, 0.5), _SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_lattices_with_holes_and_copies(self, k, occupancy, copied, seed):
        # sites on a k x k lattice of spacing 1/k: few distance levels, so
        # many tied keys; at low occupancy the first radius graph often
        # falls apart and R doubles
        rng = np.random.default_rng(seed)
        keep = np.flatnonzero(rng.random(k * k) < occupancy)
        keep = keep if len(keep) else np.array([0])
        copies = 1 + (rng.random(len(keep)) < copied) * rng.geometric(0.5, len(keep))
        cell = rng.permutation(np.repeat(keep, copies))
        _assert_same_tree(np.column_stack(np.divmod(cell, k)) / k)

    @pytest.mark.parametrize("n_cells", [400, 900])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_adversarial_diagonal_ties(self, n_cells, seed):
        # stacked sites one float apart across x = 0.5 and y = 0.5: float
        # ties that do not follow the exact geometry
        pts = sample_point_set(n_cells, Poisson(1.0),
                               PlacementStrategy.ADVERSARIAL_DIAGONAL,
                               substream(seed, "pointset")).points
        _assert_same_tree(pts)


class TestMstPaths:
    """mst_weight's radius-graph retry and its row-scan fallback, each
    checked exactly against the dense oracle."""

    @staticmethod
    def _graph_calls(monkeypatch):
        """(sites, radius, over budget or refused) per radius graph built."""
        calls = []
        real = euclid._radius_graph

        def spy(x, y, r):
            out = real(x, y, r)
            calls.append((len(x), r, out is None))
            return out

        monkeypatch.setattr(euclid, "_radius_graph", spy)
        return calls

    @pytest.mark.parametrize("seed", range(3))
    def test_clusters_apart_force_retry(self, monkeypatch, seed):
        # two 10 x 10 lattices of spacing 1/8, many tied edges, 3/8 apart
        # and 1/16 out of step, so each site of the left column of the
        # second has two exactly tied nearest sites in the first: the
        # starting R (about 0.25) connects each lattice but not the two
        i, j = np.meshgrid(np.arange(10), np.arange(10))
        lattice = np.column_stack([i.ravel(), j.ravel()]) / 8
        pts = np.vstack([lattice, lattice + [1.5, 1 / 16]])
        pts = pts[np.random.default_rng(seed).permutation(len(pts))]
        graphs = self._graph_calls(monkeypatch)
        _assert_same_tree(pts)
        # the first graph leaves the lattices apart, the second, at 2R, joins them
        (m0, r0, refused0), (m1, r1, refused1) = graphs
        assert (m0, m1, r1, refused0, refused1) == (200, 200, 2 * r0, False, False)

    @given(st.integers(min_value=2, max_value=300), st.sampled_from([1, 2, 5, 64]), _SEEDS,
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_shift_slices_give_one_graph(self, n, shift_slice, seed, lattice):
        # A shift tested a few candidates at a time gives the graph of one
        # pass, bit for bit: every site pair within r once from each end,
        # at its rank among the distinct distances (lattices tie many).
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, 12, (n, 2)) / 12 if lattice else rng.random((n, 2))
        x, y = np.unique(pts, axis=0).T
        m, r = len(x), 0.2
        whole = euclid._radius_graph(x, y, r)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(euclid, "_SHIFT_SLICE", shift_slice)
            sliced = euclid._radius_graph(x, y, r)
        if whole is None:
            assert sliced is None
            return
        ptr, key, levels = whole
        assert ptr == sliced[0]
        assert key.dtype == sliced[1].dtype == np.int64 and key.tolist() == sliced[1].tolist()
        assert levels.tolist() == sliced[2].tolist()
        d = euclid._dist(x[:, None], y[:, None], x[None, :], y[None, :])
        close = (d <= r) & ~np.eye(m, dtype=bool)
        assert levels.tolist() == np.unique(d[close]).tolist()
        tails = np.repeat(np.arange(m), np.diff(ptr))
        u, v = np.nonzero(close)
        assert sorted(zip(tails.tolist(), levels[key // m].tolist(), (key % m).tolist())) == \
            sorted(zip(u.tolist(), d[u, v].tolist(), v.tolist()))

    def test_over_budget_falls_back_to_rows(self, monkeypatch):
        # 250 points in a 1e-3 square share one bucket: at least 250 x 249
        # candidate pairs, over the budget of 192 x 300 = 57600
        rng = np.random.default_rng(9)
        pts = np.vstack([rng.random((250, 2)) * 1e-3 + 0.5, rng.random((50, 2))])
        pts = pts[rng.permutation(len(pts))]
        graphs = self._graph_calls(monkeypatch)
        _assert_same_tree(pts)
        assert [(m, refused) for m, _, refused in graphs] == [(300, True)]

    def test_distinct_sites_at_distance_zero_fall_back_to_rows(self, monkeypatch):
        # (0, 0) and (1e-200, 0) are distinct sites, but the square of 1e-200
        # underflows: dense Prim takes point 2 before point 4, the copy of 1
        pts = np.array([(0.5, 0.5), (0.0, 0.0), (1e-200, 0.0), (1.0, 1.0), (0.0, 0.0)])
        graphs = self._graph_calls(monkeypatch)
        _assert_same_tree(pts)
        assert [(m, refused) for m, _, refused in graphs] == [(4, True)]
        assert mst_weight(pts).edges == [(0, 1), (1, 2), (1, 4), (0, 3)]


def test_solvers_memory_is_linear_in_points():
    # one s x s float64 matrix of 10^4 points would take 800 MB; in two tight
    # clusters the bucket grid of mst_weight would see 5e7 candidate pairs,
    # so its budget must be checked before any pair array exists.  The 2-opt
    # sweep computes 2^17-entry distance blocks in buffers it allocates once
    # (3.6 MiB here); 64-row blocks would need buffers of about 1.1 KB a
    # point, 10.5 MiB here.
    rng = np.random.default_rng(5)
    pts = rng.random((10_000, 2))
    clusters = np.vstack([rng.random((5000, 2)) * 1e-3 + 0.1,
                          rng.random((5000, 2)) * 1e-3 + 0.9])
    start = tsp_strip(pts, 1.0)
    tracemalloc.start()
    try:
        tsp_2opt(pts, start, max_passes=1)
        _, sweep_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        mst_weight(pts)
        mst_weight(clusters)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sweep_peak < 8 * 2**20
    assert peak < 64 * 2**20


def test_mst_memory_at_the_pair_cap(monkeypatch):
    # 10700 points packed into a square of side 0.432 and joined to (1, 1)
    # by a chain: about 1.9e6 candidate pairs, within 10% of the cap, most
    # of them within R, so G_R is about as large as the cap admits
    rng = np.random.default_rng(1)
    chain = np.linspace(0.432, 1.0, 200)[:, None].repeat(2, axis=1)
    pts = np.vstack([rng.random((10_700, 2)) * 0.432, chain])
    monkeypatch.setattr(euclid, "_mst_rows", lambda pts: None)   # no row scan
    tracemalloc.start()
    try:
        tree = mst_weight(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tree.edges) == len(pts) - 1
    assert peak < 12 * euclid._MAX_PAIRS   # 23.2 MB traced on CPython 3.11, numpy 2.4
    monkeypatch.setattr(euclid, "_MAX_PAIRS", int(0.9 * euclid._MAX_PAIRS))
    assert mst_weight(pts) is None   # over the cap: rows


def test_tour_validates_permutation():
    with pytest.raises(InvalidArgumentError):
        Tour(order=np.array([0, 0, 1]), length=1.0)
