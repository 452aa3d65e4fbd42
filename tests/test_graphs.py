import numpy as np
import pytest

from conftest import chromatic_brute, mad_brute
from tailbounds import graphs
from tailbounds.errors import InvalidArgumentError, SizeLimitError
from tailbounds.graphs import (
    EdgeProbabilityMatrix,
    Graph,
    chromatic_exact,
    chromatic_greedy,
    mad,
    mad_realized,
    sample_graph,
)
from tailbounds.harness.rng import substream


def petersen():
    adj = np.zeros((10, 10), dtype=bool)
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
             (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return Graph(adj=adj)


def cycle_adj(n):
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = True
    return adj


class TestSampleGraph:
    def test_complete(self):
        g = sample_graph(EdgeProbabilityMatrix.uniform(6, 1.0), substream(0, "graph"))
        assert g.adj.sum() == 6 * 5

    def test_empty(self):
        g = sample_graph(EdgeProbabilityMatrix.uniform(6, 0.0), substream(0, "graph"))
        assert g.adj.sum() == 0

    def test_edge_frequency(self):
        P = EdgeProbabilityMatrix.uniform(20, 0.5)
        count = np.zeros((20, 20))
        reps = 2000
        for seed in range(reps):
            count += sample_graph(P, substream(seed, "graph")).adj
        freq = count[np.triu_indices(20, 1)] / reps
        # binomial CI: 0.5 +/- ~4.5 sigma at 2000 draws
        assert freq.min() > 0.44 and freq.max() < 0.56

    def test_deterministic_in_seed(self):
        P = EdgeProbabilityMatrix.uniform(12, 0.3)
        five, six = (sample_graph(P, substream(seed, "graph")).adj for seed in (5, 6))
        assert (five == sample_graph(P, substream(5, "graph")).adj).all()
        assert (five != six).any()

    def test_matrix_validation(self):
        with pytest.raises(InvalidArgumentError):
            EdgeProbabilityMatrix(np.array([[0.0, 0.5], [0.4, 0.0]]))
        with pytest.raises(InvalidArgumentError):
            EdgeProbabilityMatrix(np.array([[0.1, 0.5], [0.5, 0.0]]))
        with pytest.raises(InvalidArgumentError):
            EdgeProbabilityMatrix(np.array([[0.0, 1.5], [1.5, 0.0]]))


class TestChromaticExact:
    def test_complete_graph(self):
        g = sample_graph(EdgeProbabilityMatrix.uniform(5, 1.0), substream(0, "graph"))
        assert chromatic_exact(g) == 5

    def test_odd_cycle(self):
        assert chromatic_exact(Graph(adj=cycle_adj(5))) == 3

    def test_petersen(self):
        assert chromatic_exact(petersen()) == 3

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        p = float(rng.uniform(0.1, 0.9))
        g = sample_graph(EdgeProbabilityMatrix.uniform(n, p), substream(seed, "graph"))
        assert chromatic_exact(g) == chromatic_brute(g.adj)
        # the zero-vertex graph, and sizes 0-15 at any density
        assert chromatic_exact(Graph(adj=np.zeros((0, 0), dtype=bool))) == 0
        n = int(rng.integers(0, 16))
        g = sample_graph(EdgeProbabilityMatrix.uniform(n, float(rng.uniform(0.05, 0.95))),
                         substream(seed, "graph"))
        assert chromatic_exact(g) == chromatic_brute(g.adj)

    def test_size_cap(self):
        g = Graph(adj=np.zeros((31, 31), dtype=bool))
        with pytest.raises(SizeLimitError):
            chromatic_exact(g)

    def test_empty_graph(self):
        assert chromatic_exact(Graph(adj=np.zeros((4, 4), dtype=bool))) == 1

    def test_time_budget(self, monkeypatch):
        # The join of the Groetzsch graph (the Mycielskian of C5) and two
        # 7-cycles: clique number 2 + 2 + 2, chromatic number 4 + 3 + 3, and
        # about 6000 branch-and-bound nodes, past a budget of 2048.
        c5, c7 = cycle_adj(5), cycle_adj(7)
        n = 5
        groetzsch = np.zeros((2 * n + 1, 2 * n + 1), dtype=bool)
        groetzsch[:n, :n] = groetzsch[:n, n:2 * n] = groetzsch[n:2 * n, :n] = c5
        groetzsch[n:2 * n, 2 * n] = groetzsch[2 * n, n:2 * n] = True
        adj = np.ones((25, 25), dtype=bool)
        for lo, part in ((0, groetzsch), (11, c7), (18, c7)):
            adj[lo:lo + len(part), lo:lo + len(part)] = part
        np.fill_diagonal(adj, False)
        g = Graph(adj=adj)
        assert chromatic_exact(g) == 10
        monkeypatch.setattr(graphs, "CHROMATIC_NODE_BUDGET", 2048)
        with pytest.raises(SizeLimitError, match="node budget of 2048"):
            chromatic_exact(g)


class TestChromaticGreedy:
    def test_complete_four(self):
        g = sample_graph(EdgeProbabilityMatrix.uniform(4, 1.0), substream(0, "graph"))
        assert chromatic_greedy(g) == 4

    def test_empty(self):
        assert chromatic_greedy(Graph(adj=np.zeros((5, 5), dtype=bool))) == 1

    @pytest.mark.parametrize("seed", range(30))
    def test_sandwich(self, seed):
        g = sample_graph(EdgeProbabilityMatrix.uniform(12, 0.5), substream(seed, "graph"))
        exact = chromatic_exact(g)
        rng = np.random.default_rng(seed)
        greedy = chromatic_greedy(g, order=rng.permutation(12).tolist())
        assert exact <= greedy <= g.max_degree + 1

    def test_rejects_non_permutation(self):
        g = Graph(adj=np.zeros((3, 3), dtype=bool))
        with pytest.raises(InvalidArgumentError):
            chromatic_greedy(g, order=[0, 0, 1])


class TestMad:
    def test_complete(self):
        # ordered-pair convention: the full vertex set gives n-1
        for n in (3, 5, 8):
            assert mad(EdgeProbabilityMatrix.uniform(n, 1.0)) == pytest.approx(n - 1)

    def test_single_pair(self):
        p = np.zeros((4, 4))
        p[0, 1] = p[1, 0] = 1.0
        assert mad(EdgeProbabilityMatrix(p)) == pytest.approx(1.0)

    def test_zero_matrix(self):
        assert mad(EdgeProbabilityMatrix(np.zeros((5, 5)))) == 0.0

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_subset_brute_force(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(4, 13))
        p = np.triu(rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.6), 1)
        p = p + p.T
        P = EdgeProbabilityMatrix(p)
        assert mad(P) == pytest.approx(mad_brute(p), abs=1e-9)

    def test_matches_brute_force_n15(self):
        rng = np.random.default_rng(321)
        p = np.triu(rng.uniform(0, 1, (15, 15)), 1)
        p = p + p.T
        assert mad(EdgeProbabilityMatrix(p)) == pytest.approx(mad_brute(p), abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_monotone_under_entrywise_increase(self, seed):
        rng = np.random.default_rng(500 + seed)
        n = 10
        p = np.triu(rng.uniform(0, 0.5, (n, n)), 1)
        p = p + p.T
        bump = np.triu(rng.uniform(0, 0.4, (n, n)), 1)
        q = np.clip(p + bump + bump.T, 0, 1)
        np.fill_diagonal(q, 0.0)
        assert mad(EdgeProbabilityMatrix(q)) >= mad(EdgeProbabilityMatrix(p)) - 1e-9

    def test_two_block_at_cap_in_few_cuts(self, monkeypatch):
        # The first 66 vertices, at p_in = 0.7, are the densest subset:
        # adding any outside vertex brings 13.2 ordered-pair weight, below
        # the 45.5 a vertex must bring.  Dinkelbach's iteration reaches it
        # from the full vertex set in two cuts.
        n = graphs.MAD_MAX_N
        p = np.full((n, n), 0.1)
        p[:66, :66] = 0.7
        np.fill_diagonal(p, 0.0)
        cuts = []
        densest_feasible = graphs._densest_feasible

        def counted(*args):
            cuts.append(args)
            return densest_feasible(*args)

        monkeypatch.setattr(graphs, "_densest_feasible", counted)
        assert mad(EdgeProbabilityMatrix(p)) == pytest.approx(65 * 0.7, abs=1e-9)
        assert len(cuts) <= 3

    @pytest.mark.parametrize("seed", range(15))
    def test_chromatic_mad_degeneracy_bound(self, seed):
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(4, 13))
        g = sample_graph(EdgeProbabilityMatrix.uniform(n, float(rng.uniform(0.2, 0.8))),
                         substream(seed, "graph"))
        chi = chromatic_exact(g)
        assert chi <= int(mad_realized(g)) + 1
