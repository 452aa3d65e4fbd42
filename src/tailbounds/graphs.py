"""Inhomogeneous random graphs, chromatic number, and the maximum average
degree of an edge-probability matrix.

mad() maximizes sum_{i,j in U} p_ij / |U| over vertex subsets, where the
double sum runs over ordered pairs (each unordered edge counts twice); the
brute-force oracle in the tests uses the same convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, SizeLimitError

__all__ = ["EdgeProbabilityMatrix", "Graph", "sample_graph", "chromatic_exact",
           "chromatic_greedy", "mad", "mad_realized"]

CHROMATIC_EXACT_CAP = 30
# Branch-and-bound nodes chromatic_exact may visit: a count, not a clock, so
# an exit code does not depend on host load.  A 2-vCPU host visits 30k to
# 44k nodes a second (G(60, 0.5): about 342k nodes in 7.7 s).
CHROMATIC_NODE_BUDGET = 2**19
MAD_MAX_N = 200


@dataclass
class EdgeProbabilityMatrix:
    """Symmetric matrix of edge probabilities with zero diagonal."""

    p: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        n = self.p.shape[0]
        if self.p.shape != (n, n):
            raise InvalidArgumentError("p must be square")
        # Written so that NaN, which fails every comparison, is out of range.
        if not np.all((self.p >= 0) & (self.p <= 1)):
            raise InvalidArgumentError("entries must lie in [0, 1]")
        if not np.allclose(self.p, self.p.T, atol=1e-12):
            raise InvalidArgumentError("p must be symmetric")
        if np.any(np.diag(self.p) != 0):
            raise InvalidArgumentError("p must have a zero diagonal")
        self.p = (self.p + self.p.T) / 2.0

    @property
    def n(self):
        return self.p.shape[0]

    @property
    def mean_probability(self):
        n = self.n
        if n < 2:
            return 0.0
        return float(np.triu(self.p, 1).sum() / (n * (n - 1) / 2))

    @classmethod
    def uniform(cls, n, prob):
        p = np.full((n, n), float(prob))
        np.fill_diagonal(p, 0.0)
        return cls(p)


@dataclass
class Graph:
    """Undirected loop-free graph with boolean adjacency."""

    adj: np.ndarray

    def __post_init__(self):
        self.adj = np.asarray(self.adj, dtype=bool)
        n = self.adj.shape[0]
        if self.adj.shape != (n, n):
            raise InvalidArgumentError("adjacency must be square")
        if not (self.adj == self.adj.T).all() or self.adj.diagonal().any():
            raise InvalidArgumentError("adjacency must be symmetric and loop-free")

    @property
    def n(self):
        return self.adj.shape[0]

    @property
    def max_degree(self):
        return int(self.adj.sum(axis=1).max()) if self.n else 0

    def neighbor_masks(self):
        masks = []
        for i in range(self.n):
            m = 0
            for j in np.flatnonzero(self.adj[i]):
                m |= 1 << int(j)
            masks.append(m)
        return masks


def sample_graph(P: EdgeProbabilityMatrix, rng):
    """Each edge present independently with probability p_ij, drawn from
    the Generator rng."""
    n = P.n
    u = rng.random((n, n))
    upper = np.triu(u < P.p, 1)
    return Graph(adj=upper | upper.T)


def chromatic_greedy(G: Graph, order=None):
    """First-fit coloring along the given vertex order; at most maxdeg+1."""
    n = G.n
    if n == 0:
        return 0
    if order is None:
        order = range(n)
    order = list(order)
    if sorted(order) != list(range(n)):
        raise InvalidArgumentError("order must be a permutation of the vertices")
    color = [-1] * n
    used = 0
    for v in order:
        taken = {color[u] for u in np.flatnonzero(G.adj[v]) if color[u] >= 0}
        c = 0
        while c in taken:
            c += 1
        color[v] = c
        used = max(used, c + 1)
    return used


def _greedy_clique(masks, n):
    best = 0
    order = sorted(range(n), key=lambda v: -bin(masks[v]).count("1"))
    for start in order[: min(n, 8)]:
        clique = [start]
        common = masks[start]
        while common:
            v = max(
                (u for u in range(n) if common >> u & 1),
                key=lambda u: bin(common & masks[u]).count("1"),
            )
            clique.append(v)
            common &= masks[v]
        best = max(best, len(clique))
    return best


def chromatic_exact(G: Graph):
    """Exact chromatic number by DSATUR branch and bound.

    The search colours the uncoloured vertex of most saturated colours
    (ties: higher degree, then lower index) with each colour in ascending
    order, so its first leaf is the DSATUR colouring.  It stops when the
    best colouring reaches the greedy clique bound.

    Raises SizeLimitError above CHROMATIC_EXACT_CAP vertices or when the
    branch and bound visits more than CHROMATIC_NODE_BUDGET nodes, so
    callers never silently get a heuristic value.
    """
    n = G.n
    if n > CHROMATIC_EXACT_CAP:
        raise SizeLimitError(f"exact coloring capped at {CHROMATIC_EXACT_CAP} vertices, "
                             f"got {n}")
    masks = G.neighbor_masks()
    lb = _greedy_clique(masks, n)
    budget = CHROMATIC_NODE_BUDGET
    best = n + 1
    color = [-1] * n
    sat = [0] * n
    degs = [bin(m).count("1") for m in masks]
    counter = [0]

    def branch(colored, used):
        nonlocal best
        counter[0] += 1
        if counter[0] > budget:
            raise SizeLimitError(f"exact coloring exceeded its node budget of {budget}")
        if used >= best or best == lb:
            return
        if colored == n:
            best = used
            return
        v = max(
            (u for u in range(n) if color[u] < 0),
            key=lambda u: (bin(sat[u]).count("1"), degs[u], -u),
        )
        limit = min(used + 1, best - 1)
        for c in range(limit):
            if sat[v] >> c & 1:
                continue
            color[v] = c
            touched = []
            for u in range(n):
                if masks[v] >> u & 1 and color[u] < 0 and not sat[u] >> c & 1:
                    sat[u] |= 1 << c
                    touched.append(u)
            branch(colored + 1, max(used, c + 1))
            color[v] = -1
            for u in touched:
                sat[u] &= ~(1 << c)

    branch(0, 0)
    return best


# --- maximum average degree -------------------------------------------------


class _Dinic:
    def __init__(self, n):
        self.n = n
        self.head = [[] for _ in range(n)]
        self.to = []
        self.cap = []

    def add(self, u, v, c, back=0.0):
        """An arc u -> v of capacity c paired with v -> u of capacity back."""
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(back)

    def max_flow(self, s, t):
        """Saturates the network and returns the vertices reachable from s
        in the final residual graph: the smallest source side of a minimum
        cut."""
        eps = 1e-12
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for e in self.head[u]:
                    v = self.to[e]
                    if self.cap[e] > eps and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return queue
            it = [0] * self.n

            def dfs(u, pushed):
                if u == t:
                    return pushed
                while it[u] < len(self.head[u]):
                    e = self.head[u][it[u]]
                    v = self.to[e]
                    if self.cap[e] > eps and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[e]))
                        if got > eps:
                            self.cap[e] -= got
                            self.cap[e ^ 1] += got
                            return got
                    it[u] += 1
                return 0.0

            while dfs(s, math.inf) > eps:
                pass


def _subset_density(p, members):
    members = np.asarray(members)
    sub = p[np.ix_(members, members)]
    return float(sub.sum() / len(members))


def _densest_feasible(w, degree, total, guess):
    """Source side of the min cut for the density test 'exists U with
    sum_{i<j in U} w_ij / |U| > guess', in ascending order; empty when no
    such U exists."""
    n = len(degree)
    net = _Dinic(n + 2)
    s, t = n, n + 1
    for v in range(n):
        net.add(s, v, total)
        net.add(v, t, total + 2.0 * guess - degree[v])
    us, vs = np.nonzero(np.triu(w, 1))
    for u, v in zip(us, vs):
        net.add(int(u), int(v), float(w[u, v]), float(w[u, v]))
    return sorted(v for v in net.max_flow(s, t) if v < n)


def mad(P: EdgeProbabilityMatrix):
    """MAX over subsets U of sum_{i,j in U} p_ij / |U| (ordered pairs).

    Dinkelbach's iteration on Goldberg's density cut: starting from the
    full vertex set, each cut at the incumbent density either yields a
    strictly denser subset, whose density is evaluated directly and
    becomes the incumbent, or shows that none exists.  The incumbent rises
    strictly through finitely many subsets, so the loop ends at the
    maximum, usually after one or two cuts.
    """
    n = P.n
    if n > MAD_MAX_N:
        raise SizeLimitError(f"mad() capped at {MAD_MAX_N} vertices, got {n}")
    if n == 0 or P.p.sum() == 0:
        return 0.0
    # Work on the unordered-weight graph w = 2p: its pairwise subset weight
    # sum_{i<j in U} w_ij equals the ordered-pair sum of p over U, so the
    # flow test's density units are exactly the mad units.
    w = 2.0 * P.p
    degree = w.sum(axis=1)
    total = float(np.triu(w, 1).sum())
    best = _subset_density(w, np.arange(n)) / 2.0  # full vertex set
    # No subset is denser than half the largest degree, so a regular
    # matrix needs no cut.
    while best < float(degree.max()) / 2.0:
        members = _densest_feasible(w, degree, total, best)
        cand = _subset_density(w, members) / 2.0 if members else best
        if cand <= best:
            # None denser: the cut is empty, or float fuzz alone filled it.
            break
        best = cand
    return best


def mad_realized(G: Graph):
    """mad of the realized 0/1 adjacency matrix."""
    return mad(EdgeProbabilityMatrix(G.adj.astype(float)))
