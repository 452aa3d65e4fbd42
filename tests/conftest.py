"""Shared independent oracles: brute-force and enumeration references that
the implementation under test must match or stay on the right side of."""

import hashlib
import math
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
from scipy.special import logsumexp

from tailbounds.euclid import SpanningTree, Tour


def substream_oracle(base_seed, *tags):
    """The stream keyed by (base_seed, *tags) built as numpy documents it:
    Philox(key=...) with the first 16 bytes of SHA-256 over str(base_seed)
    and each str(tag), joined by 0x1f, as the two little-endian key words."""
    text = b"\x1f".join(str(part).encode() for part in (int(base_seed), *tags))
    key = np.frombuffer(hashlib.sha256(text).digest()[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def rademacher_moment_exact(n, m):
    """E(X_1+...+X_n)^m for i.i.d. +/-1 signs, exact by enumerating the
    number of -1 coordinates (2^n outcomes grouped by count)."""
    total = Fraction(0)
    for k in range(n + 1):
        total += comb(n, k) * Fraction(n - 2 * k) ** m
    return total / Fraction(2) ** n


def theorem1_recursion_oracle(profile, m):
    """log g(n, m) by the scalar Theorem 1 recursion, one order at a time:

        g(i, 0) = 1; g(1, q) = M_{1,q}; and for i >= 2,
        g(i, q) = g(i-1, q) + (11/5) * sum over even t in [2, q] of
                  (q^t / t!) * M_{i,t} * g(i-1, q-t),

    with every sum a log-sum-exp over Python lists."""
    log_11_5 = math.log(11.0 / 5.0)
    qs = list(range(0, m + 1, 2))
    qpos = {q: j for j, q in enumerate(qs)}
    g_prev = np.empty(len(qs))
    g_prev[0] = 0.0
    for q in qs[1:]:
        g_prev[qpos[q]] = profile.log_bound(1, q)
    for i in range(2, profile.n + 1):
        g_next = np.empty_like(g_prev)
        g_next[0] = 0.0
        for q in qs[1:]:
            terms = [g_prev[qpos[q]]]
            logq = math.log(q)
            for t in range(2, q + 1, 2):
                terms.append(log_11_5 + t * logq - math.lgamma(t + 1)
                             + profile.log_bound(i, t) + g_prev[qpos[q - t]])
            g_next[qpos[q]] = logsumexp(terms)
        g_prev = g_next
    return float(g_prev[qpos[m]])


def optimize_m_oracle(bound_fn, t, m_max):
    """(tail, m, log moment bound) minimizing min(1, exp(bound_fn(m) -
    m*log t)) by a scan over even m <= m_max; a strict comparison keeps
    the smallest m on ties."""
    best = None
    for m in range(2, m_max + 1, 2):
        mb = bound_fn(m)
        log_p = mb - m * math.log(t)
        p = 1.0 if log_p >= 0.0 else math.exp(log_p)
        if best is None or p < best[0]:
            best = (p, m, mb)
    return best


def binomial_tail_exact(n, p, t):
    """Pr(|S - n*p| >= t) for S ~ Binomial(n, p), the law of a chernoff sum
    of n Bernoulli(p) variables centred at its mean: the pmf terms, each
    from math.lgamma in log domain, summed with math.fsum."""
    log_p, log_q = math.log(p), math.log1p(-p)
    return min(1.0, math.fsum(
        math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                 + k * log_p + (n - k) * log_q)
        for k in range(n + 1) if abs(k - n * p) >= t))


def gaussian_tail_exact(n, t):
    """Pr(|Z| >= t) for Z ~ N(0, n), the law of a gauss_sum of n standard
    normals."""
    return math.erfc(t / math.sqrt(2 * n))


def jl_trend_oracle(family, n, k, samples, seed):
    """check_jl_hypotheses' (i, rank z) at each probe: scipy's Spearman
    correlation between W = Y_1^2+...+Y_{i-1}^2 and Y_i^2 over the draws,
    times sqrt(samples - 1)."""
    from scipy.stats import spearmanr

    from tailbounds.harness.rng import substream
    from tailbounds.seq import _draw_vectors

    sq = _draw_vectors(substream(seed, "jl-check"), n, family, samples) ** 2
    return [(i, float(spearmanr(sq[:, :i - 1].sum(axis=1), sq[:, i - 1]).statistic
                      * math.sqrt(samples - 1)))
            for i in sorted({max(2, k // 4), max(2, k // 2), k} | {min(8, k)})
            if 2 <= i <= k]


def tour_length_oracle(points, order):
    pts = np.asarray(points, dtype=float)
    seq = pts[list(order) + [order[0]]]
    return float(np.sqrt(((seq[1:] - seq[:-1]) ** 2).sum(axis=1)).sum())


def _distance_matrix_oracle(points):
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def tsp_2opt_oracle(points, start, max_passes=50):
    """The 2-opt sweep row by row on the dense s x s distance matrix: for
    each i in ascending order, reverse order[i..j] for the first j with
    d[a,seg] + d[b,nxt] - d[a,b] - d[seg,nxt] < -1e-12; stop after a sweep
    without an exchange or after max_passes sweeps."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(pts)
    if n < 4:
        return Tour.of(pts, start.order)
    d = _distance_matrix_oracle(pts)
    order = start.order.copy()
    eps = 1e-12
    for _ in range(max_passes):
        improved = False
        for i in range(1, n - 1):
            a = order[i - 1]
            b = order[i]
            seg = order[i:]                      # candidates order[j], j >= i
            nxt = np.empty(n - i, dtype=np.int64)
            nxt[:-1] = order[i + 1:]
            nxt[-1] = order[0]
            delta = d[a, seg] + d[b, nxt] - d[a, b] - d[seg, nxt]
            hit = np.flatnonzero(delta < -eps)
            if len(hit):
                j = i + int(hit[0])
                order[i:j + 1] = order[i:j + 1][::-1]
                improved = True
        if not improved:
            break
    return Tour.of(pts, order)


def mst_prim_oracle(points):
    """Prim's algorithm on the dense s x s distance matrix, growing from
    point 0; ties go to the smallest index."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(pts)
    if n == 1:
        return SpanningTree(edges=[], weight=0.0)
    d = _distance_matrix_oracle(pts)
    in_tree = np.zeros(n, dtype=bool)
    best = d[0].copy()
    parent = np.zeros(n, dtype=np.int64)
    in_tree[0] = True
    best[0] = np.inf
    edges = []
    total = 0.0
    for _ in range(n - 1):
        v = int(np.argmin(best))
        total += float(best[v])
        edges.append((int(parent[v]), v))
        in_tree[v] = True
        closer = d[v] < best
        closer &= ~in_tree
        parent[closer] = v
        best = np.where(closer, d[v], best)
        best[v] = np.inf
    return SpanningTree(edges=edges, weight=total)


def best_random_permutation_tour(points, trials, rng):
    n = len(points)
    best = np.inf
    for _ in range(trials):
        perm = rng.permutation(n)
        best = min(best, tour_length_oracle(points, perm.tolist()))
    return best


def mst_weight_brute(points):
    """Minimum spanning tree weight over all n^(n-2) labeled trees,
    decoded from Pruefer sequences; exact for small n."""
    import heapq
    import itertools

    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n == 1:
        return 0.0
    if n == 2:
        return float(np.hypot(*(pts[0] - pts[1])))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    best = np.inf
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        total = 0.0
        leaves = [v for v in range(n) if degree[v] == 1]
        heapq.heapify(leaves)
        for v in seq:
            leaf = heapq.heappop(leaves)
            total += d[leaf, v]
            degree[leaf] -= 1
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(leaves, v)
        u, v = (x for x in range(n) if degree[x] == 1)
        total += d[u, v]
        best = min(best, total)
    return best


def lis_brute(values):
    """Longest chain by DFS over all extendable increasing subsequences;
    equal values chain in position order (matching the library rule)."""
    n = len(values)
    best = 0

    def extend(last_idx, length):
        nonlocal best
        best = max(best, length)
        start = last_idx + 1
        for j in range(start, n):
            if last_idx < 0 or values[last_idx] <= values[j]:
                extend(j, length + 1)

    extend(-1, 0)
    return best


def mad_brute(p):
    """Max over nonempty subsets of the ordered-pair density, by
    meet-in-the-middle over the two vertex halves."""
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    a = n // 2
    b = n - a
    masks_a = 1 << a
    masks_b = 1 << b
    bits_a = np.array([[m >> i & 1 for i in range(a)] for m in range(masks_a)],
                      dtype=float)
    bits_b = np.array([[m >> i & 1 for i in range(b)] for m in range(masks_b)],
                      dtype=float)
    paa = p[:a, :a]
    pbb = p[a:, a:]
    pab = p[:a, a:]
    wa = np.einsum("mi,ij,mj->m", bits_a, paa, bits_a)
    wb = np.einsum("mi,ij,mj->m", bits_b, pbb, bits_b)
    cross = 2.0 * bits_a @ pab @ bits_b.T  # ordered pairs across the halves
    sizes = bits_a.sum(axis=1)[:, None] + bits_b.sum(axis=1)[None, :]
    weight = wa[:, None] + wb[None, :] + cross
    with np.errstate(invalid="ignore", divide="ignore"):
        density = np.where(sizes > 0, weight / sizes, -np.inf)
    return float(np.nanmax(density))


def chromatic_brute(adj):
    """Smallest k admitting a proper coloring, by backtracking."""
    n = adj.shape[0]
    if n == 0:
        return 0

    def colorable(k):
        color = [-1] * n

        def place(v):
            if v == n:
                return True
            for c in range(min(k, v + 1)):
                if all(color[u] != c for u in np.flatnonzero(adj[v])):
                    color[v] = c
                    if place(v + 1):
                        return True
                    color[v] = -1
            return False

        return place(0)

    for k in range(1, n + 1):
        if colorable(k):
            return k
    return n


def packing_lp_vertex_oracle(rows, counts):
    """Optimal covering-LP value by enumerating basis vertices exactly.

    min sum x  s.t.  sum_i x_i a_ij >= counts_j, x >= 0, solved by checking
    every choice of r columns from [types | surplus] in rational arithmetic.
    """
    rows = [list(map(Fraction, r)) for r in rows]
    r = len(counts)
    s = len(rows)
    counts = [Fraction(c) for c in counts]
    columns = []
    for i in range(s):
        columns.append(([rows[i][j] for j in range(r)], Fraction(1)))
    for j in range(r):
        col = [Fraction(0)] * r
        col[j] = Fraction(-1)
        columns.append((col, Fraction(0)))
    best = None
    for combo in combinations(range(len(columns)), r):
        mat = [[columns[c][0][j] for c in combo] for j in range(r)]
        vec = counts[:]
        sol = _solve_exact(mat, vec)
        if sol is None or any(v < 0 for v in sol):
            continue
        value = sum(columns[c][1] * v for c, v in zip(combo, sol))
        if best is None or value < best:
            best = value
    return best


def _solve_exact(mat, vec):
    n = len(vec)
    a = [row[:] + [vec[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def pack_exact_bins(sizes_by_item):
    """Exact minimum bin count by branch and bound over item placements."""
    items = sorted(sizes_by_item, reverse=True)
    n = len(items)
    best = n if n else 0
    bins = []

    def place(idx):
        nonlocal best
        if idx == n:
            best = min(best, len(bins))
            return
        if len(bins) >= best:
            return
        seen = set()
        for b in range(len(bins)):
            room = round(1.0 - bins[b], 12)
            if items[idx] <= room + 1e-9 and bins[b] not in seen:
                seen.add(bins[b])
                bins[b] += items[idx]
                place(idx + 1)
                bins[b] -= items[idx]
        bins.append(items[idx])
        place(idx + 1)
        bins.pop()

    place(0)
    return best


def zeta_tables_oracle(s, cap):
    """The zeta law's pmf and CDF as full float64 tables over k = 1..cap:
    w = k^-s, pmf = w / w.sum() (numpy's pairwise sum) and cdf =
    np.cumsum(pmf)."""
    ks = np.arange(1, cap + 1, dtype=float)
    w = ks ** (-s)
    pmf = w / w.sum()
    return pmf, np.cumsum(pmf)


def sample_point_set_oracle(n_cells, count_dist, placement, seed):
    """The per-cell (k, 2) point arrays of sample_point_set, built one cell
    at a time: the counts, then for each cell in index order its x draws
    and then its y draws (uniform_in_cell), a bunch at the lower-left
    corner (corner_bunch), a g x g lattice with g = isqrt(k - 1) + 1
    (grid_spread), or a bunch at the corner nearest (0.5, 0.5), kept
    inside an open upper edge (adversarial_diagonal)."""
    from tailbounds.harness.rng import substream
    from tailbounds.pointproc import PlacementStrategy, cell_bounds

    side = math.isqrt(n_cells)
    placement = PlacementStrategy(placement)
    rng = substream(seed, "pointset")
    counts = count_dist.sample(rng, n_cells)
    h = 1.0 / side

    def inside_open_edge(value, low, high, closed):
        if closed or value < high:
            return min(max(value, low), high if closed else np.nextafter(high, low))
        return np.nextafter(high, low)

    cells = []
    for index, count in enumerate(int(k) for k in counts):
        x0, x1, y0, y1 = cell_bounds(n_cells, index)
        r, c = divmod(index, side)
        if count == 0:
            cells.append(np.empty((0, 2)))
        elif placement is PlacementStrategy.UNIFORM_IN_CELL:
            xs = x0 + rng.random(count) * h
            ys = y0 + rng.random(count) * h
            cells.append(np.column_stack([xs, ys]))
        elif placement is PlacementStrategy.CORNER_BUNCH:
            cells.append(np.tile([x0, y0], (count, 1)))
        elif placement is PlacementStrategy.GRID_SPREAD:
            g = math.isqrt(count - 1) + 1
            pts = []
            for j in range(count):
                gy, gx = divmod(j, g)
                pts.append((x0 + (gx + 0.5) * h / g, y0 + (gy + 0.5) * h / g))
            cells.append(np.array(pts))
        else:
            cx = x0 if abs(x0 - 0.5) <= abs(x1 - 0.5) \
                else inside_open_edge(x1, x0, x1, c == side - 1)
            cy = y0 if abs(y0 - 0.5) <= abs(y1 - 0.5) \
                else inside_open_edge(y1, y0, y1, r == side - 1)
            cells.append(np.tile([cx, cy], (count, 1)))
    return cells


def run_chernoff(params, seed):
    """One chernoff replicate from a new Generator: the first n uniforms of
    the stream at site "chernoff", X = #{u_j < nu_j} - sum(nus)."""
    from tailbounds.harness.rng import substream

    rng = substream(seed, "chernoff")
    nus = params["nus"]
    draws = rng.random(params["n"]) < nus
    return float(draws.sum() - nus.sum()), {}


def run_gauss_sum(params, seed):
    """One gauss_sum replicate from a new Generator: the sum of the first
    n standard normals of the stream at site "gauss"."""
    from tailbounds.harness.rng import substream

    rng = substream(seed, "gauss")
    return float(rng.standard_normal(params["n"]).sum()), {}


def run_lis(params, seed):
    """One lis replicate from a new Generator: the LIS length of the first
    n uniforms of the stream at site "lis"."""
    from tailbounds.harness.rng import substream
    from tailbounds.seq import lis

    rng = substream(seed, "lis")
    values = rng.random(params["n"])
    return float(lis(values)), {}


def run_binpack(params, seed):
    """One binpack replicate from a new Generator: the packing LP of the
    item counts drawn from the stream at site "binpack"."""
    from tailbounds.harness.rng import substream
    from tailbounds.packing import lp_round_up, solve_packing_lp

    rng = substream(seed, "binpack")
    counts = params["dist"].sample_counts(rng, params["n_items"])
    sol = solve_packing_lp(params["bin_types"], counts.tolist())
    return sol.value, {"rounded": lp_round_up(sol), "duality_gap": sol.duality_gap}
