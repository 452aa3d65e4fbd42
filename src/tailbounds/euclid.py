"""Euclidean functionals: exact and heuristic TSP tours, strip tours with a
certified length bound, and exact minimum spanning trees.

The exact tour solver is the oracle for the heuristics and is capped at 13
points; larger instances use the deterministic strip + 2-opt pipeline,
which is itself a well-defined functional of the point set.

2-opt and Prim work on the coordinates in O(s) memory: they compute the
distances they need with _dist, the expression of the s x s matrix of
_distance_matrix (used only by the exact solver), so their
results are bit-identical to the dense-matrix versions kept as oracles in
tests/conftest.py.  2-opt computes a block of rows at a time, in place, in
buffers it allocates once per call.

Prim runs on a sparse radius graph G_R (all site pairs at distance <= R,
each found once from a bucket grid) with a connectivity certificate: while
Prim's heap is not empty, some edge of weight <= R crosses the cut, so
every float-minimal crossing edge of the complete graph, ties included,
lies in G_R, and the tree, its edge order and its summed weight are those
of dense Prim.  Its heap holds one int64 key per edge, in (distance, site)
order.  When the heap runs dry first, R doubles and Prim restarts.
When the grid would hold more than a fixed number of candidate pairs per
site or in all, counted before any pair is built, Prim scans one distance
row per step instead (O(s^2) time).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, SizeLimitError

__all__ = ["Tour", "SpanningTree", "tsp_exact", "tsp_strip", "tsp_2opt",
           "mst_weight", "tour_length", "STRIP_TOUR_COEFF", "STRIP_TOUR_OFFSET"]

TSP_EXACT_MAX_POINTS = 13

# Certified constants of the boustrophedon strip tour: with ceil(sqrt(s))
# horizontal strips the route length never exceeds 3*alpha*sqrt(s) + 2*alpha.
STRIP_TOUR_COEFF = 3.0
STRIP_TOUR_OFFSET = 2.0


def _distance_matrix(points):
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    return _dist(pts[:, None, 0], pts[:, None, 1], pts[None, :, 0], pts[None, :, 1])


def tour_length(points, order):
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(order) < 2:
        return 0.0
    seq = pts[np.asarray(order)]
    closed = np.vstack([seq, seq[:1]])
    return float(_dist(closed[1:, 0], closed[1:, 1], closed[:-1, 0], closed[:-1, 1]).sum())


@dataclass
class Tour:
    """A closed tour: a permutation of point indices and its length."""

    order: np.ndarray
    length: float

    def __post_init__(self):
        self.order = np.asarray(self.order, dtype=np.int64)
        n = len(self.order)
        if sorted(self.order.tolist()) != list(range(n)):
            raise InvalidArgumentError("order must be a permutation of 0..n-1")

    @classmethod
    def of(cls, points, order):
        return cls(order=np.asarray(order, dtype=np.int64),
                   length=tour_length(points, order))


@dataclass
class SpanningTree:
    """A spanning tree as n-1 index pairs plus total edge weight."""

    edges: list
    weight: float


def tsp_exact(points):
    """Optimal closed tour by Held-Karp dynamic programming.

    Deterministic output: the lexicographically smallest optimal order
    (tours are cycles, so the order starts at index 0).  Limited to 13
    points.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(pts)
    if n < 1:
        raise InvalidArgumentError("need at least one point")
    if n > TSP_EXACT_MAX_POINTS:
        raise SizeLimitError(
            f"exact tours are limited to {TSP_EXACT_MAX_POINTS} points, got {n}"
        )
    if n == 1:
        return Tour.of(pts, [0])
    if n == 2:
        return Tour.of(pts, [0, 1])
    d = _distance_matrix(pts)
    k = n - 1  # cities 1..n-1 encoded as bits 0..k-1
    full = (1 << k) - 1
    # cost[mask, j] = min length of a path 0 -> (mask minus j) -> j+1
    cost = np.full((1 << k, k), np.inf)
    for j in range(k):
        cost[1 << j, j] = d[0, j + 1]
    # Every mask ^ bit is below mask, so numeric order fills each row after
    # the rows it reads.  Cities outside a row's mask hold inf, so only
    # those in mask ^ bit[j] can give cost[mask, j] its min.
    bit = 1 << np.arange(k)
    for mask in range(1, full + 1):
        if mask & (mask - 1):  # one-city rows are set above
            js = np.flatnonzero(mask & bit)
            cost[mask, js] = (cost[mask ^ bit[js]] + d[1:, js + 1].T).min(axis=1)
    closing = cost[full] + d[1:, 0]
    best = float(closing.min())
    # Greedy lexicographic reconstruction: extend with the smallest city
    # whose completion cost still meets the optimum.  The completion from
    # city j+1 through remaining\{j} back to 0 is the reverse of the path
    # 0 -> remaining\{j} -> j+1, i.e. cost[remaining, j] by symmetry.  A
    # tour's n edges summed in two orders differ by at most about 2n
    # rounding errors of best, so only that much slack is allowed: the
    # order returned has length best up to rounding.
    tol = 2 * n * np.finfo(float).eps * best
    order = [0]
    remaining = full
    last = 0
    acc = 0.0
    while remaining:
        for j in range(k):
            if not remaining >> j & 1:
                continue
            step = d[last, j + 1]
            if acc + step + cost[remaining, j] <= best + tol:
                order.append(j + 1)
                acc += step
                last = j + 1
                remaining ^= 1 << j
                break
        else:  # pragma: no cover - the optimum is always completable
            raise RuntimeError("failed to reconstruct an optimal tour")
    return Tour(order=np.array(order), length=best)


def tsp_strip(points, alpha):
    """Boustrophedon tour over ceil(sqrt(s)) horizontal strips of an
    alpha-sided square; the returned length is checked against the
    certified bound 3*alpha*sqrt(s) + 2*alpha.  Points whose x or y extent
    is above alpha do not fit the square and are refused."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    s = len(pts)
    if s == 0:
        return Tour(order=np.empty(0, dtype=np.int64), length=0.0)
    if alpha <= 0:
        raise InvalidArgumentError("alpha must be > 0")
    extent = float(np.ptp(pts, axis=0).max())
    if not extent <= alpha:
        raise InvalidArgumentError(f"points span {extent} in x or y, above alpha = {alpha}")
    k = math.isqrt(s - 1) + 1 if s > 1 else 1  # ceil(sqrt(s))
    ymin = pts[:, 1].min()
    strip = np.minimum(((pts[:, 1] - ymin) / alpha * k).astype(int), k - 1)
    xs = pts[:, 0]
    order = []
    for band in range(k):
        members = np.flatnonzero(strip == band)
        if len(members) == 0:
            continue
        inner = members[np.argsort(xs[members], kind="stable")]
        if band % 2 == 1:
            inner = inner[::-1]
        order.extend(inner.tolist())
    tour = Tour.of(pts, order)
    limit = STRIP_TOUR_COEFF * alpha * math.sqrt(s) + STRIP_TOUR_OFFSET * alpha
    if tour.length > limit + 1e-9 * (1 + limit):
        raise RuntimeError(f"strip tour length {tour.length} exceeded its certificate {limit}")
    return tour


def _dist(x0, y0, x1, y1):
    """Euclidean distances between (x0, y0) and (x1, y1), broadcast: the one
    floating-point expression of every distance here, bit-identical to the
    dense-matrix oracles' (squares drop the sign)."""
    dx = x0 - x1
    dy = y0 - y1
    return np.sqrt(dx * dx + dy * dy)


# Full 2-opt sweeps tsp_2opt runs before it stops without convergence.
TSP_2OPT_MAX_PASSES = 40

# Most rows of the 2-opt sweep tested in one distance block, and most
# distances in one block: rows * (n - i + 1) <= 2^17, so the sweep's
# buffers take 2.2 MB plus 34 bytes a point.  A single row fills a block
# at about 1.3e5 points; tours of up to 2048 points keep 64-row blocks.
_SWEEP_BLOCK_CAP = 64
_SWEEP_BLOCK_ENTRIES = 1 << 17


def tsp_2opt(points, start: Tour, max_passes=TSP_2OPT_MAX_PASSES):
    """Improve a tour by 2-exchanges until no improvement remains or
    max_passes full sweeps have run.

    Deterministic: sweeps i in fixed ascending order and applies the first
    improving exchange for each i (segment order[i..j] is reversed), where
    exchange j improves when d[a,seg] + d[b,nxt] - d[a,b] - d[seg,nxt] <
    -1e-12 for a, b = order[i-1], order[i] and seg, nxt = order[j],
    order[j+1] (order[n] = order[0]).

    Works on the coordinates in tour order in O(s) memory, never on an
    s x s matrix.  A block of rows i..i+B-1 is tested at once from one
    (B+1) x (n-i+1) block of distances: row i's d[b,nxt] terms are row
    i+1's d[a,seg] terms.  Nothing in the tour changes before the first
    row with a hit, so that row and its first j are exactly those of the
    row-by-row sweep; the sweep applies it and resumes at the next row
    with B = 1, and doubles B after each block without a hit.

    Each block runs the ufuncs of _dist and then the delta sum and
    comparison with out= views of two float64 buffers and one bool buffer
    of _SWEEP_BLOCK_ENTRIES + 2*(n+1) entries, allocated once per call, so
    a block allocates no temporaries and every value is the one the
    expressions compute.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(pts)
    if len(start.order) != n:
        raise InvalidArgumentError("start tour must cover exactly the given points")
    if n < 4:
        return Tour.of(pts, start.order)
    order = start.order.copy()
    closed = np.append(order, order[0])
    xs, ys = pts[closed, 0], pts[closed, 1]    # xs[n] = xs[0]: the closing point
    edge = _dist(xs[:-1], ys[:-1], xs[1:], ys[1:])  # edge[k] = d[order[k], order[k+1]]
    upper = ~np.tri(_SWEEP_BLOCK_CAP, k=-1, dtype=bool)   # upper[r, c]: c >= r
    eps = 1e-12
    # A block has (rows + 1) * (n - i + 1) <= _SWEEP_BLOCK_ENTRIES + 2 * (n + 1)
    # distances, rows = 1 included; its ufuncs write into these buffers.
    size = _SWEEP_BLOCK_ENTRIES + 2 * (n + 1)
    buf_a, buf_b, buf_hit = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
    for _ in range(max_passes):
        improved = False
        i, rows = 1, 1
        while i < n - 1:
            rows = min(rows, n - 1 - i, max(1, _SWEEP_BLOCK_ENTRIES // (n - i + 1)))
            # near[r, c] = d[order[i-1+r], order[i+c]], c in 0..n-i, the ufuncs of _dist
            shape = (rows + 1, n - i + 1)
            near = buf_a[:shape[0] * shape[1]].reshape(shape)
            dy = buf_b[:near.size].reshape(shape)
            np.subtract(xs[i - 1:i + rows, None], xs[None, i:], out=near)
            np.multiply(near, near, out=near)
            np.subtract(ys[i - 1:i + rows, None], ys[None, i:], out=dy)
            np.multiply(dy, dy, out=dy)
            np.add(near, dy, out=near)
            np.sqrt(near, out=near)
            # delta[r, c] = near[r, c] + near[r+1, c+1] - edge[i-1+r] - edge[i+c]
            delta = buf_b[:rows * (n - i)].reshape(rows, n - i)
            np.add(near[:-1, :-1], near[1:, 1:], out=delta)
            np.subtract(delta, edge[i - 1:i - 1 + rows, None], out=delta)
            np.subtract(delta, edge[None, i:], out=delta)
            hit = np.less(delta, -eps, out=buf_hit[:delta.size].reshape(delta.shape))
            hit[:, :rows] &= upper[:rows, :rows]   # row i+r tests j >= i+r only
            first = int(hit.argmax())
            r, c = divmod(first, n - i)
            if not hit[r, c]:
                i += rows
                rows = min(2 * rows, _SWEEP_BLOCK_CAP)
                continue
            lo, hi = i + r, i + c
            for arr in (order, xs, ys):
                arr[lo:hi + 1] = arr[lo:hi + 1][::-1]
            edge[lo:hi] = edge[lo:hi][::-1]
            ends = np.array([lo - 1, hi])
            edge[ends] = _dist(xs[ends], ys[ends], xs[ends + 1], ys[ends + 1])
            improved = True
            i, rows = lo + 1, 1
        if not improved:
            break
    return Tour.of(pts, order)


# Prim on the radius graph, see mst_weight.  R starts at _RADIUS_FACTOR
# mean site spacings, sqrt(bbox area / sites), a little above the longest
# MST edge of a uniform cloud of 10^3 to 10^4 sites, so most such clouds
# connect on the first pass.
_RADIUS_FACTOR = 2.0
# Candidate pairs per site the grid may generate, each pair counted from
# both ends: about 35 for a uniform cloud at the starting R, 143 at 2R.
_PAIRS_PER_SITE = 192
# Candidate pairs the grid may generate in all, whatever the number of
# sites: building G_R and running Prim on it peaks near 12 bytes a
# candidate, about 25 MB at this cap, which a uniform cloud of about 6e4
# sites reaches.
_MAX_PAIRS = 1 << 21
# Candidate pairs of one shift that _radius_graph tests at once: its
# temporaries, about ten per candidate, stay near 80 bytes times this.
_SHIFT_SLICE = 1 << 16
# The bucket side exceeds R by this relative margin.  Rounding in the bucket
# index and in _dist moves a pair by at most ~4 ulp of the bbox span and of
# R, so no pair with _dist <= R lands two buckets apart while a grid axis has
# fewer than ~10^9 buckets (it has at most sites / _RADIUS_FACTOR + 1).
_BUCKET_MARGIN = 1e-6
# The 3 x 3 bucket neighbourhood.
_NEIGHBOURS = tuple((dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1))


def mst_weight(points):
    """Exact Euclidean minimum spanning tree by Prim's algorithm grown from
    point 0, ties to the smallest point index, so edges and weight are a
    fixed function of the point order: bit-identical to dense Prim on the
    s x s matrix (mst_prim_oracle in tests/conftest.py).

    Coincident points collapse into sites, each represented by its smallest
    point index.  Dense Prim reaches a site at its representative and then
    takes the other copies at once, in ascending index order, as (rep, copy)
    edges of weight 0; so does this function.

    Between sites, Prim runs with a heap on the radius graph G_R: every site
    pair whose _dist is <= R, found with a bucket grid of side just above R.
    Sites are numbered in the order of their representatives, so keys are
    (distance, site), one int64 each (see _radius_graph), and a key is lowered
    only on a strict <, as in dense Prim.  Connectivity is the certificate:
    while the heap is not empty, an edge of weight <= R crosses the cut
    between the sites added and the rest, so every float-minimal crossing edge
    of the complete graph, ties included, has weight <= R and lies in G_R.
    Each step then adds the same site with the same parent as dense Prim, and
    the weights are summed in the same order.  When the heap runs dry before
    every site is added, R doubles and Prim starts again on the new G_R.

    The row-by-row dense Prim (O(s) memory, O(s^2) time) runs instead when
    the grid would generate more than _PAIRS_PER_SITE candidate pairs per
    site or _MAX_PAIRS in all, which is counted from the bucket sizes before
    any pair exists, so memory stays O(s) plus a bounded graph; when two
    distinct sites are at float distance 0; and when R or the bounding box
    would take squared distances out of the normal float range.  Coordinates must be finite.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(pts)
    if n < 1:
        raise InvalidArgumentError("need at least one point")
    if not np.isfinite(pts).all():
        raise InvalidArgumentError("point coordinates must be finite")
    if n == 1:
        return SpanningTree(edges=[], weight=0.0)
    xs, ys = pts[:, 0], pts[:, 1]
    order = np.lexsort((ys, xs))     # stable: a site's copies in index order
    ox, oy = xs[order], ys[order]
    first = np.ones(n, dtype=bool)
    first[1:] = (ox[1:] != ox[:-1]) | (oy[1:] != oy[:-1])
    bounds = np.append(np.flatnonzero(first), n)
    rep = np.sort(order[bounds[:-1]])   # sites in the order of their smallest index
    tree = _mst_sites(xs[rep], ys[rep])
    if tree is None:
        return _mst_rows(pts)
    added, parent, dist = tree
    copies = {int(order[bounds[k]]): order[bounds[k] + 1:bounds[k + 1]].tolist()
              for k in np.flatnonzero(np.diff(bounds) > 1)}
    rep = rep.tolist()
    edges = [(0, c) for c in copies.get(0, ())]
    total = 0.0
    for site in added[1:]:
        r = rep[site]
        edges.append((rep[parent[site]], r))
        total += dist[site]
        edges.extend((r, c) for c in copies.get(r, ()))
    return SpanningTree(edges=edges, weight=total)


def _mst_sites(x, y):
    """Prim on the radius graph of the distinct sites (x, y) from site 0:
    (sites in the order added, parent site, distance to the parent), or
    None when mst_weight must scan rows."""
    m = len(x)
    if m == 1:
        return [0], [0], [0.0]
    width, height = float(x.max() - x.min()), float(y.max() - y.min())
    span = max(width, height)
    r = _RADIUS_FACTOR * max(math.sqrt(width * height / m), span / m)
    if not (1e-100 < r and span < 1e100):
        return None
    while True:
        graph = _radius_graph(x, y, r)
        if graph is None:
            return None
        tree = _prim(*graph)
        if tree is not None:
            return tree
        if r > width + height:   # the graph already held every pair
            return None
        r *= 2.0


def _radius_graph(x, y, r):
    """Every site pair with _dist <= r, in CSR form: u's edge to v, at the
    distance levels[rank] of the sorted distinct ones, is keyed rank * m + v
    in key[ptr[u]:ptr[u + 1]], so ties share a rank.  None when the grid
    would generate more than _PAIRS_PER_SITE candidate pairs per site or
    _MAX_PAIRS in all, or when two distinct sites are at distance 0 (dense
    Prim would interleave their copies)."""
    m = len(x)
    inv = 1.0 / (r * (1.0 + _BUCKET_MARGIN))
    bx = ((x - x.min()) * inv).astype(np.int64) + 1   # a ring of empty buckets
    by = ((y - y.min()) * inv).astype(np.int64) + 1   # around the occupied ones
    row = int(bx.max()) + 2
    bucket = by * row + bx
    count = np.bincount(bucket, minlength=(int(by.max()) + 2) * row)
    shifts = [dy * row + dx for dx, dy in _NEIGHBOURS]
    budget = min(_PAIRS_PER_SITE * m, _MAX_PAIRS)
    if sum(int(count[bucket + k].sum()) for k in shifts) - m > budget:
        return None
    # the sites of bucket b are by_bucket[start[b]:start[b] + count[b]]
    by_bucket = np.argsort(bucket, kind="stable")
    start = np.cumsum(count) - count
    sites = np.arange(m)
    us, vs, ws = [], [], []
    for k in shifts[4:]:   # own bucket, then (1, 0) (-1, 1) (0, 1) (1, 1): each pair once
        b = bucket + k
        c = count[b]
        # runs of sites with about _SHIFT_SLICE candidates each, in site order
        # (a run is empty where one site has more)
        ends = np.cumsum(c)
        cuts = np.searchsorted(ends, np.arange(_SHIFT_SLICE, ends[-1], _SHIFT_SLICE))
        for lo, hi in itertools.pairwise([0, *cuts.tolist(), m]):
            cs = c[lo:hi]
            u = np.repeat(sites[lo:hi], cs)
            v = by_bucket[np.repeat(start[b[lo:hi]] - np.cumsum(cs) + cs, cs) + np.arange(len(u))]
            if k == 0:
                once = u < v   # never (u, u)
                u, v = u[once], v[once]
            w = _dist(x[u], y[u], x[v], y[v])
            close = w <= r
            us.append(u[close])
            vs.append(v[close])
            ws.append(w[close])
    # Each array is dropped once used, the last slice's first, and no step
    # holds much more than the keys and their CSR order.
    del b, c, cs, u, v, once, w, close
    ws = np.concatenate(ws)
    if not ws.all():
        return None
    # levels, rank = np.unique(ws, return_inverse=True), with fewer arrays alive
    order = np.argsort(ws)
    ws = ws[order]
    first = np.empty(len(ws), dtype=bool)
    first[:1] = True
    np.not_equal(ws[1:], ws[:-1], out=first[1:])
    levels = ws[first]
    del ws
    rank = np.empty_like(order)
    rank[order] = np.cumsum(first) - 1
    del order, first
    us, vs = np.concatenate(us), np.concatenate(vs)
    tail = np.concatenate([us, vs])
    by_tail = np.argsort(tail, kind="stable")
    ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=m), out=ptr[1:])
    del tail
    rank *= m
    us += rank
    vs += rank
    del rank
    key = np.concatenate([vs, us])
    del us, vs
    return ptr.tolist(), key[by_tail], levels


def _prim(ptr, key, levels):
    """Prim's algorithm from site 0 on the graph of _radius_graph, with a heap
    of its int64 keys; a key is lowered only on a strict <, as in dense Prim.
    (sites in the order added, parent site, distance to the parent), or None
    when the graph is not connected."""
    m = len(ptr) - 1
    best = [len(levels) * m] * m   # above every key
    parent = [0] * m
    added = []
    heap = [0]
    while heap:
        k = heapq.heappop(heap)
        u = k % m
        if best[u] < 0:
            continue
        best[u] = ~k   # negative: in the tree
        added.append(u)
        for k in key[ptr[u]:ptr[u + 1]].tolist():
            v = k % m
            if k < best[v]:
                best[v] = k
                parent[v] = u
                heapq.heappush(heap, k)
    return (added, parent, levels[~np.array(best) // m].tolist()) if len(added) == m else None


def _mst_rows(pts):
    """Dense Prim on the (s, 2) array pts, each distance row computed from
    the coordinates: O(s) memory, O(s^2) time."""
    n = len(pts)
    xs, ys = pts[:, 0].copy(), pts[:, 1].copy()
    in_tree = np.zeros(n, dtype=bool)
    best = _dist(xs[0], ys[0], xs, ys)
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
        row = _dist(xs[v], ys[v], xs, ys)
        closer = row < best
        closer &= ~in_tree
        parent[closer] = v
        best = np.where(closer, row, best)
        best[v] = np.inf
    return SpanningTree(edges=edges, weight=total)
