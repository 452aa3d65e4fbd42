"""Per-experiment replicate functions.

Every experiment is one replicate function fn(params, rng) -> (f, aux) in
REPLICATE_FNS, where f is the functional value and aux a dict of
auxiliary metrics whose keys are always AUX_KEYS[experiment].  rng is a
numpy Generator on a Philox that the runner re-keys with rng.restream to
(seed, STREAM_SITES[experiment]) before each call, so it draws what a new
substream(seed, site) draws.  The seed is derived_seed(base_seed,
replicate), which the runner takes from rng.derived_seeds and writes to
the record's seed column.  All randomness
flows from that seed through counter-based streams, so results do not
depend on execution order or worker count.  tsp and mwst share the site
"pointset", so at equal seeds and grid parameters they see one point set.
chernoff reads raw words from rng.bit_generator and compares them with
per-variable thresholds, which gives exactly the values of the
Generator's uniforms compared with the means.  gauss_sum is also in
ROW_FNS as its draw and its reduction: the runner draws a block's
replicates into the rows of one matrix and sums them in one call, and
run_gauss_sum, the same draw and sum on one row, is its per-replicate
oracle.

The parameters are the validated dict of config.parse_config, so every
domain object is built once per config and only read here.  No solver
setting is among them (every solver runs with its own defaults); they are:
  tsp, mwst   n_cells, count_dist, placement
  chromatic   n, P (EdgeProbabilityMatrix), method (exact or greedy)
  jl          n, k, family, gate_samples (at least 100)
  binpack     dist (ItemDistribution), bin_types (BinTypeSet), n_items
  chernoff    n, nus (per-variable means), thresholds (their raw-word
              thresholds), total (sum of the means), nu when they are all
              equal
  lis, gauss_sum  n
"""

from __future__ import annotations

import math

import numpy as np

from .. import graphs
from ..errors import HypothesisViolationError
from ..euclid import mst_weight, tsp_2opt, tsp_exact, tsp_strip, TSP_EXACT_MAX_POINTS
from ..graphs import chromatic_exact, chromatic_greedy, mad, sample_graph
from ..packing import lp_round_up, solve_packing_lp
from ..pointproc import sample_point_set
from ..seq import check_jl_hypotheses, jl_projection_statistic, lis, sample_unit_vector
from .rng import substream


def _tsp_value(points):
    s = len(points)
    if s == 0:
        return 0.0, "empty"
    if s <= TSP_EXACT_MAX_POINTS:
        return tsp_exact(points).length, "exact"
    start = tsp_strip(points, alpha=1.0)
    return tsp_2opt(points, start).length, "2opt_strip"


def run_tsp(params, rng):
    points = sample_point_set(params["n_cells"], params["count_dist"],
                              params["placement"], rng).points
    value, solver = _tsp_value(points)
    return value, {"n_points": len(points), "solver": solver}


def run_mwst(params, rng):
    points = sample_point_set(params["n_cells"], params["count_dist"],
                              params["placement"], rng).points
    value = mst_weight(points).weight if len(points) else 0.0
    return value, {"n_points": len(points), "solver": "prim"}


def run_chromatic(params, rng):
    g = sample_graph(params["P"], rng)
    method = params["method"]
    chi = chromatic_exact(g) if method == "exact" else chromatic_greedy(g)
    return float(chi), {"solver": method, "edges": int(g.adj.sum() // 2)}


def run_jl(params, rng):
    v = sample_unit_vector(params["n"], params["family"], rng)
    stat = jl_projection_statistic(v, params["k"], params["family"])
    return stat.total, {"centered": stat.centered}


def run_binpack(params, rng):
    counts = params["dist"].sample_counts(rng, params["n_items"])
    sol = solve_packing_lp(params["bin_types"], counts.tolist())
    return sol.value, {"rounded": lp_round_up(sol), "duality_gap": sol.duality_gap}


def run_lis(params, rng):
    values = rng.random(params["n"])
    return float(lis(values)), {}


def run_chernoff(params, rng):
    """X = #{u_j < nu_j} - sum(nus) over the first n uniforms u_j of rng,
    each tested as the raw word it comes from against its threshold."""
    words = rng.bit_generator.random_raw(params["n"])
    return float(np.count_nonzero(words < params["thresholds"]) - params["total"]), {}


def draw_gauss(params, rng, out):
    """Fill out, a contiguous float64 row of params["n"], with a gauss_sum
    replicate's standard normals.  out is passed alone: numpy's check of a
    size against it takes longer than drawing a short row."""
    return rng.standard_normal(out=out)


def row_sums(rows):
    """The sum of each row along the last axis: numpy's pairwise sum over
    the row, the same as .sum() of that row alone."""
    return rows.sum(axis=-1)


def run_gauss_sum(params, rng):
    return float(row_sums(draw_gauss(params, rng, np.empty(params["n"])))), {}


REPLICATE_FNS = {
    "tsp": run_tsp,
    "mwst": run_mwst,
    "chromatic": run_chromatic,
    "jl": run_jl,
    "binpack": run_binpack,
    "lis": run_lis,
    "chernoff": run_chernoff,
    "gauss_sum": run_gauss_sum,
}

# Experiments whose replicate draws one row of params["n"] float64 and
# reduces it to f, with no aux: (draw, reduce), the draw and reduction of
# their REPLICATE_FNS entry.  A block runs them a chunk of rows at a time.
ROW_FNS = {"gauss_sum": (draw_gauss, row_sums)}

# The keys of every replicate's aux dict, in the order of their aux_ columns
# in the records CSV (sorted).
AUX_KEYS = {
    "tsp": ("n_points", "solver"),
    "mwst": ("n_points", "solver"),
    "chromatic": ("edges", "solver"),
    "jl": ("centered",),
    "binpack": ("duality_gap", "rounded"),
    "lis": (),
    "chernoff": (),
    "gauss_sum": (),
}

# The stream site each experiment's Philox is keyed to, with its seed.
STREAM_SITES = {
    "tsp": "pointset",
    "mwst": "pointset",
    "chromatic": "graph",
    "jl": "unitvec",
    "binpack": "binpack",
    "lis": "lis",
    "chernoff": "chernoff",
    "gauss_sum": "gauss",
}


def pre_run_gate(config):
    """Hypothesis gates that must refuse before any replicate runs."""
    if config.experiment == "jl":
        params = config.parameters
        n, k = params["n"], params["k"]
        report = check_jl_hypotheses(params["family"], n, k, params["gate_samples"],
                                     substream(config.base_seed, "jl-check"))
        if not report.passed:
            raise HypothesisViolationError(
                f"$.parameters: projection hypotheses violated at n = {n}, k = {k}: "
                + "; ".join(report.reasons()),
                report=report,
            )
        return report
    return None


def experiment_extras(config):
    """Experiment-level reported quantities that do not depend on replicates."""
    if config.experiment == "chromatic":
        P = config.parameters["P"]
        n = P.n
        pbar = P.mean_probability
        extras = {
            "mean_edge_probability": pbar,
            "envelope_n_sqrtp_logn": n * math.sqrt(pbar) * math.log(max(n, 2)),
        }
        if n <= graphs.MAD_MAX_N:
            extras["mad_p"] = mad(P)
            extras["envelope_mad_logn"] = extras["mad_p"] * math.log(max(n, 2))
        return extras
    if config.experiment == "binpack":
        dist = config.parameters["dist"]
        return {"mu": dist.mu, "sigma2": dist.sigma2,
                "variance_scale": config.parameters["n_items"] * (dist.mu**3 + dist.sigma2)}
    return {}
