"""Per-experiment replicate functions.

A replicate function in REPLICATE_FNS maps (parameters, seed) to a
functional value plus auxiliary metrics.  The seed is
derived_seed(base_seed, replicate), which the runner takes from
rng.derived_seeds and writes to the record's seed column.  All randomness
flows from that seed through counter-based streams, so results do not
depend on execution order.  tsp, mwst, chromatic and jl run this way:
their samplers key their own stream sites.

A block function in REPLICATE_BLOCKS runs the replicates of a whole block
of seeds instead, filling the record columns one replicate at a time.
gauss_sum, lis and binpack each draw from one stream site ("gauss", "lis"
and "binpack"): their blocks, made by stream_block, build one Philox and
one Generator on it, re-key the Philox with rng.restream for each seed and
call the replicate function with (parameters, Generator).  Their draws
are those of a new substream(seed, site).  chernoff re-keys one Philox in
the same way but builds no Generator: it compares raw words with
per-variable thresholds, which gives exactly the values of a new
Generator's uniforms compared with the means.

The parameters are the validated dict of config.parse_config, so every
domain object is built once per config and only read here:
  tsp         n_cells, count_dist, placement, max_passes
  mwst        n_cells, count_dist, placement
  chromatic   n, P (EdgeProbabilityMatrix), method (exact or greedy),
              exact_cap
  jl          n, k, family, gate_samples
  binpack     dist (ItemDistribution), bin_types (BinTypeSet), n_items
  chernoff    n, nus (per-variable means), nu when they are all equal
  lis, gauss_sum  n
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import HypothesisViolationError
from ..euclid import mst_weight, tsp_2opt, tsp_exact, tsp_strip, TSP_EXACT_MAX_POINTS
from ..graphs import chromatic_exact, chromatic_greedy, mad, sample_graph
from ..packing import lp_round_up, solve_packing_lp
from ..pointproc import sample_point_set
from ..seq import check_jl_hypotheses, jl_projection_statistic, lis, sample_unit_vector
from .rng import restream


def _tsp_value(points, params):
    s = len(points)
    if s == 0:
        return 0.0, "empty"
    if s <= TSP_EXACT_MAX_POINTS:
        return tsp_exact(points).length, "exact"
    start = tsp_strip(points, alpha=1.0)
    return tsp_2opt(points, start, max_passes=params["max_passes"]).length, "2opt_strip"


def run_tsp(params, seed):
    points = sample_point_set(params["n_cells"], params["count_dist"],
                              params["placement"], seed).points
    value, solver = _tsp_value(points, params)
    return value, {"n_points": len(points), "solver": solver}


def run_mwst(params, seed):
    points = sample_point_set(params["n_cells"], params["count_dist"],
                              params["placement"], seed).points
    value = mst_weight(points).weight if len(points) else 0.0
    return value, {"n_points": len(points), "solver": "prim"}


def run_chromatic(params, seed):
    g = sample_graph(params["P"], seed)
    method = params["method"]
    if method == "exact":
        chi = chromatic_exact(g, cap=params["exact_cap"])
    else:
        chi = chromatic_greedy(g)
    return float(chi), {"solver": method, "edges": int(g.adj.sum() // 2)}


def run_jl(params, seed):
    v = sample_unit_vector(params["n"], params["family"], seed)
    stat = jl_projection_statistic(v, params["k"], params["family"])
    return stat.total, {"centered": stat.centered}


def run_binpack(params, rng):
    counts = params["dist"].sample_counts(rng, params["n_items"])
    sol = solve_packing_lp(params["bin_types"], counts.tolist())
    return sol.value, {"rounded": lp_round_up(sol), "duality_gap": sol.duality_gap}


def run_lis(params, rng):
    values = rng.random(params["n"])
    return float(lis(values)), {}


def run_chernoff_block(params, seeds, columns):
    """Fill columns (seeds, fs, auxes) with the chernoff replicate of each
    seed in turn, so that after a raise they hold the completed prefix.

    A replicate is X = #{u_j < nu_j} - sum(nus) over the first n uniforms
    u_j of the stream at site "chernoff".  One Philox is re-keyed for each
    seed, and each u_j is tested as the raw word it comes from."""
    out_seeds, fs, auxes = columns
    nus, n = params["nus"], params["n"]
    total = nus.sum()
    # Generator.random on Philox returns u = (w >> 11) * 2**-53 for the raw
    # word w.  For the integer q = w >> 11, q * 2**-53 < nu holds iff
    # q < ceil(nu * 2**53), which holds iff w < ceil(nu * 2**53) * 2**11.
    # Scaling by 2**53 is exact, and nu < 1 keeps the threshold below 2**64.
    thresholds = np.ceil(nus * 2.0**53).astype(np.uint64) << 11
    bit_generator = np.random.Philox(0)
    for seed in seeds:
        words = restream(bit_generator, seed, "chernoff").random_raw(n)
        k = np.count_nonzero(words < thresholds)
        out_seeds.append(seed)
        fs.append(float(k - total))
        auxes.append({})


def run_gauss_sum(params, rng):
    return float(rng.standard_normal(params["n"]).sum()), {}


def stream_block(site, replicate):
    """The block function that runs replicate(params, rng) for each seed,
    with rng one Generator whose Philox is re-keyed to (seed, site)."""
    def run_block(params, seeds, columns):
        out_seeds, fs, auxes = columns
        bit_generator = np.random.Philox(0)
        rng = np.random.Generator(bit_generator)
        for seed in seeds:
            restream(bit_generator, seed, site)
            f, aux = replicate(params, rng)
            out_seeds.append(seed)
            fs.append(float(f))
            auxes.append(aux)

    return run_block


REPLICATE_FNS = {
    "tsp": run_tsp,
    "mwst": run_mwst,
    "chromatic": run_chromatic,
    "jl": run_jl,
}

# Experiments whose replicates run as one call per block of seeds; the
# runner calls these in place of a REPLICATE_FNS entry.
REPLICATE_BLOCKS = {
    "chernoff": run_chernoff_block,
    "binpack": stream_block("binpack", run_binpack),
    "lis": stream_block("lis", run_lis),
    "gauss_sum": stream_block("gauss", run_gauss_sum),
}


def pre_run_gate(config):
    """Hypothesis gates that must refuse before any replicate runs."""
    if config.experiment == "jl":
        family = config.parameters["family"]
        report = check_jl_hypotheses(
            family, config.parameters["n"], config.parameters["k"],
            samples=max(100, config.parameters["gate_samples"]),
            seed=config.base_seed,
        )
        if not report.passed:
            raise HypothesisViolationError(
                "projection hypotheses violated: " + "; ".join(report.reasons()),
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
        if n <= 200:
            extras["mad_p"] = mad(P)
            extras["envelope_mad_logn"] = extras["mad_p"] * math.log(max(n, 2))
        return extras
    if config.experiment == "binpack":
        dist = config.parameters["dist"]
        return {"mu": dist.mu, "sigma2": dist.sigma2,
                "variance_scale": config.parameters["n_items"] * (dist.mu**3 + dist.sigma2)}
    return {}
