"""Acceptance suite: one test per criterion, each asserting its stated
tolerance and runtime budget and printing one pass line (run with -s to
see them live)."""

import json
import math
import time

import numpy as np
import pytest

from conftest import (
    chromatic_brute,
    lis_brute,
    mad_brute,
    rademacher_moment_exact,
)
from tailbounds.bounds import (
    MomentProfile,
    chernoff_corollary_bound,
    general_chernoff_bound,
    theorem1_closed_curve,
    theorem1_recursion_bound,
)
from tailbounds.graphs import EdgeProbabilityMatrix, chromatic_exact, mad, mad_realized, \
    sample_graph
from tailbounds.harness import cli
from tailbounds.harness.config import parse_config
from tailbounds.harness.rng import substream
from tailbounds.harness.runner import (
    compare_bound,
    run_experiment,
    run_replicates,
    scaling_study,
)
from tailbounds.packing import enumerate_bin_types, lower_bound_distribution, \
    lp_value_after_insert, solve_packing_lp
from tailbounds.seq import SphereUniform, check_jl_hypotheses, essential_probability, lis
from test_packing import random_distribution


def _report(criterion, message):
    print(f"ACCEPTANCE PASS criterion {criterion}: {message}")


def _config(experiment, replicates, base_seed, **params):
    return parse_config({
        "schema_version": 1,
        "experiment": experiment,
        "replicates": replicates,
        "base_seed": base_seed,
        "parameters": params,
    })


def test_criterion_1_recursion_dominates_exact_moments():
    start = time.monotonic()
    failures = 0
    for n in range(1, 13):
        for m in (2, 4, 6):
            profile = MomentProfile.uniform(
                n, {l: 1.0 for l in range(2, m + 1, 2)})
            exact = float(rademacher_moment_exact(n, m))
            bound = math.exp(theorem1_recursion_bound(profile, m))
            if bound < exact * (1 - 1e-12):
                failures += 1
    elapsed = time.monotonic() - start
    assert failures == 0
    assert elapsed < 10.0
    _report(1, f"recursion >= exact sign-sum moments for n<=12, m in {{2,4,6}} "
               f"({elapsed:.2f}s)")


def test_criterion_2_recursion_below_closed_form():
    failures = 0
    for n in range(4, 65):
        for m in (2, 4, 6, 8):
            if m > n:
                continue
            profile = MomentProfile.uniform(
                n, {t: (n / m) ** ((t - 2) / 2) * math.factorial(t)
                    for t in range(2, m + 1, 2)})
            if theorem1_recursion_bound(profile, m) > theorem1_closed_curve(n, m)[1][-1]:
                failures += 1
    assert failures == 0
    _report(2, "DP bound <= (48nm)^(m/2) across n in 4..64, even m <= min(n, 8)")


def test_criterion_3_chernoff_dominance():
    start = time.monotonic()
    # i.i.d. Bernoulli(0.5), centered sums
    cfg = _config("chernoff", 100000, 20260808, n=1000, nu=0.5)
    records = run_replicates(cfg)
    summary = compare_bound(records, "chernoff_corollary",
                            {"kind": "bernoulli", "n": 1000, "sigma2": 0.25})
    assert summary.dominated
    fs = np.array([r.f for r in records])
    dev = np.abs(fs - fs.mean())
    n_rec = len(fs)
    for t in (20, 40, 60, 80, 100):
        emp = float((dev >= t).mean())
        se = math.sqrt(max(emp * (1 - emp), 0.0) / n_rec)
        bound = chernoff_corollary_bound(1000, 0.25, float(t)).tail_probability
        assert emp <= bound + 3 * se

    # heterogeneous means, alternating 0.1 / 0.9
    cfg = _config("chernoff", 100000, 20260809, n=1000,
                  nus={"kind": "alternating", "values": [0.1, 0.9]})
    records = run_replicates(cfg)
    nus = np.resize(np.array([0.1, 0.9]), 1000)
    summary = compare_bound(records, "general_chernoff",
                            {"kind": "hetero_bernoulli", "nus": nus.tolist()})
    assert summary.dominated
    fs = np.array([r.f for r in records])
    dev = np.abs(fs - fs.mean())
    nu_total = float(nus.sum())
    for t in (20, 40, 60):
        emp = float((dev >= t).mean())
        se = math.sqrt(max(emp * (1 - emp), 0.0) / n_rec)
        bound = general_chernoff_bound(nu_total, float(t)).tail_probability
        assert emp <= bound + 3 * se
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(3, f"empirical tails dominated by both Bernoulli-style bounds at "
               f"every grid t, 1e5 replicates each ({elapsed:.1f}s)")


def test_criterion_4_tsp_flatness_with_clt_calibration():
    start = time.monotonic()
    cfg = _config("tsp", 200, 41, n_cells=100,
                  count_dist={"kind": "poisson", "mean": 1.0},
                  placement="uniform_in_cell")
    study = scaling_study(cfg, [100, 400, 900], workers=2)
    assert -0.15 <= study.slope <= 0.15, f"tsp slope {study.slope}"
    ref = _config("gauss_sum", 3000, 42, n=100)
    ref_study = scaling_study(ref, [100, 400, 900])
    assert abs(ref_study.slope - 0.5) <= 0.05, f"reference slope {ref_study.slope}"
    elapsed = time.monotonic() - start
    assert elapsed < 1800.0
    _report(4, f"2-opt tour sd slope {study.slope:+.3f} in [-0.15, 0.15]; "
               f"CLT reference {ref_study.slope:.3f} in 0.5+-0.05 ({elapsed:.0f}s)")


def test_criterion_5_mwst_flatness():
    start = time.monotonic()
    cfg = _config("mwst", 200, 51, n_cells=100,
                  count_dist={"kind": "poisson", "mean": 1.0},
                  placement="uniform_in_cell")
    study = scaling_study(cfg, [100, 400, 900], workers=2)
    elapsed = time.monotonic() - start
    assert -0.15 <= study.slope <= 0.15, f"mwst slope {study.slope}"
    assert elapsed < 300.0
    _report(5, f"exact MST sd slope {study.slope:+.3f} in [-0.15, 0.15] "
               f"({elapsed:.0f}s)")


def test_criterion_6_heavy_tail_robustness():
    start = time.monotonic()
    cfg = _config("mwst", 200, 61, n_cells=100,
                  count_dist={"kind": "zeta", "s": 6.0, "cap": 10**6,
                              "p0": 0.35},
                  placement="corner_bunch")
    study = scaling_study(cfg, [100, 400, 900], workers=2)
    elapsed = time.monotonic() - start
    assert -0.15 <= study.slope <= 0.15, f"heavy-tail slope {study.slope}"
    assert elapsed < 300.0
    _report(6, f"power-law counts + corner bunching keep the MST sd slope "
               f"{study.slope:+.3f} in [-0.15, 0.15] ({elapsed:.0f}s)")


def test_criterion_7_binpack_variance_law():
    start = time.monotonic()
    ratios = {}
    for k in (4, 6, 8):
        dist = lower_bound_distribution(k)
        scale_base = dist.mu**3 + dist.sigma2
        for n in (2000, 8000):
            cfg = _config("binpack", 500, 70 + k,
                          dist={"kind": "lower_bound", "k": k}, n_items=n)
            records = run_replicates(cfg)
            fs = np.array([r.f for r in records])
            ratios[(k, n)] = float(fs.var(ddof=1) / (n * scale_base))
    for key, ratio in ratios.items():
        assert 1 / 50 <= ratio <= 50, f"ratio {ratio} at {key}"
    for k in (4, 6, 8):
        growth = ratios[(k, 8000)] / ratios[(k, 2000)]
        assert growth < 2.0, f"variance ratio grew {growth}x at k={k}"
    elapsed = time.monotonic() - start
    assert elapsed < 1200.0
    _report(7, "Var(f_LP)/(n(mu^3+sigma^2)) within [1/50, 50] on all six "
               f"cells and stable under n quadrupling ({elapsed:.0f}s)")


def test_criterion_8_lp_internal_checks():
    rng = np.random.default_rng(808)
    duality_failures = 0
    sandwich_failures = 0
    for trial in range(1000):
        d = random_distribution(rng)
        types = enumerate_bin_types(d)
        counts = [int(c) for c in rng.integers(0, 60, d.r)]
        sol = solve_packing_lp(types, counts)
        if sol.duality_gap > 1e-9 * (1 + abs(sol.value)):
            duality_failures += 1
        # the size vector is always dual feasible
        if (types.rows @ np.array(d.sizes) > 1 + 1e-9).any():
            duality_failures += 1
        k = int(rng.integers(0, d.r))
        delta = lp_value_after_insert(types, counts, k) - sol.value
        zeta = d.sizes[k]
        if not (sol.y[k] - 1e-7 <= delta <= zeta + 2 * zeta**2 + 1e-9):
            sandwich_failures += 1
    assert duality_failures == 0
    assert sandwich_failures == 0
    _report(8, "strong duality gap <= 1e-9 and insertion sandwich "
               "delta in [y_k, zeta_k + 2 zeta_k^2] on 1000 random instances")


def test_criterion_9_lis_suite():
    start = time.monotonic()
    # patience equals exhaustive chain enumeration
    rng = np.random.default_rng(909)
    for _ in range(500):
        n = int(rng.integers(1, 16))
        values = rng.random(n).tolist()
        assert lis(values) == lis_brute(values)

    # mean level at n = 1e4
    cfg = _config("lis", 200, 91, n=10000)
    records = run_replicates(cfg)
    level = float(np.mean([r.f for r in records])) / 100.0
    assert 1.80 <= level <= 2.05, f"E lis(1e4)/100 = {level}"

    # essentiality estimates: non-decreasing in position, and the scaled
    # head estimate stays below 4
    est30 = essential_probability(30, 1, [], resamples=3000,
                                  rng=substream(92, "essential", 30, 1))
    for j in range(29):
        slack = 3 * math.sqrt(est30.standard_error[j] ** 2
                              + est30.standard_error[j + 1] ** 2)
        assert est30.a_hat[j] <= est30.a_hat[j + 1] + slack
    est100 = essential_probability(100, 1, [], resamples=2000,
                                   rng=substream(93, "essential", 100, 1))
    scaled = est100.a_hat * np.sqrt(np.arange(100, 0, -1))
    assert scaled.max() <= 4.0, f"max scaled essential prob {scaled.max()}"
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report(9, f"patience = brute force on 500 cases; E lis(1e4)/100 = "
               f"{level:.3f} in [1.80, 2.05]; essentiality monotone and "
               f"scaled <= 4 ({elapsed:.0f}s)")


def test_criterion_10_jl_suite(tmp_path):
    # sphere-uniform passes the hypothesis gate
    report = check_jl_hypotheses(SphereUniform(), 1000, 100, samples=10000,
                                 rng=substream(101, "jl-check"))
    assert report.passed

    # empirical sd of the projected squared norm sits inside the
    # second-moment envelope evaluated by the bounds engine
    cfg = _config("jl", 2000, 102, n=1000, k=100, gate_samples=2000)
    records = run_replicates(cfg)
    fs = np.array([r.f for r in records])
    sd = float(fs.std(ddof=1))
    envelope = math.sqrt(math.exp(
        theorem1_closed_curve(100, 2)[1][-1] - 2 * math.log(1000)))
    assert sd <= envelope, f"sd {sd} above envelope {envelope}"
    assert sd <= 10 * math.sqrt(100) / 1000  # C*sqrt(k)/n with generous C

    # a hypothesis-violating family is refused with exit code 3
    bad_cfg = tmp_path / "jl_bad.json"
    bad_cfg.write_text(json.dumps({
        "schema_version": 1, "experiment": "jl", "replicates": 10,
        "base_seed": 103,
        "parameters": {"n": 400, "k": 100, "gate_samples": 2000,
                       "family": {"kind": "radial_beta", "scale": 4.0,
                                  "a": 0.5, "b": 0.5}},
    }))
    assert cli.main(["run", str(bad_cfg)]) == 3
    _report(10, f"sphere passes the gate; sd {sd:.4f} <= envelope "
                f"{envelope:.4f}; violating family refused with exit code 3")


def test_criterion_11_graph_suite():
    rng = np.random.default_rng(1111)
    # exact chromatic number equals brute force on 200 small graphs
    for trial in range(200):
        n = int(rng.integers(2, 9))
        p = float(rng.uniform(0.1, 0.9))
        g = sample_graph(EdgeProbabilityMatrix.uniform(n, p),
                         substream(int(rng.integers(1 << 30)), "graph"))
        assert chromatic_exact(g) == chromatic_brute(g.adj)
        assert chromatic_exact(g) <= int(mad_realized(g)) + 1

    # mad equals subset brute force on 100 matrices
    for trial in range(100):
        n = int(rng.integers(4, 16))
        p = np.triu(rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.7), 1)
        p = p + p.T
        assert mad(EdgeProbabilityMatrix(p)) == pytest.approx(mad_brute(p),
                                                              abs=1e-9)

    # sd of the chromatic number is finite and reported with its envelopes
    sds = {}
    for n in (15, 25):
        cfg = _config("chromatic", 300, 110 + n, n=n,
                      p_spec={"kind": "uniform", "p": 0.1})
        records, summary = run_experiment(cfg)
        assert summary.sd is not None and np.isfinite(summary.sd)
        assert summary.extras["envelope_n_sqrtp_logn"] > 0
        assert summary.extras["envelope_mad_logn"] > 0
        sds[n] = (summary.sd, summary.extras["envelope_n_sqrtp_logn"])
    _report(11, "chromatic = brute force (200 graphs), mad = subset brute "
                "force (100 matrices), chi <= floor(MAD)+1; sd(chi) reported "
                + ", ".join(f"n={n}: {sd:.3f} (envelope {env:.1f})"
                            for n, (sd, env) in sds.items()))


def test_criterion_12_determinism_across_workers(tmp_path):
    raw = {
        "schema_version": 1, "experiment": "mwst", "replicates": 16,
        "base_seed": 121,
        "parameters": {"n_cells": 49,
                       "count_dist": {"kind": "poisson", "mean": 1.0},
                       "placement": "uniform_in_cell"},
    }
    cfg = parse_config(raw)
    texts = []
    for workers in (1, 2, 3):
        out = tmp_path / f"records_w{workers}.csv"
        run_experiment(cfg, workers=workers, out=str(out))
        texts.append(out.read_bytes())
    assert texts[0] == texts[1] == texts[2]
    cfg2 = parse_config(raw)
    out = tmp_path / "records_rerun.csv"
    run_experiment(cfg2, workers=2, out=str(out))
    assert out.read_bytes() == texts[0]
    _report(12, "byte-identical record CSVs across reruns and worker counts")
