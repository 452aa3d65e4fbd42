"""Experiment orchestration: deterministic replication, CSV persistence,
summary statistics, and bound-versus-empirical comparison.

Records are a pure function of the configuration: every replicate draws
from its own counter-based stream, and rows are written in replicate
order, so the output bytes do not depend on the worker count.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..bounds import BoundMethod, TypicalProfile, \
    chernoff_corollary_bound, general_chernoff_bound, jl_envelope_curve, \
    main_theorem_curve, tail_bound, theorem1_closed_curve, theorem1_recursion_curve
from ..errors import ConfigError, InvalidArgumentError, OutOfRegimeError, SizeLimitError
from .config import ExperimentConfig, SCALE_KEYS, with_parameters
from .experiments import REPLICATE_FNS, STREAM_SITES, experiment_extras, pre_run_gate
from .rng import derived_seeds, restream

T_GRID_POINTS = 20
T_GRID_LO = 0.5   # in units of the empirical standard deviation
T_GRID_HI = 6.0
VERDICT_SE_MULTIPLIER = 3.0
MIN_BOUND_RECORDS = 100
CSV_HEADER = ["experiment", "replicate", "seed", "param_hash", "f"]
# A pool forks all its workers at once, each a copy of this interpreter
# with numpy loaded (about 25 MB resident on Linux, Python 3.11), so 64
# take about 1.6 GB before any replicate runs; the replicates are
# CPU-bound, so workers past the cores add memory, not speed.
MAX_WORKERS = 64


@dataclass
class ExperimentRecord:
    experiment: str
    replicate: int
    seed: int
    param_hash: str
    f: float
    aux: dict = field(default_factory=dict)


@dataclass
class ConcentrationSummary:
    experiment: str
    replicates: int
    mean: float
    sd: float | None          # None when undefined (single replicate)
    t_grid: np.ndarray
    empirical: np.ndarray     # Pr-hat(|f - mean| >= t) per grid point
    bound: np.ndarray | None = None
    bound_method: str | None = None
    verdicts: list | None = None
    extras: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    @property
    def dominated(self):
        return self.verdicts is not None and all(self.verdicts)

    def to_json(self):
        payload = {
            "experiment": self.experiment,
            "replicates": self.replicates,
            "mean": self.mean,
            "sd": self.sd,
            "t_grid": list(map(float, self.t_grid)),
            "empirical": list(map(float, self.empirical)),
            "bound": None if self.bound is None else list(map(float, self.bound)),
            "bound_method": self.bound_method,
            "verdicts": self.verdicts,
            "extras": self.extras,
            "warnings": self.warnings,
        }
        return json.dumps(payload, indent=2)


def _aux_keys(records):
    keys = set()
    for rec in records:
        keys.update(rec.aux)
    return sorted(keys)


def records_to_csv(records):
    keys = _aux_keys(records)
    buf = io.StringIO()
    header = CSV_HEADER + [f"aux_{k}" for k in keys]
    buf.write(",".join(header) + "\n")
    for rec in records:
        row = [rec.experiment, str(rec.replicate), str(rec.seed),
               rec.param_hash, repr(float(rec.f))]
        for k in keys:
            v = rec.aux.get(k, "")
            if isinstance(v, (float, np.floating)):
                v = repr(float(v))
            row.append(str(v))
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def records_from_csv(text):
    """Records of a CSV written by records_to_csv; '#' lines are skipped.

    A missing header, a row with the wrong number of cells, a non-numeric
    replicate, seed or f, or a non-finite f raises InvalidArgumentError
    naming the line."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1)
             if ln and not ln.startswith("#")]
    if not lines or lines[0][1].split(",")[:5] != CSV_HEADER:
        no = lines[0][0] if lines else 1
        raise InvalidArgumentError(
            f"line {no}: expected a header starting {','.join(CSV_HEADER)}")
    header = lines[0][1].split(",")
    aux_cols = [(idx, name[4:]) for idx, name in enumerate(header)
                if name.startswith("aux_")]
    records = []
    for no, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise InvalidArgumentError(
                f"line {no}: expected {len(header)} cells, got {len(parts)}")
        aux = {}
        for idx, name in aux_cols:
            raw = parts[idx]
            if raw == "":
                continue
            try:
                aux[name] = float(raw)
            except ValueError:
                aux[name] = raw
        try:
            records.append(ExperimentRecord(
                experiment=parts[0], replicate=int(parts[1]), seed=int(parts[2]),
                param_hash=parts[3], f=float(parts[4]), aux=aux,
            ))
        except ValueError as exc:
            raise InvalidArgumentError(f"line {no}: replicate and seed must be "
                                       f"integers and f a number ({exc})") from None
        if not math.isfinite(records[-1].f):
            raise InvalidArgumentError(f"line {no}: f must be finite, got {parts[4]!r}")
    return records


def _replicate_block(experiment, params, base_seed, start, stop, columns=None):
    """Columns (seeds, fs, auxes) of replicates start..stop-1, their seeds
    from rng.derived_seeds.  The block builds one Philox and one Generator
    on it; for each seed it re-keys the Philox to (seed,
    STREAM_SITES[experiment]) and calls REPLICATE_FNS[experiment] on the
    Generator.  The columns are filled in place, so after a replicate
    raises, the columns passed in hold the completed prefix."""
    fn, site = REPLICATE_FNS[experiment], STREAM_SITES[experiment]
    columns = ([], [], []) if columns is None else columns
    out_seeds, fs, auxes = columns
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    for seed in derived_seeds(base_seed, start, stop):
        restream(bit_generator, seed, site)
        f, aux = fn(params, rng)
        out_seeds.append(seed)
        fs.append(float(f))
        auxes.append(aux)
    return columns


def run_replicates(config: ExperimentConfig, workers=1, records=None):
    """All replicate records, in replicate order, worker-count independent.

    With several workers the pool runs contiguous blocks of
    max(1, replicates // (workers * 8)) replicates, each returning its
    columns, on min(workers, number of blocks) processes.  Records are
    appended to `records` (a new list by default), so when a replicate
    raises the caller's list holds the completed prefix: every earlier
    replicate with one worker, every earlier whole block with more."""
    records = [] if records is None else records
    n = config.replicates
    param_hash = config.param_hash()
    block = functools.partial(_replicate_block, config.experiment,
                              config.parameters, config.base_seed)

    def extend(start, columns):
        records.extend(
            ExperimentRecord(config.experiment, start + i, seed, param_hash, f, aux)
            for i, (seed, f, aux) in enumerate(zip(*columns)))

    if workers <= 1:
        columns = ([], [], [])
        try:
            block(0, n, columns)
        finally:
            extend(0, columns)
        return records
    size = max(1, n // (workers * 8))
    starts = range(0, n, size)
    stops = [min(start + size, n) for start in starts]
    with ProcessPoolExecutor(max_workers=min(workers, len(stops))) as pool:
        for start, columns in zip(starts, pool.map(block, starts, stops)):
            extend(start, columns)
    return records


def _check_workers(workers):
    """Refuse a worker count below 1 (exit 2) or above MAX_WORKERS (exit 4)
    before any file is opened or process forked."""
    if workers < 1:
        raise InvalidArgumentError(f"--workers: must be >= 1, got {workers}")
    if workers > MAX_WORKERS:
        raise SizeLimitError(f"--workers: {workers} is above MAX_WORKERS = {MAX_WORKERS}")


def summarize(records, extras=None, warnings=None):
    """Concentration summary from records alone (recomputable from CSV)."""
    fs = np.array([rec.f for rec in records])
    mean = float(fs.mean())
    sd = float(fs.std(ddof=1)) if len(fs) > 1 else None
    scale = sd if sd else 1.0
    t_grid = np.linspace(T_GRID_LO * scale, T_GRID_HI * scale, T_GRID_POINTS)
    dev = np.abs(fs - mean)
    empirical = np.array([float((dev >= t).mean()) for t in t_grid])
    return ConcentrationSummary(
        experiment=records[0].experiment if records else "",
        replicates=len(records), mean=mean, sd=sd, t_grid=t_grid,
        empirical=empirical, extras=dict(extras or {}),
        warnings=list(warnings or []),
    )


def run_experiment(config: ExperimentConfig, workers=1, out=None):
    """Execute all replicates, persist the record CSV, and summarize.

    Returns (records, summary).  A mid-run replicate failure still writes
    the completed prefix plus a '# error ...' trailer before re-raising.
    """
    _check_workers(workers)
    gate_report = pre_run_gate(config)
    path = out or config.output
    records = []
    # Opened before the first replicate, so a bad path fails before any work.
    with open(path, "w") if path else contextlib.nullcontext() as fh:
        try:
            run_replicates(config, workers=workers, records=records)
        except Exception as exc:
            if fh:
                message = " ".join(str(exc).splitlines())  # keep the trailer one line
                fh.write(records_to_csv(records))
                fh.write(f"# error experiment={config.experiment} message={message}\n")
            raise
        if fh:
            fh.write(records_to_csv(records))
    extras = experiment_extras(config)
    if gate_report is not None:
        extras["jl_gate_passed"] = True
    summary = summarize(records, extras=extras, warnings=config.warnings)
    summary = _attach_default_bound(config, records, summary)
    return records, summary


def _attach_default_bound(config, records, summary):
    """Attach the analytic bound curve for experiments that define one.

    A run with fewer than MIN_BOUND_RECORDS replicates keeps its summary
    without a bound curve and gets a warning instead."""
    params = config.parameters
    if config.experiment == "chernoff":
        source = ({"kind": "bernoulli", "n": params["n"], "nu": params["nu"]}
                  if "nu" in params else {"kind": "hetero_bernoulli", "nus": params["nus"]})
    elif config.experiment == "jl":
        source = {"kind": "jl", "n": params["n"], "k": params["k"]}
    else:
        return summary
    if len(records) < MIN_BOUND_RECORDS:
        summary.warnings.append(
            f"{config.experiment}: no bound curve attached; the bound comparison "
            f"needs at least {MIN_BOUND_RECORDS} replicates, got {len(records)}")
        return summary
    return compare_bound(records, None, source, summary=summary)


def _binomial_se(p_hat, n):
    return math.sqrt(max(p_hat * (1 - p_hat), 0.0) / n)


def bound_source(source, m_max=None):
    """(method, JSON-able record of the source, tail_at) of a bound source,
    where tail_at(t) is the TailBoundResult of Pr(|sum| >= t).

    source selects how moment information is obtained:
      {"kind": "bernoulli", "n", "nu"}          analytic, corollary bound
      {"kind": "hetero_bernoulli", "nus"}       analytic, general bound
      {"kind": "closed", "n"}                   closed form (c1*n*m)^(m/2)
      {"kind": "jl", "n", "k"}                  analytic projection envelope
      {"kind": "profile", "profile": ...}       explicit MomentProfile /
                                                TypicalProfile

    The Chernoff corollaries fix m per t by their own rule, and tail_at
    raises OutOfRegimeError outside their regime.  Every other source
    builds its moment curve here, once, and tail_at minimises Markov's
    inequality over it.  An m_max other than None is used as given (so 0 is
    refused).  With None, the closed form and a MomentProfile stop at n
    rounded down to even (a MomentProfile also at its highest order) and a
    TypicalProfile at its highest order.
    """
    kind = source["kind"]
    if kind == "bernoulli":
        n, nu = source["n"], source["nu"]
        return (BoundMethod.CHERNOFF_COROLLARY, {"kind": kind, "n": n, "nu": nu},
                lambda t: chernoff_corollary_bound(n, nu, t))
    if kind == "hetero_bernoulli":
        nu = float(np.sum(source["nus"]))
        return (BoundMethod.GENERAL_CHERNOFF, {"kind": kind, "nu_total": nu},
                lambda t: general_chernoff_bound(nu, t))
    if kind == "closed":
        n = source["n"]
        method, record = BoundMethod.THEOREM1_CLOSED, {"kind": kind, "n": n}
        if m_max is None:
            m_max = max(2, n - n % 2)
        curve = theorem1_closed_curve(n, m_max)
    elif kind == "jl":
        method = BoundMethod.JL_ENVELOPE
        record = {"kind": kind, "n": source["n"], "k": source["k"]}
        curve = jl_envelope_curve(source["n"], source["k"])
    elif kind == "profile":
        profile = source["profile"]
        typical = isinstance(profile, TypicalProfile)
        base = profile.base if typical else profile
        record = {"kind": "profile", "n": base.n, "orders": list(base.orders),
                  "log_M": base.log_m.tolist()}
        if typical:
            record.update(log_L=profile.log_l.tolist(), delta=profile.delta.tolist())
            method = BoundMethod.MAIN_THEOREM
            if m_max is None:
                m_max = max(base.orders)
            curve = main_theorem_curve(profile, m_max)
        else:
            method = BoundMethod.THEOREM1_RECURSION
            if m_max is None:
                m_max = min(max(2, base.n - base.n % 2), max(base.orders))
            curve = theorem1_recursion_curve(profile, m_max)
    else:
        raise InvalidArgumentError(f"unknown profile source {kind!r}")
    return method, record, lambda t: tail_bound(*curve, t, method)


def compare_bound(records, bound_method, profile_source, summary=None):
    """Evaluate the bound of profile_source (see bound_source) over the
    summary's t-grid and attach per-t dominance verdicts (empirical <=
    bound + 3 binomial SEs).  bound_method is a caller's label and is not
    read: the source determines the method.  Where a Chernoff corollary is
    out of its regime the bound is nan and the verdict True.
    """
    if len(records) < MIN_BOUND_RECORDS:
        raise InvalidArgumentError(
            f"compare_bound needs at least {MIN_BOUND_RECORDS} records")
    if summary is None:
        summary = summarize(records)
    method, record, tail_at = bound_source(profile_source)
    curve, verdicts = [], []
    for t, emp in zip(summary.t_grid, summary.empirical):
        try:
            bnd = tail_at(float(t)).tail_probability
            verdicts.append(bool(emp <= bnd + VERDICT_SE_MULTIPLIER
                                 * _binomial_se(emp, len(records))))
        except OutOfRegimeError:
            bnd = math.nan
            verdicts.append(True)  # out of the bound's regime: nothing claimed
        curve.append(bnd)
    summary.bound = np.array(curve)
    summary.bound_method = method.value
    summary.verdicts = verdicts
    summary.extras["bound_profile"] = record
    return summary


@dataclass
class ScalingRow:
    n: int
    mean: float
    sd: float


def _scaling_row(config, n, workers):
    fs = np.array([rec.f for rec in run_replicates(config, workers=workers)])
    return ScalingRow(n=int(n), mean=float(fs.mean()), sd=float(fs.std(ddof=1)))


@dataclass
class ScalingStudy:
    rows: list
    slope: float
    slope_se: float


def scaling_study(config: ExperimentConfig, n_list, workers=1):
    """Run the experiment at each n and fit the log-sd versus log-n slope.

    Every size is validated, then every size passes pre_run_gate, before
    any replicate runs, as run_experiment gates its one size; so no gate
    draws when some size is refused.  Each size's validated config is
    built again for its gate and its run, so the study holds one size's
    arrays at a time."""
    _check_workers(workers)
    if config.replicates < 2:
        raise ConfigError("$.replicates", "must be >= 2 for a scaling study, "
                                          "which needs each size's sd")
    distinct = len(set(n_list))
    if distinct < 3:
        raise InvalidArgumentError("--n-list: need at least 3 distinct sizes for a "
                                   f"slope fit, got {distinct}")
    key = SCALE_KEYS[config.experiment]

    def at_size(n):
        return with_parameters(config, {**config.raw_parameters, key: int(n)})

    for n in n_list:
        at_size(n)
    for n in n_list:
        pre_run_gate(at_size(n))
    rows = [_scaling_row(at_size(n), n, workers) for n in n_list]
    xs = np.log([row.n for row in rows])
    ys = np.log([max(row.sd, 1e-300) for row in rows])
    xbar = xs.mean()
    denom = ((xs - xbar) ** 2).sum()
    slope = float(((xs - xbar) * (ys - ys.mean())).sum() / denom)
    resid = ys - (ys.mean() + slope * (xs - xbar))
    dof = max(len(xs) - 2, 1)
    slope_se = float(math.sqrt((resid**2).sum() / dof / denom))
    return ScalingStudy(rows=rows, slope=slope, slope_se=slope_se)
