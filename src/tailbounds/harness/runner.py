"""Experiment orchestration: deterministic replication, CSV persistence,
summary statistics, and bound-versus-empirical comparison.

Records are a pure function of the configuration: every replicate draws
from its own counter-based stream, each block of replicates formats its
own CSV rows, and the blocks are written in replicate order, so the
output bytes do not depend on the worker count; after a failure they
hold every replicate before the first one that raised.  A block calls
its experiment's replicate function once per replicate, except for an
experiment of experiments.ROW_FNS (gauss_sum): its replicates draw into
the rows of one matrix, which is reduced in one call per chunk.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import _ExceptionWithTraceback
from dataclasses import dataclass, field

import numpy as np

from ..bounds import BoundMethod, TypicalProfile, chernoff_corollary_curve, \
    general_chernoff_curve, jl_envelope_curve, main_theorem_curve, tail_curve, \
    theorem1_closed_curve, theorem1_recursion_curve
from ..errors import ConfigError, InvalidArgumentError, SizeLimitError
from .config import ExperimentConfig, SCALE_KEYS, with_parameters
from .experiments import AUX_KEYS, REPLICATE_FNS, ROW_FNS, STREAM_SITES, \
    experiment_extras, pre_run_gate
from .rng import derived_seeds, restream

T_GRID_POINTS = 20
T_GRID_LO = 0.5   # in units of the empirical standard deviation
T_GRID_HI = 6.0
VERDICT_SE_MULTIPLIER = 3.0
MIN_BOUND_RECORDS = 100
# float64 entries (1 MB) in the chunk of rows that a ROW_FNS block draws
# into before it reduces them.
ROW_CHUNK_ENTRIES = 2**17
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


class Records(Sequence):
    """Replicate records held as columns: a read-only sequence whose items
    are ExperimentRecords, built only when read.

    Every record has the same experiment and param_hash.  replicate and
    seed are integer sequences, f is a float64 array (what summarize and
    compare_bound read), and aux maps each aux key to its column, where
    None marks a cell left empty in a records CSV."""

    def __init__(self, experiment, param_hash, replicate, seed, f, aux):
        self.experiment = experiment
        self.param_hash = param_hash
        self.replicate = replicate
        self.seed = seed
        self.f = f
        self.aux = aux

    def __len__(self):
        return len(self.f)

    def _record(self, i):
        aux = {key: column[i] for key, column in self.aux.items() if column[i] is not None}
        return ExperimentRecord(self.experiment, int(self.replicate[i]), int(self.seed[i]),
                                self.param_hash, float(self.f[i]), aux)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._record(i) for i in range(len(self))[index]]
        return self._record(range(len(self))[index])

    def __iter__(self):
        return map(self._record, range(len(self)))


def _header(aux_keys):
    return ",".join(CSV_HEADER + [f"aux_{key}" for key in aux_keys]) + "\n"


def _cell(value):
    """An aux value as a CSV cell: floats (numpy's too) by repr, the rest by str."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def records_to_csv(records):
    """The records CSV of any iterable of records, one row per record with
    the union of their aux keys, sorted, as aux_ columns; run_replicates
    writes these bytes block by block."""
    keys = sorted({key for rec in records for key in rec.aux})
    rows = [_header(keys)]
    for rec in records:
        row = [rec.experiment, str(rec.replicate), str(rec.seed),
               rec.param_hash, repr(float(rec.f))]
        row.extend(_cell(rec.aux.get(key, "")) for key in keys)
        rows.append(",".join(row) + "\n")
    return "".join(rows)


def _aux_value(cell):
    if cell == "":
        return None
    try:
        return float(cell)
    except ValueError:
        return cell


def records_from_csv(text):
    """Records of a CSV written by records_to_csv; '#' lines are skipped.

    A missing header, a row with the wrong number of cells, a non-numeric
    replicate, seed or f, a non-finite f, or an experiment or param_hash
    other than the first row's raises InvalidArgumentError naming the
    line.  Aux cells are read as floats where they parse as one, empty
    cells as absent."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1)
             if ln and not ln.startswith("#")]
    if not lines or lines[0][1].split(",")[:5] != CSV_HEADER:
        no = lines[0][0] if lines else 1
        raise InvalidArgumentError(
            f"line {no}: expected a header starting {','.join(CSV_HEADER)}")
    header = lines[0][1].split(",")
    aux_cols = [(idx, name[4:]) for idx, name in enumerate(header)
                if name.startswith("aux_")]
    ident = None
    replicates, seeds, fs = [], [], []
    aux = {name: [] for _, name in aux_cols}
    for no, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise InvalidArgumentError(
                f"line {no}: expected {len(header)} cells, got {len(parts)}")
        try:
            replicate, seed, f = int(parts[1]), int(parts[2]), float(parts[4])
        except ValueError as exc:
            raise InvalidArgumentError(f"line {no}: replicate and seed must be "
                                       f"integers and f a number ({exc})") from None
        if not math.isfinite(f):
            raise InvalidArgumentError(f"line {no}: f must be finite, got {parts[4]!r}")
        if ident is None:
            ident = (parts[0], parts[3])
        elif (parts[0], parts[3]) != ident:
            raise InvalidArgumentError(f"line {no}: experiment and param_hash must be "
                                       f"the first row's, {','.join(ident)}")
        replicates.append(replicate)
        seeds.append(seed)
        fs.append(f)
        for idx, name in aux_cols:
            aux[name].append(_aux_value(parts[idx]))
    experiment, param_hash = ident or ("", "")
    return Records(experiment, param_hash, replicates, seeds,
                   np.array(fs, dtype=np.float64), aux)


class _Block(tuple):
    """(text, seeds, fs, aux, error): what _run_block returns."""

    def __reduce__(self):
        # A pickled exception loses its traceback, so a block sent back from
        # a pool worker wraps its error as pool.map wraps an exception that a
        # worker raises: it comes back with the worker's traceback as its cause.
        *columns, error = self
        if error is not None:
            error = _ExceptionWithTraceback(error, error.__traceback__)
        return _Block, ((*columns, error),)


def _run_each(experiment, params, base_seed, start, stop, seeds, fs, auxes):
    """Run replicates start..stop-1 one call at a time, appending the seed,
    f and aux of each to seeds, fs and auxes as it completes.

    One Generator on one Philox serves the block: for each seed the Philox
    is re-keyed to (seed, STREAM_SITES[experiment]) and
    REPLICATE_FNS[experiment] is called on the Generator.  A replicate
    whose aux keys are not AUX_KEYS[experiment] raises a ValueError naming
    it."""
    fn, site, keys = REPLICATE_FNS[experiment], STREAM_SITES[experiment], AUX_KEYS[experiment]
    key_set = set(keys)
    rng = np.random.Generator(np.random.Philox(0))
    for seed in derived_seeds(base_seed, start, stop):
        restream(rng.bit_generator, seed, site)
        f, aux = fn(params, rng)
        if aux.keys() != key_set:
            raise ValueError(f"{experiment} replicate {start + len(fs)}: aux keys "
                             f"{sorted(aux)} are not {list(keys)}")
        seeds.append(seed)
        fs.append(float(f))
        auxes.append(aux)


def _run_rows(experiment, params, base_seed, start, stop, seeds, fs):
    """_run_each for an experiment of ROW_FNS, whose replicates have no aux.

    Each replicate re-keys the Philox as _run_each does and draws into the
    next row of a chunk of at most ROW_CHUNK_ENTRIES entries (one row when
    a row is longer); a full chunk is reduced in one call.  When a
    replicate raises, the rows drawn before it are reduced before the
    exception leaves."""
    draw, reduce = ROW_FNS[experiment]
    site, n = STREAM_SITES[experiment], params["n"]
    rng = np.random.Generator(np.random.Philox(0))
    chunk = np.empty((min(stop - start, max(1, ROW_CHUNK_ENTRIES // n)), n))
    filled = 0
    try:
        for seed in derived_seeds(base_seed, start, stop):
            if filled == len(chunk):
                fs.extend(reduce(chunk).tolist())
                filled = 0
            restream(rng.bit_generator, seed, site)
            draw(params, rng, chunk[filled])
            seeds.append(seed)
            filled += 1
    finally:
        fs.extend(reduce(chunk[:filled]).tolist())


def _run_block(experiment, params, base_seed, param_hash, start, stop):
    """(text, seeds, fs, aux, error) of replicates start..stop-1: the one
    way a block runs, with one worker or many.

    The seeds come from rng.derived_seeds.  An experiment of ROW_FNS runs
    as rows (_run_rows), every other one call per replicate (_run_each).
    The first replicate that raises ends the block.  text holds the rows
    of the replicates before it, as records_to_csv writes them; seeds
    (uint64), fs (float64) and aux (one list per aux key) are their
    columns; error is that exception, or None."""
    seeds, fs, auxes, error = [], [], [], None
    try:
        if experiment in ROW_FNS:
            _run_rows(experiment, params, base_seed, start, stop, seeds, fs)
        else:
            _run_each(experiment, params, base_seed, start, stop, seeds, fs, auxes)
    except Exception as exc:
        error = exc
    aux = {key: [a[key] for a in auxes] for key in AUX_KEYS[experiment]}
    rows = [f"{experiment},{start + i},{seed},{param_hash},{f!r}"
            for i, (seed, f) in enumerate(zip(seeds, fs))]
    for column in aux.values():
        rows = [f"{row},{_cell(value)}" for row, value in zip(rows, column)]
    return _Block(("".join(row + "\n" for row in rows), np.array(seeds, dtype=np.uint64),
                   np.array(fs, dtype=np.float64), aux, error))


def run_replicates(config: ExperimentConfig, workers=1, out=None):
    """All replicate records as Records, in replicate order, worker-count
    independent.

    The replicates run in contiguous blocks of max(1, replicates //
    (workers * 8)), each a _run_block: mapped in this process with one
    worker, else on a pool of min(workers, number of blocks) processes.
    With an open file `out`, the header and then each block's rows are
    written to it in replicate order as the blocks complete.  After the
    rows of a block that a replicate ended, that replicate's exception is
    raised, so out holds every replicate before the first one that
    raised, whatever the worker count."""
    n, experiment = config.replicates, config.experiment
    keys = AUX_KEYS[experiment]
    param_hash = config.param_hash()
    seeds, fs, aux = [], [], {key: [] for key in keys}
    if out is not None:
        out.write(_header(keys))
    size = max(1, n // (workers * 8))
    starts = range(0, n, size)
    stops = [min(start + size, n) for start in starts]
    block = functools.partial(_run_block, experiment, config.parameters, config.base_seed,
                              param_hash)
    with ProcessPoolExecutor(max_workers=min(workers, len(stops))) if workers > 1 \
            else contextlib.nullcontext() as pool:
        for text, block_seeds, block_fs, block_aux, error in (
                pool.map if pool else map)(block, starts, stops):
            if out is not None:
                out.write(text)
            seeds.append(block_seeds)
            fs.append(block_fs)
            for key in keys:
                aux[key].extend(block_aux[key])
            if error is not None:
                raise error
    return Records(experiment, param_hash, range(n), np.concatenate(seeds),
                   np.concatenate(fs), aux)


def _check_workers(workers):
    """Refuse a worker count below 1 (exit 2) or above MAX_WORKERS (exit 4)
    before any file is opened or process forked."""
    if workers < 1:
        raise InvalidArgumentError(f"--workers: must be >= 1, got {workers}")
    if workers > MAX_WORKERS:
        raise SizeLimitError(f"--workers: {workers} is above MAX_WORKERS = {MAX_WORKERS}")


def summarize(records, extras=None, warnings=None):
    """Concentration summary of Records' f column (recomputable from CSV)."""
    fs = records.f
    mean = float(fs.mean())
    sd = float(fs.std(ddof=1)) if len(fs) > 1 else None
    scale = sd if sd else 1.0
    t_grid = np.linspace(T_GRID_LO * scale, T_GRID_HI * scale, T_GRID_POINTS)
    dev = np.abs(fs - mean)
    empirical = np.array([float((dev >= t).mean()) for t in t_grid])
    return ConcentrationSummary(
        experiment=records.experiment, replicates=len(fs), mean=mean, sd=sd,
        t_grid=t_grid, empirical=empirical, extras=dict(extras or {}),
        warnings=list(warnings or []),
    )


def run_experiment(config: ExperimentConfig, workers=1, out=None):
    """Execute all replicates, stream the records CSV, and summarize.

    Returns (records, summary), records as Records.  A mid-run replicate
    failure leaves the completed prefix (see run_replicates) plus a
    '# error ...' trailer in the file before re-raising.
    """
    _check_workers(workers)
    gate_report = pre_run_gate(config)
    path = out or config.output
    # Opened before the first replicate, so a bad path fails before any work.
    with open(path, "w") if path else contextlib.nullcontext() as fh:
        try:
            records = run_replicates(config, workers=workers, out=fh)
        except Exception as exc:
            if fh:
                message = " ".join(str(exc).splitlines())  # keep the trailer one line
                fh.write(f"# error experiment={config.experiment} message={message}\n")
            raise
    extras = experiment_extras(config)
    if gate_report is not None:
        extras["jl_gate_passed"] = True
    summary = summarize(records, extras=extras, warnings=config.warnings)
    summary = _attach_default_bound(config, records, summary)
    return records, summary


def _attach_default_bound(config, records, summary):
    """Attach the analytic bound curve for experiments that define one.  A
    chernoff run of equal means nu takes the corollary with sigma2 =
    nu(1 - nu), which bounds every even centred moment of a Bernoulli(nu).

    A run with fewer than MIN_BOUND_RECORDS replicates keeps its summary
    without a bound curve and gets a warning instead."""
    params = config.parameters
    if config.experiment == "chernoff":
        nu = params.get("nu")
        source = ({"kind": "bernoulli", "n": params["n"], "sigma2": nu * (1 - nu)}
                  if nu is not None else {"kind": "hetero_bernoulli", "nus": params["nus"]})
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


def bound_source(source, t_grid, m_max=None):
    """(method, JSON-able record of the source, TailCurve over t_grid) of a
    bound source: its moment curve, built once, and Markov's inequality
    minimised over it at every t of t_grid.

    source selects how moment information is obtained:
      {"kind": "bernoulli", "n", "sigma2"}      analytic, corollary curve
      {"kind": "hetero_bernoulli", "nus"}       analytic, general curve
      {"kind": "closed", "n"}                   closed form (c1*n*m)^(m/2)
      {"kind": "jl", "n", "k"}                  analytic projection envelope
      {"kind": "profile", "profile": ...}       explicit MomentProfile /
                                                TypicalProfile

    The two Chernoff curves stop at the highest order that the largest t
    of t_grid can need (see their docstrings) and do not read m_max.  For
    the rest, an m_max other than None is used as given (so 0 is refused).
    With None, the closed form and a MomentProfile stop at n rounded down
    to even (a MomentProfile also at its highest order) and a
    TypicalProfile at its highest order: the one order-cap rule of run,
    compare_bound and the bound command.
    """
    kind = source["kind"]
    if kind == "bernoulli":
        n, sigma2 = source["n"], source["sigma2"]
        method, record = BoundMethod.CHERNOFF_COROLLARY, {"kind": kind, "n": n, "sigma2": sigma2}
        curve = chernoff_corollary_curve(n, sigma2, float(np.max(t_grid)))
    elif kind == "hetero_bernoulli":
        nu = float(np.sum(source["nus"]))
        method, record = BoundMethod.GENERAL_CHERNOFF, {"kind": kind, "nu_total": nu}
        curve = general_chernoff_curve(nu, float(np.max(t_grid)))
    elif kind == "closed":
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
    return method, record, tail_curve(*curve, t_grid)


def compare_bound(records, bound_method, profile_source, summary=None):
    """Evaluate the bound of profile_source (see bound_source) over the
    summary's t-grid and attach per-t dominance verdicts (empirical <=
    bound + 3 binomial SEs).  bound_method is a caller's label and is not
    read: the source determines the method.
    """
    if len(records) < MIN_BOUND_RECORDS:
        raise InvalidArgumentError(
            f"compare_bound needs at least {MIN_BOUND_RECORDS} records")
    if summary is None:
        summary = summarize(records)
    method, record, curve = bound_source(profile_source, summary.t_grid)
    bound = curve.tail_probability
    summary.verdicts = [bool(emp <= bnd + VERDICT_SE_MULTIPLIER
                             * _binomial_se(emp, len(records)))
                        for emp, bnd in zip(summary.empirical, bound.tolist())]
    summary.bound = bound
    summary.bound_method = method.value
    summary.extras["bound_profile"] = record
    return summary


@dataclass
class ScalingRow:
    n: int
    mean: float
    sd: float


def _scaling_row(config, n, workers):
    fs = run_replicates(config, workers=workers).f
    return ScalingRow(n=int(n), mean=float(fs.mean()), sd=float(fs.std(ddof=1)))


@dataclass
class ScalingStudy:
    experiment: str
    rows: list
    slope: float
    slope_se: float

    def to_json(self):
        return json.dumps({
            "experiment": self.experiment,
            "rows": [{"n": r.n, "mean": r.mean, "sd": r.sd} for r in self.rows],
            "slope": self.slope,
            "slope_se": self.slope_se,
        }, indent=2)


def scaling_study(config: ExperimentConfig, n_list, workers=1, out=None):
    """Run the experiment at each n and fit the log-sd versus log-n slope.

    Every size is validated, then every size passes pre_run_gate, before
    any replicate runs, as run_experiment gates its one size; so no gate
    draws when some size is refused.  Only then is the file `out` opened
    (so a refused study leaves it as it was, and a bad path fails before
    any replicate runs); the study's JSON is written to it at the end.
    Each size's validated config is built again for its gate and its run,
    so the study holds one size's arrays at a time."""
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
    with open(out, "w") if out else contextlib.nullcontext() as fh:
        rows = [_scaling_row(at_size(n), n, workers) for n in n_list]
        xs = np.log([row.n for row in rows])
        ys = np.log([max(row.sd, 1e-300) for row in rows])
        xbar = xs.mean()
        denom = ((xs - xbar) ** 2).sum()
        slope = float(((xs - xbar) * (ys - ys.mean())).sum() / denom)
        resid = ys - (ys.mean() + slope * (xs - xbar))
        dof = max(len(xs) - 2, 1)
        slope_se = float(math.sqrt((resid**2).sum() / dof / denom))
        study = ScalingStudy(config.experiment, rows, slope, slope_se)
        if fh:
            fh.write(study.to_json() + "\n")
    return study
