"""Experiment configuration: a versioned JSON schema validated before any
replicate runs.  Unknown keys are rejected with the offending field path.

Validation is the one place that turns JSON into run inputs: it builds
each domain object once and stores it in place of its JSON spec."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import inspect
import json
import math
import sys

import numpy as np

from ..bounds import MomentProfile, TypicalProfile
from ..errors import ConfigError, SizeLimitError
from ..graphs import CHROMATIC_EXACT_CAP, EdgeProbabilityMatrix
from ..packing import ItemDistribution, enumerate_bin_types, lower_bound_distribution
from ..pointproc import Deterministic, PlacementStrategy, Poisson, TruncatedZeta, TwoPoint
from ..seq import RadialBetaMixture, SphereUniform

SCHEMA_VERSION = 1

_REQUIRED = object()

# Size caps, checked before any table or array is built.  On grid configs,
# a zeta law sums its normaliser and mean over chunks of 2^14 counts (a
# tracemalloc peak under 0.4 MB at caps 10^6 and 10^7) and keeps its CDF
# only through its last change: 510 float64 entries at s = 6, but all `cap`
# of them for s up to about 2.5, so building it peaks at 80.1 MB at the cap
# (s = 1.5), the table and one chunk.  Sampling a point set peaks near 120
# bytes a point (120 MB), as does euclid.mst_weight (its radius graph is
# capped at euclid._MAX_PAIRS candidate pairs, about 30 MB; above that it
# scans rows in O(s) memory).
# euclid.tsp_2opt tests distance blocks of at most euclid._SWEEP_BLOCK_ENTRIES
# entries, about 7 MB with their temporaries, up to about 1.3e5 points; past
# that one row fills a block and it peaks near 130 bytes a point (130 MB).
# A chernoff config holds the n means and their n raw-word thresholds, and
# a replicate one draw of n words and its n-byte comparison: a tracemalloc
# peak of 25 bytes a variable, so 125 MB at MAX_CHERNOFF_N.  A gauss_sum or
# lis replicate holds one draw of n float64 values (lis adds its patience
# piles, about 2 sqrt(n) entries): a tracemalloc peak of 8.0 to 8.2 bytes
# a variable, so about 80 MB at MAX_SEQUENCE_N.  A chromatic config builds
# its n x n probability matrix at parse, which peaks at 25 traced bytes
# per n^2 (n = 500 and 1000, every p_spec kind), and a replicate's graph
# draw adds about 19 bytes per n^2 while that matrix is held: 100 MB and
# about 180 MB in all at MAX_CHROMATIC_N.  The jl gate draws and squares a
# samples x n matrix in place, max(100, gate_samples) samples: a peak of
# 16.0 traced bytes per n * samples (sphere and radial_beta, n = 1000 and
# 4000, 2000 samples), so 128 MB at MAX_JL_GATE_ENTRIES.  A grid also
# draws one count per cell, and sample_point_set peaks at 24 traced bytes
# a cell, whatever the count law, when the cells hold no points, so about
# 24 MB at MAX_CELLS.  Binpack
# counts come from numpy's multinomial, which takes n_items as a C long,
# and the LP reads them as floats, exact up to MAX_ITEMS.  The parent of a
# run holds each replicate's seed and f (16 bytes) plus its aux values,
# and its traced peak per replicate, measured at 2e4 and 8e4 replicates
# in process, is 67 bytes for chernoff and 132 for binpack (whose aux
# holds a float and an int), so at most about 130 MB at MAX_REPLICATES.
MAX_ZETA_CAP = 10**7
MAX_EXPECTED_POINTS = 10**6
MAX_CELLS = 10**6
MAX_ITEMS = 2**53
MAX_REPLICATES = 10**6
MAX_CHERNOFF_N = 5 * 10**6
MAX_SEQUENCE_N = 10**7
MAX_CHROMATIC_N = 2000
MAX_JL_GATE_ENTRIES = 8 * 10**6
# Cap on n times the orders of M, L and delta in a profile file, checked
# before any table is built.  Loading peaks near 72 traced bytes an entry
# when each order is a list of n values (43 MB at the cap), 9 when a number.
MAX_PROFILE_ENTRIES = 600_000


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    parameters: dict          # validated: built domain objects
    raw_parameters: dict      # the JSON object they were built from
    replicates: int
    base_seed: int
    output: str | None = None

    def param_hash(self):
        """First 12 hex digits of SHA-256 over the canonical JSON of the
        experiment and its raw parameters."""
        canon = json.dumps({"experiment": self.experiment,
                            "parameters": self.raw_parameters}, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    @property
    def warnings(self):
        return _regime_warnings(self.experiment, self.parameters)


def _require(cond, path, message):
    if not cond:
        raise ConfigError(path, message)


def _check_keys(mapping, allowed, path):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}", "unknown key")


# The JSON values a typed field accepts, and how it names them, by the type
# it returns.
_ACCEPTS = {int: ((int,), "an integer"), float: ((int, float), "a finite number"),
            tuple: ((list,), "a list"), str: ((str,), "a string")}


def typed_value(value, path, kind, low=None):
    """value as kind (int, float, tuple or str), at least low; the kind
    [float] takes a list of floats as a float64 array, each checked as the
    float kind at its index (path[i]).  No kind takes true or false: bool
    is a subclass of int, so they would pass a bare isinstance for the
    numeric kinds.  The float kind refuses NaN and +-Infinity, which
    Python's json reads as floats, and integers too large for a float (the
    comparison is exact and raises nothing)."""
    if kind == [float]:
        items = typed_value(value, path, tuple)
        # One conversion checks plain ints and floats below the largest float
        # in magnitude (NaN fails); any other list goes element by element,
        # which names the first bad one (or takes a near-max int, a subclass).
        if {*map(type, items)} <= {int, float}:
            with contextlib.suppress(OverflowError):  # an integer past float range
                array = np.array(items, dtype=float)
                if (abs(array) < sys.float_info.max).all() \
                        and (low is None or (array >= low).all()):
                    return array
        return np.array([typed_value(item, f"{path}[{i}]", float, low)
                         for i, item in enumerate(items)], dtype=float)
    accepts, name = _ACCEPTS[kind]
    ok = isinstance(value, accepts) and not isinstance(value, bool) \
        and (kind is not float or abs(value) <= sys.float_info.max) \
        and (low is None or value >= low)
    _require(ok, path, f"must be {name}" + ("" if low is None else f" >= {low}"))
    return kind(value)


def typed_field(spec, key, path, kind, low=None, default=_REQUIRED):
    """typed_value of spec[key], or default when the key is absent."""
    if key not in spec:
        _require(default is not _REQUIRED, f"{path}.{key}", "is required")
        return default
    return typed_value(spec[key], f"{path}.{key}", kind, low)


def _build(path, ctor, *args, **kwargs):
    """ctor(*args, **kwargs), a domain error reported as a ConfigError at path."""
    try:
        return ctor(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(path, str(exc)) from None


def _kind(ctor, *fields):
    """(ctor, its keyword arguments as (key, type, lower bound), the keys
    without a default): ctor holds every default, so those are required."""
    return ctor, fields, {key for key, arg in inspect.signature(ctor).parameters.items()
                          if arg.default is arg.empty}


_COUNT_DISTS = {
    "poisson": _kind(Poisson, ("mean", float, None)),
    "zeta": _kind(TruncatedZeta, ("s", float, None), ("cap", int, 1), ("p0", float, None)),
    "two_point": _kind(TwoPoint, ("p0", float, None), ("value", int, 1)),
    "deterministic": _kind(Deterministic, ("k", int, 0)),
}
_VECTOR_FAMILIES = {
    "sphere": _kind(SphereUniform),
    "radial_beta": _kind(RadialBetaMixture, ("scale", float, None), ("a", float, None),
                         ("b", float, None)),
}
_ITEM_DISTS = {
    "lower_bound": _kind(lower_bound_distribution, ("k", int, 4)),
    "explicit": _kind(ItemDistribution, ("sizes", [float], None), ("probs", [float], None)),
}


def _from_kind(spec, path, table, what):
    """The object a {"kind": ..., ...} spec describes, built from table with
    the keys the spec holds."""
    _require(isinstance(spec, dict), path, "must be an object with a 'kind'")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"{path}.kind", f"unknown {what} {kind!r}")
    ctor, fields, required = table[kind]
    _check_keys(spec, {"kind", *(key for key, *_ in fields)}, path)
    return _build(path, ctor, **{key: typed_field(spec, key, path, typ, low)
                                 for key, typ, low in fields if key in spec or key in required})


def _placement(spec, path):
    try:
        return PlacementStrategy(spec)
    except ValueError:
        raise ConfigError(path, f"unknown placement {spec!r}") from None


def _validate_grid(params, path):
    out = dict(params)
    _check_keys(params, {"n_cells", "count_dist", "placement"}, path)
    n_cells = typed_field(params, "n_cells", path, int, low=4)
    if n_cells > MAX_CELLS:
        raise SizeLimitError(f"{path}.n_cells: above MAX_CELLS = {MAX_CELLS}")
    side = math.isqrt(n_cells)
    _require(side * side == n_cells, f"{path}.n_cells", "must be a perfect square")
    dist = out["count_dist"] = _from_kind(params.get("count_dist", {"kind": "poisson"}),
                                          f"{path}.count_dist", _COUNT_DISTS,
                                          "count distribution")
    if isinstance(dist, TruncatedZeta) and dist.cap > MAX_ZETA_CAP:
        raise SizeLimitError(f"{path}.count_dist.cap: above MAX_ZETA_CAP = {MAX_ZETA_CAP}")
    try:
        expected = n_cells * dist.mean
    except OverflowError:  # an integer count too large for a float
        expected = math.inf
    if expected > MAX_EXPECTED_POINTS:
        raise SizeLimitError(f"{path}.count_dist: n_cells * E[count] is above "
                             f"MAX_EXPECTED_POINTS = {MAX_EXPECTED_POINTS}")
    out["placement"] = _placement(params.get("placement", "uniform_in_cell"),
                                  f"{path}.placement")
    return out


def _probability(spec, key, path):
    p = typed_field(spec, key, path, float)
    _require(0 <= p <= 1, f"{path}.{key}", "must be in [0,1]")
    return p


def _probability_matrix(n, spec, path):
    """The n x n EdgeProbabilityMatrix of a p_spec."""
    _require(isinstance(spec, dict), path, "must be an object")
    kind = spec.get("kind")
    if kind == "uniform":
        _check_keys(spec, {"kind", "p"}, path)
        return EdgeProbabilityMatrix.uniform(n, _probability(spec, "p", path))
    if kind == "two_block":
        _check_keys(spec, {"kind", "p_in", "p_out", "split"}, path)
        p_in, p_out = _probability(spec, "p_in", path), _probability(spec, "p_out", path)
        split = typed_field(spec, "split", path, float)
        _require(0 < split < 1, f"{path}.split", "must be in (0,1)")
        split = int(round(split * n))
        p = np.full((n, n), p_out)
        p[:split, :split] = p_in
        p[split:, split:] = p_in
        np.fill_diagonal(p, 0.0)
        return EdgeProbabilityMatrix(p)
    if kind == "matrix":
        _check_keys(spec, {"kind", "p"}, path)
        rows = typed_field(spec, "p", path, tuple)
        n_path = path.rsplit(".", 1)[0] + ".n"
        _require(len(rows) == n, f"{path}.p",
                 f"must be n x n = {n} x {n} for {n_path}, got {len(rows)} rows")
        p = np.empty((n, n))
        for i, row in enumerate(rows):
            where = f"{path}.p[{i}]"
            _require(isinstance(row, list) and len(row) == n, where,
                     f"must be a list of n = {n} numbers")
            p[i] = typed_value(row, where, [float])
        return _build(f"{path}.p", EdgeProbabilityMatrix, p)
    raise ConfigError(f"{path}.kind", f"unknown matrix spec {kind!r}")


def _validate_chromatic(params, path):
    _check_keys(params, {"n", "p_spec", "method"}, path)
    n = typed_field(params, "n", path, int, low=1)
    if n > MAX_CHROMATIC_N:
        raise SizeLimitError(f"{path}.n: above MAX_CHROMATIC_N = {MAX_CHROMATIC_N}")
    P = _probability_matrix(n, params.get("p_spec", {"kind": "uniform", "p": 0.5}),
                            f"{path}.p_spec")
    method = params.get("method", "auto")
    _require(method in ("auto", "exact", "greedy"), f"{path}.method",
             "must be auto, exact, or greedy")
    if method == "auto":
        method = "exact" if n <= CHROMATIC_EXACT_CAP else "greedy"
    if method == "exact" and n > CHROMATIC_EXACT_CAP:
        raise SizeLimitError(f"{path}.n: exact coloring of n = {n} vertices is above "
                             f"CHROMATIC_EXACT_CAP = {CHROMATIC_EXACT_CAP}")
    return {"n": n, "P": P, "method": method}


def _validate_jl(params, path):
    _check_keys(params, {"n", "k", "family", "gate_samples"}, path)
    out = dict(params)
    n = typed_field(params, "n", path, int, low=1)
    k = typed_field(params, "k", path, int, low=1)
    _require(k <= n, f"{path}.k", f"must be at most {path}.n = {n}")
    out["family"] = _from_kind(params.get("family", {"kind": "sphere"}),
                               f"{path}.family", _VECTOR_FAMILIES, "vector family")
    # The vectors the gate draws: check_jl_hypotheses needs at least 100.
    samples = out["gate_samples"] = max(100, typed_field(params, "gate_samples", path,
                                                         int, low=0, default=2000))
    if n * samples > MAX_JL_GATE_ENTRIES:
        raise SizeLimitError(f"{path}.n: n * max(100, gate_samples) = {n * samples} is "
                             f"above MAX_JL_GATE_ENTRIES = {MAX_JL_GATE_ENTRIES}; lower "
                             f"{path}.n or {path}.gate_samples")
    return out


def _validate_binpack(params, path):
    _check_keys(params, {"dist", "n_items"}, path)
    n_items = typed_field(params, "n_items", path, int, low=1)
    if n_items > MAX_ITEMS:
        raise SizeLimitError(f"{path}.n_items: above MAX_ITEMS = {MAX_ITEMS}")
    dist = _from_kind(params.get("dist"), f"{path}.dist", _ITEM_DISTS, "distribution")
    bin_types = _build(f"{path}.dist", enumerate_bin_types, dist)
    return {"dist": dist, "bin_types": bin_types, "n_items": n_items}


def _validate_n(params, path):
    _check_keys(params, {"n"}, path)
    n = typed_field(params, "n", path, int, low=1)
    if n > MAX_SEQUENCE_N:
        raise SizeLimitError(f"{path}.n: above MAX_SEQUENCE_N = {MAX_SEQUENCE_N}")
    return {"n": n}


def _validate_chernoff(params, path):
    _check_keys(params, {"n", "nu", "nus"}, path)
    n = typed_field(params, "n", path, int, low=1)
    if n > MAX_CHERNOFF_N:
        raise SizeLimitError(f"{path}.n: above MAX_CHERNOFF_N = {MAX_CHERNOFF_N}")
    out = {"n": n}
    if "nus" in params:
        _require("nu" not in params, f"{path}.nus", f"cannot be set together with {path}.nu")
        spec = params["nus"]
        _require(isinstance(spec, dict) and spec.get("kind") == "alternating",
                 f"{path}.nus", "must be {'kind': 'alternating', 'values': [...]}")
        _check_keys(spec, {"kind", "values"}, f"{path}.nus")
        values = typed_field(spec, "values", f"{path}.nus", [float])
        _require(values.size and ((0 < values) & (values < 1)).all(),
                 f"{path}.nus.values", "must be nonempty probabilities in (0,1)")
        nus = np.resize(values, n)
    else:
        nu = out["nu"] = typed_field(params, "nu", path, float, default=0.5)
        _require(0 < nu < 1, f"{path}.nu", "must be in (0,1)")
        nus = np.full(n, nu)
    # Generator.random on Philox returns u = (w >> 11) * 2**-53 for the raw
    # word w.  For the integer q = w >> 11, q * 2**-53 < nu holds iff
    # q < ceil(nu * 2**53), which holds iff w < ceil(nu * 2**53) * 2**11.
    # Scaling by 2**53 is exact, and nu < 1 keeps the threshold below 2**64.
    thresholds = np.ceil(nus * 2.0**53).astype(np.uint64) << 11
    return {**out, "nus": nus, "thresholds": thresholds, "total": nus.sum()}


_VALIDATORS = {
    "tsp": _validate_grid,
    "mwst": _validate_grid,
    "chromatic": _validate_chromatic,
    "jl": _validate_jl,
    "binpack": _validate_binpack,
    "lis": _validate_n,
    "chernoff": _validate_chernoff,
    "gauss_sum": _validate_n,
}

# Parameter that a scaling study varies, per experiment.
SCALE_KEYS = {
    "tsp": "n_cells",
    "mwst": "n_cells",
    "chromatic": "n",
    "jl": "n",
    "binpack": "n_items",
    "lis": "n",
    "chernoff": "n",
    "gauss_sum": "n",
}


def parse_config(raw: dict):
    """Validate a raw JSON object into an ExperimentConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("$", "config must be a JSON object")
    _check_keys(raw, {"schema_version", "experiment", "parameters",
                      "replicates", "base_seed", "output"}, "$")
    version = raw.get("schema_version")
    _require(version == SCHEMA_VERSION, "$.schema_version",
             f"must be {SCHEMA_VERSION}")
    exp = raw.get("experiment")
    _require(isinstance(exp, str) and exp in _VALIDATORS, "$.experiment",
             f"must be one of {', '.join(_VALIDATORS)}")
    replicates = typed_field(raw, "replicates", "$", int, low=1)
    if replicates > MAX_REPLICATES:
        raise SizeLimitError(f"$.replicates: above MAX_REPLICATES = {MAX_REPLICATES}")
    base_seed = typed_field(raw, "base_seed", "$", int, default=0)
    params = raw.get("parameters", {})
    _require(isinstance(params, dict), "$.parameters", "must be an object")
    return ExperimentConfig(
        experiment=exp, parameters=_VALIDATORS[exp](params, "$.parameters"),
        raw_parameters=params, replicates=replicates, base_seed=base_seed,
        output=typed_field(raw, "output", "$", str, default=None))


def with_parameters(config, raw_parameters):
    """config with raw_parameters in place of its own, validated as
    parse_config validates them."""
    return dataclasses.replace(
        config, raw_parameters=raw_parameters,
        parameters=_VALIDATORS[config.experiment](raw_parameters, "$.parameters"))


def read_text(path):
    """The text of the input file at path; bytes that are not UTF-8 are a
    ConfigError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(path, f"not UTF-8 text ({exc})") from None


def read_json(path):
    """The JSON value in the file at path; invalid JSON is a ConfigError."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from exc


def load_config(path):
    return parse_config(read_json(path))


def _values_map(spec, path):
    """Order -> a number or an array from profile JSON; bounds checks lengths."""
    _require(isinstance(spec, dict), path, "must be an object mapping orders to values")
    out = {}
    for key, val in spec.items():
        try:
            order = int(key)
        except ValueError:
            raise ConfigError(path, f"orders must be integers, got {key!r}") from None
        where = f"{path}.{key}"
        _require(order not in out, where, f"a second key for order {order}")
        out[order] = typed_value(val, where, [float] if isinstance(val, list) else float)
    return out


def load_profile(path):
    """The MomentProfile, or TypicalProfile, of a bound --profile file."""
    raw = read_json(path)
    _require(isinstance(raw, dict), "$", "profile file must be a JSON object")
    _check_keys(raw, {"n", "M", "L", "delta"}, "$")
    _require("n" in raw and "M" in raw, "$", "profile file needs 'n' and 'M'")
    n = typed_field(raw, "n", "$", int, low=1)
    orders = sum(len(raw[key]) for key in ("M", "L", "delta")
                 if isinstance(raw.get(key), dict))
    if n * orders > MAX_PROFILE_ENTRIES:
        raise SizeLimitError(f"$.n: n times the orders of M, L and delta is {n * orders}, "
                             f"above MAX_PROFILE_ENTRIES = {MAX_PROFILE_ENTRIES}")
    base = MomentProfile.from_values(n, _values_map(raw["M"], "$.M"))
    if "L" not in raw and "delta" not in raw:
        return base
    _require("L" in raw and "delta" in raw, "$", "typical profiles need both 'L' and 'delta'")
    return TypicalProfile.from_values(base, _values_map(raw["L"], "$.L"),
                                      _values_map(raw["delta"], "$.delta"))


def _regime_warnings(experiment, params):
    """Regime checks that warn rather than refuse."""
    if experiment != "binpack":
        return []
    dist = params["dist"]
    n = params["n_items"]
    logn = math.log(n) if n > 1 else 1.0
    warnings = []
    if min(dist.probs) < 1.0 / logn:
        warnings.append(
            "binpack: some atom probability is below 1/log(n_items); the "
            "concentration regime is not guaranteed"
        )
    if dist.mu > 1.0 / (dist.r**2 * logn):
        warnings.append(
            "binpack: mean item size exceeds 1/(r^2 log n); the "
            "concentration regime is not guaranteed"
        )
    return warnings
