"""Experiment configuration: a versioned JSON schema validated before any
replicate runs.  Unknown keys are rejected with the offending field path."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from ..errors import ConfigError
from ..pointproc import Deterministic, PlacementStrategy, Poisson, TruncatedZeta, TwoPoint
from ..seq import RadialBetaMixture, SphereUniform

SCHEMA_VERSION = 1

EXPERIMENTS = ("tsp", "mwst", "chromatic", "jl", "binpack", "lis", "chernoff",
               "gauss_sum")


@dataclass
class ExperimentConfig:
    experiment: str
    parameters: dict
    replicates: int
    base_seed: int
    output: str | None = None
    warnings: list = field(default_factory=list)

    def param_hash(self):
        # Validated parameters may hold dataclasses/enums; their reprs are
        # stable, so default=str keeps the hash canonical.
        canon = json.dumps(self.parameters, sort_keys=True, default=str)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _require(cond, path, message):
    if not cond:
        raise ConfigError(path, message)


def _check_keys(mapping, allowed, path):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}", "unknown key")


def _count_dist(spec, path):
    _require(isinstance(spec, dict), path, "must be an object with a 'kind'")
    kind = spec.get("kind")
    if kind == "poisson":
        _check_keys(spec, {"kind", "mean"}, path)
        return Poisson(float(spec.get("mean", 1.0)))
    if kind == "zeta":
        _check_keys(spec, {"kind", "s", "cap", "p0"}, path)
        return TruncatedZeta(float(spec["s"]), int(spec.get("cap", 10**6)),
                             float(spec.get("p0", 0.0)))
    if kind == "two_point":
        _check_keys(spec, {"kind", "p0", "value"}, path)
        return TwoPoint(float(spec["p0"]), int(spec["value"]))
    if kind == "deterministic":
        _check_keys(spec, {"kind", "k"}, path)
        return Deterministic(int(spec["k"]))
    raise ConfigError(f"{path}.kind", f"unknown count distribution {kind!r}")


def _placement(spec, path):
    try:
        return PlacementStrategy(spec)
    except ValueError:
        raise ConfigError(path, f"unknown placement {spec!r}") from None


def _vector_family(spec, path):
    _require(isinstance(spec, dict), path, "must be an object with a 'kind'")
    kind = spec.get("kind")
    if kind == "sphere":
        _check_keys(spec, {"kind"}, path)
        return SphereUniform()
    if kind == "radial_beta":
        _check_keys(spec, {"kind", "scale", "a", "b"}, path)
        return RadialBetaMixture(scale=float(spec.get("scale", 1.2)),
                                 a=float(spec.get("a", 8.0)),
                                 b=float(spec.get("b", 2.0)))
    raise ConfigError(f"{path}.kind", f"unknown vector family {kind!r}")


def _validate_grid(params, path):
    out = dict(params)
    _check_keys(params, {"n_cells", "count_dist", "placement", "max_passes"}, path)
    n_cells = params.get("n_cells")
    _require(isinstance(n_cells, int) and n_cells >= 4, f"{path}.n_cells",
             "must be an integer >= 4")
    side = math.isqrt(n_cells)
    _require(side * side == n_cells, f"{path}.n_cells", "must be a perfect square")
    out["count_dist"] = _count_dist(params.get("count_dist", {"kind": "poisson", "mean": 1.0}),
                                    f"{path}.count_dist")
    out["placement"] = _placement(params.get("placement", "uniform_in_cell"),
                                  f"{path}.placement")
    out["max_passes"] = int(params.get("max_passes", 40))
    return out


def _validate_chromatic(params, path):
    _check_keys(params, {"n", "p_spec", "method", "exact_cap"}, path)
    out = dict(params)
    n = params.get("n")
    _require(isinstance(n, int) and n >= 1, f"{path}.n", "must be an integer >= 1")
    spec = params.get("p_spec", {"kind": "uniform", "p": 0.5})
    _require(isinstance(spec, dict), f"{path}.p_spec", "must be an object")
    kind = spec.get("kind")
    if kind == "uniform":
        _check_keys(spec, {"kind", "p"}, f"{path}.p_spec")
        _require(0 <= spec.get("p", -1) <= 1, f"{path}.p_spec.p", "must be in [0,1]")
    elif kind == "two_block":
        _check_keys(spec, {"kind", "p_in", "p_out", "split"}, f"{path}.p_spec")
        for key in ("p_in", "p_out"):
            _require(0 <= spec.get(key, -1) <= 1, f"{path}.p_spec.{key}",
                     "must be in [0,1]")
        _require(0 < spec.get("split", 0) < 1, f"{path}.p_spec.split",
                 "must be in (0,1)")
    elif kind == "matrix":
        _check_keys(spec, {"kind", "p"}, f"{path}.p_spec")
        _require(isinstance(spec.get("p"), list), f"{path}.p_spec.p",
                 "must be a matrix (list of rows)")
    else:
        raise ConfigError(f"{path}.p_spec.kind", f"unknown matrix spec {kind!r}")
    method = params.get("method", "auto")
    _require(method in ("auto", "exact", "greedy"), f"{path}.method",
             "must be auto, exact, or greedy")
    out["p_spec"] = spec
    out["method"] = method
    out["exact_cap"] = int(params.get("exact_cap", 30))
    return out


def _validate_jl(params, path):
    _check_keys(params, {"n", "k", "family", "gate_samples"}, path)
    out = dict(params)
    n, k = params.get("n"), params.get("k")
    _require(isinstance(n, int) and n >= 1, f"{path}.n", "must be an integer >= 1")
    _require(isinstance(k, int) and 1 <= k <= n, f"{path}.k",
             "must be an integer in 1..n")
    out["family"] = _vector_family(params.get("family", {"kind": "sphere"}),
                                   f"{path}.family")
    out["gate_samples"] = int(params.get("gate_samples", 2000))
    return out


def _validate_binpack(params, path):
    _check_keys(params, {"dist", "n_items", "maximal_only"}, path)
    out = dict(params)
    n_items = params.get("n_items")
    _require(isinstance(n_items, int) and n_items >= 1, f"{path}.n_items",
             "must be an integer >= 1")
    spec = params.get("dist")
    _require(isinstance(spec, dict), f"{path}.dist", "must be an object")
    kind = spec.get("kind")
    if kind == "lower_bound":
        _check_keys(spec, {"kind", "k"}, f"{path}.dist")
        _require(isinstance(spec.get("k"), int) and spec["k"] >= 4,
                 f"{path}.dist.k", "must be an integer >= 4")
    elif kind == "explicit":
        _check_keys(spec, {"kind", "sizes", "probs"}, f"{path}.dist")
        _require(isinstance(spec.get("sizes"), list) and isinstance(spec.get("probs"), list),
                 f"{path}.dist", "needs 'sizes' and 'probs' lists")
    else:
        raise ConfigError(f"{path}.dist.kind", f"unknown distribution {kind!r}")
    out["dist"] = spec
    out["maximal_only"] = bool(params.get("maximal_only", True))
    return out


def _validate_lis(params, path):
    _check_keys(params, {"n"}, path)
    n = params.get("n")
    _require(isinstance(n, int) and n >= 1, f"{path}.n", "must be an integer >= 1")
    return dict(params)


def _validate_chernoff(params, path):
    _check_keys(params, {"n", "nu", "nus"}, path)
    out = dict(params)
    n = params.get("n")
    _require(isinstance(n, int) and n >= 1, f"{path}.n", "must be an integer >= 1")
    if "nus" in params:
        spec = params["nus"]
        _require(isinstance(spec, dict) and spec.get("kind") == "alternating",
                 f"{path}.nus", "must be {'kind': 'alternating', 'values': [...]}")
        _check_keys(spec, {"kind", "values"}, f"{path}.nus")
        values = spec.get("values")
        _require(isinstance(values, list) and values
                 and all(0 < v < 1 for v in values),
                 f"{path}.nus.values", "must be probabilities in (0,1)")
    else:
        nu = params.get("nu", 0.5)
        _require(0 < nu < 1, f"{path}.nu", "must be in (0,1)")
        out["nu"] = float(nu)
    return out


def _validate_gauss(params, path):
    _check_keys(params, {"n"}, path)
    n = params.get("n")
    _require(isinstance(n, int) and n >= 1, f"{path}.n", "must be an integer >= 1")
    return dict(params)


_VALIDATORS = {
    "tsp": _validate_grid,
    "mwst": _validate_grid,
    "chromatic": _validate_chromatic,
    "jl": _validate_jl,
    "binpack": _validate_binpack,
    "lis": _validate_lis,
    "chernoff": _validate_chernoff,
    "gauss_sum": _validate_gauss,
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
    _require(exp in EXPERIMENTS, "$.experiment",
             f"must be one of {', '.join(EXPERIMENTS)}")
    # bool is a subclass of int, so true/false would pass a bare isinstance.
    replicates = raw.get("replicates")
    _require(isinstance(replicates, int) and not isinstance(replicates, bool)
             and replicates >= 1, "$.replicates", "must be an integer >= 1")
    base_seed = raw.get("base_seed", 0)
    _require(isinstance(base_seed, int) and not isinstance(base_seed, bool),
             "$.base_seed", "must be an integer")
    params = raw.get("parameters", {})
    _require(isinstance(params, dict), "$.parameters", "must be an object")
    validated = _VALIDATORS[exp](params, "$.parameters")
    cfg = ExperimentConfig(experiment=exp, parameters=validated,
                           replicates=replicates, base_seed=base_seed,
                           output=raw.get("output"))
    _post_validate(cfg)
    return cfg


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from exc
    return parse_config(raw)


def _post_validate(cfg: ExperimentConfig):
    """Regime checks that warn rather than refuse."""
    if cfg.experiment == "binpack":
        from ..packing import ItemDistribution, lower_bound_distribution

        spec = cfg.parameters["dist"]
        if spec["kind"] == "lower_bound":
            dist = lower_bound_distribution(spec["k"])
        else:
            dist = ItemDistribution(tuple(spec["sizes"]), tuple(spec["probs"]))
        n = cfg.parameters["n_items"]
        logn = math.log(n) if n > 1 else 1.0
        if min(dist.probs) < 1.0 / logn:
            cfg.warnings.append(
                "binpack: some atom probability is below 1/log(n_items); the "
                "concentration regime is not guaranteed"
            )
        if dist.mu > 1.0 / (dist.r**2 * logn):
            cfg.warnings.append(
                "binpack: mean item size exceeds 1/(r^2 log n); the "
                "concentration regime is not guaranteed"
            )
