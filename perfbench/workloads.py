"""The four benchmark workloads, their output digests and their checks.

Each workload builds its configs from the benchmark seed, makes one or
more public tailbounds calls, and is checked against the reference
outputs recorded at the default seed (reference/<workload>.<size>.json.gz).
At every seed the record columns are checked against the documented
seed function and every dominance verdict must be True.

Sizes: "full" is what the benchmark measures; "small" is the reduced size
that selfcheck.py uses.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os
import statistics
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
DEFAULT_SEED = 1

F_RTOL = 1e-9        # record f values and scaling rows (mean, sd)
CURVE_RTOL = 1e-12   # bound curves

GAUSS_ORDERS = range(2, 17, 2)

PROBE_LOOPS = 100_000
PROBE_SAMPLES = 8
# The probe time that calibrated times are scaled to: a round value near its
# median on the 2-vCPU VM (Python 3.11.7) on which the benchmark was tuned,
# where it reads 0.0075-0.012 s.
REFERENCE_PROBE_S = 0.010


def _config(experiment, replicates, seed, **parameters):
    return {"schema_version": 1, "experiment": experiment,
            "replicates": replicates, "base_seed": seed, "parameters": parameters}


def _double_factorial(k):
    return math.prod(range(k, 0, -2))


def probe_times():
    """Timings of a fixed pure-Python loop: how fast this core runs the
    interpreter right now.  On a shared host that speed changes by up to
    1.5x, in phases from well under a second to minutes, while the load
    average stays flat and CPU time moves with wall time."""
    times = []
    for _ in range(PROBE_SAMPLES):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return times


def calibration(probe):
    """Factor that scales a time measured next to the probe timings
    `probe` to the reference speed.  A repetition's setup_s and run_s are
    its wall times times this factor: the whole program slows in the host's
    slow phases, so the scaled times move with the program's own cost and
    much less with the phase a run happens to fall in."""
    return REFERENCE_PROBE_S / statistics.median(probe)


class Workload:
    """One workload: configs from a seed, the timed call, and its outputs.

    setup() runs before the clock starts: it validates configs, builds
    profiles and sets `work` (the units work_per_s counts) and `attempted`
    (replicates plus curve points).  run() is the timed part and returns
    the raw outputs, which the module-level outputs() turns into plain data.
    """

    name = ""
    workers = 1

    def __init__(self, seed, size):
        self.seed = seed
        self.size = size


class Chernoff(Workload):
    name = "chernoff-100k"
    workers = 2

    def setup(self, tb):
        reps = 100_000 if self.size == "full" else 1_000
        self.config = tb.config.parse_config(_config("chernoff", reps, self.seed,
                                                     n=1000, nu=0.5))
        self.work = reps
        self.attempted = reps + tb.runner.T_GRID_POINTS

    def run(self, tb, csv_path):
        records, summary = tb.runner.run_experiment(self.config, workers=self.workers,
                                                    out=csv_path)
        return {"records": records, "curves": {"chernoff_corollary": summary}}


class TspScale(Workload):
    name = "tsp-scale"
    workers = 2

    def setup(self, tb):
        full = self.size == "full"
        self.n_list = [100, 400, 900] if full else [16, 36, 64]
        self.config = tb.config.parse_config(_config(
            "tsp", 20 if full else 3, self.seed, n_cells=self.n_list[0],
            count_dist={"kind": "poisson", "mean": 1.0}, placement="uniform_in_cell"))
        self.work = self.attempted = self.config.replicates * len(self.n_list)

    def run(self, tb, csv_path):
        study = tb.runner.scaling_study(self.config, self.n_list, workers=self.workers)
        return {"rows": [{"n": row.n, "mean": row.mean, "sd": row.sd,
                          "replicates": self.config.replicates} for row in study.rows]}


class MstHeavyTail(Workload):
    name = "mst-heavytail"
    workers = 1

    def setup(self, tb):
        full = self.size == "full"
        self.config = tb.config.parse_config(_config(
            "mwst", 20 if full else 4, self.seed, n_cells=2500 if full else 100,
            count_dist={"kind": "zeta", "s": 6.0, "p0": 0.35},
            placement="corner_bunch"))
        self.work = self.attempted = self.config.replicates

    def run(self, tb, csv_path):
        records, _ = tb.runner.run_experiment(self.config, workers=self.workers,
                                              out=csv_path)
        return {"records": records}


class BoundCurve(Workload):
    name = "bound-curve"
    workers = 1

    def setup(self, tb):
        full = self.size == "full"
        n = 40 if full else 10
        self.config = tb.config.parse_config(_config(
            "gauss_sum", 2000 if full else 200, self.seed, n=n))
        # Standard normal moments E Z^l = (l-1)!!: the recursion profile
        # (Theorem 1) and the typical/worst-case profile (main theorem).
        moments = {l: float(_double_factorial(l - 1)) for l in GAUSS_ORDERS}
        bounds = tb.bounds
        self.sources = {
            "theorem1_recursion": {"kind": "profile",
                                   "profile": bounds.MomentProfile.uniform(n, moments)},
            "main_theorem": {"kind": "profile", "profile": bounds.TypicalProfile.uniform(
                n, moments, moments, {l: 0.01 for l in GAUSS_ORDERS})},
        }
        self.work = len(self.sources) * tb.runner.T_GRID_POINTS
        self.attempted = self.config.replicates + self.work

    def run(self, tb, csv_path):
        records, _ = tb.runner.run_experiment(self.config, workers=self.workers,
                                              out=csv_path)
        curves = {method: tb.runner.compare_bound(records, method, source)
                  for method, source in self.sources.items()}
        return {"records": records, "curves": curves}


WORKLOADS = {cls.name: cls for cls in (Chernoff, TspScale, MstHeavyTail, BoundCurve)}


def _cell(value):
    """An aux value as records_to_csv writes it."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def outputs(raw):
    """Plain, JSON-able outputs of one run."""
    out = {}
    if "records" in raw:
        recs = raw["records"]
        out["replicate"] = [r.replicate for r in recs]
        out["seed"] = [r.seed for r in recs]
        out["f"] = [float(r.f) for r in recs]
        out["aux"] = [{k: _cell(v) for k, v in sorted(r.aux.items())} for r in recs]
    if "curves" in raw:
        out["curves"] = {label: {"bound": [float(b) for b in s.bound],
                                 "verdicts": list(s.verdicts)}
                         for label, s in raw["curves"].items()}
    if "rows" in raw:
        out["rows"] = raw["rows"]
    return out


def present_units(out):
    """Replicates plus curve points present in the outputs."""
    rows = sum(row["replicates"] for row in out.get("rows", ()))
    curves = sum(len(c["bound"]) for c in out.get("curves", {}).values())
    return len(out.get("f", ())) + rows + curves


def reference_of(out):
    """The part of the outputs kept as a reference: replicate, seed and
    verdicts are checked at every seed without one."""
    ref = {key: out[key] for key in ("f", "aux", "rows") if key in out}
    if "curves" in out:
        ref["curves"] = {label: {"bound": c["bound"]} for label, c in out["curves"].items()}
    return ref


def digest(out):
    """SHA-256 of the outputs; equal across repetitions of one seed."""
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def expected_seed(base_seed, replicate):
    """The documented per-record seed: the first 8 bytes, little-endian, of
    SHA-256 over str(base_seed), 0x1f, "replicate", 0x1f, str(replicate)."""
    text = f"{int(base_seed)}\x1freplicate\x1f{int(replicate)}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "little")


def _close(a, b, rtol):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def reference_path(name, size):
    return os.path.join(REFERENCE_DIR, f"{name}.{size}.json.gz")


def load_reference(name, size):
    with gzip.open(reference_path(name, size), "rt") as fh:
        return json.load(fh)


def write_json_gz(path, obj):
    """Gzipped JSON with a fixed header, so equal objects give equal bytes."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    with open(path, "wb") as fh:
        with gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
            gz.write(text.encode())


def check(out, base_seed, reference=None):
    """Count failed work units.

    A record fails if its replicate index or seed is wrong, its f is not
    finite, or (with a reference) its f differs by more than F_RTOL or any
    aux cell differs.  A curve point fails on a False verdict or (with a
    reference) a bound differing by more than CURVE_RTOL.  A scaling row
    that is not finite or differs by more than F_RTOL fails all of its
    replicates.  The caller counts units missing from the outputs.
    """
    failed = 0
    if "f" in out:
        ref_f = reference["f"] if reference is not None else None
        for i, (rep, seed, f, aux) in enumerate(zip(out["replicate"], out["seed"],
                                                    out["f"], out["aux"])):
            ok = rep == i and seed == expected_seed(base_seed, i) and math.isfinite(f)
            if reference is not None:
                ok = ok and i < len(ref_f) and _close(f, ref_f[i], F_RTOL) \
                    and aux == reference["aux"][i]
            failed += not ok
    for label, curve in out.get("curves", {}).items():
        ref_bound = reference["curves"].get(label, {}).get("bound", []) \
            if reference is not None else None
        for j, (bound, verdict) in enumerate(zip(curve["bound"], curve["verdicts"])):
            ok = verdict is True
            if ref_bound is not None:
                ok = ok and j < len(ref_bound) and _close(bound, ref_bound[j], CURVE_RTOL)
            failed += not ok
    for k, row in enumerate(out.get("rows", ())):
        ok = math.isfinite(row["mean"]) and math.isfinite(row["sd"]) and row["sd"] > 0
        if reference is not None:
            ref = reference["rows"][k] if k < len(reference["rows"]) else None
            ok = ok and ref is not None and ref["n"] == row["n"] \
                and _close(row["mean"], ref["mean"], F_RTOL) \
                and _close(row["sd"], ref["sd"], F_RTOL)
        if not ok:
            failed += row["replicates"]
    return failed
