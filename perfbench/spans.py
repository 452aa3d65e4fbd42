"""Outside-in span tracing for the benchmark.

Nothing under src/ knows about tracing.  `install` replaces each target
function with a timing wrapper at every name a loaded tailbounds module
binds it to, so a call resolves to the wrapper exactly where the caller
looks the name up (for example tailbounds.harness.runner.derived_seed).

Spans stay in memory as (id, parent, name, start_ns, end_ns) tuples.
Process-pool workers fork from the wrapped process, so they inherit the
wrappers and the open span stack; each worker spills its own spans to a
file when it exits and the tracing process merges them.  perf_counter_ns
reads CLOCK_MONOTONIC on Linux, so times from different processes share
one clock.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import math
import multiprocessing.util
import os
import pickle
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (defining module, function, span name).  Every module-level binding of
# the function in a loaded tailbounds module is wrapped.
TARGETS = (
    ("tailbounds.harness.config", "parse_config", "config.parse_config"),
    ("tailbounds.harness.rng", "substream", "rng.substream"),
    ("tailbounds.harness.rng", "derived_seed", "rng.derived_seed"),
    ("tailbounds.pointproc", "sample_point_set", "pointproc.sample_point_set"),
    ("tailbounds.euclid", "tsp_exact", "euclid.tsp_exact"),
    ("tailbounds.euclid", "tsp_strip", "euclid.tsp_strip"),
    ("tailbounds.euclid", "tsp_2opt", "euclid.tsp_2opt"),
    ("tailbounds.euclid", "mst_weight", "euclid.mst_weight"),
    ("tailbounds.harness.runner", "run_experiment", "runner.run_experiment"),
    ("tailbounds.harness.runner", "scaling_study", "runner.scaling_study"),
    ("tailbounds.harness.runner", "run_replicates", "runner.run_replicates"),
    ("tailbounds.harness.runner", "records_to_csv", "runner.records_to_csv"),
    ("tailbounds.harness.runner", "summarize", "runner.summarize"),
    ("tailbounds.harness.runner", "compare_bound", "runner.compare_bound"),
    ("tailbounds.bounds", "theorem1_recursion_bound", "bounds.theorem1_recursion_bound"),
    ("tailbounds.bounds", "main_theorem_bound", "bounds.main_theorem_bound"),
    ("tailbounds.bounds", "optimize_m", "bounds.optimize_m"),
    ("tailbounds.bounds", "chernoff_corollary_bound", "bounds.chernoff_corollary_bound"),
)
ROOT_SPAN = "workload.run"

# Replicate durations are reported at the median and at the highest of
# these percentiles that still has at least TAIL_MIN_BEYOND samples above it.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


def _count_points(tally, args, result):
    tally["pointproc.points"] += result.total_points


def _note_instance_size(tally, args, result):
    tally["euclid.max_points"] = max(tally["euclid.max_points"], len(args[0]))


HOOKS = {
    "pointproc.sample_point_set": _count_points,
    "euclid.tsp_exact": _note_instance_size,
    "euclid.tsp_2opt": _note_instance_size,
    "euclid.mst_weight": _note_instance_size,
}


class Tracer:
    """In-memory span buffer of one benchmark repetition and its workers."""

    def __init__(self, spill_dir):
        self.spill_dir = spill_dir
        self.spans = []
        self.tally = defaultdict(int)
        self.stack = [None]
        self.pid = os.getpid()
        self.ids = itertools.count(self.pid << 32)
        self.forked = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        # The child keeps the inherited span stack (its spans nest under
        # the span that created the pool) but none of the parent's spans.
        self.spans.clear()
        self.tally.clear()
        self.pid = os.getpid()
        self.ids = itertools.count(self.pid << 32)
        self.forked = True

    def _adopt_worker(self):
        # multiprocessing clears its finalizer registry right after fork,
        # so the spill is registered on the worker's first span instead.
        self.forked = False
        multiprocessing.util.Finalize(None, self._spill, exitpriority=100)

    def _spill(self):
        path = os.path.join(self.spill_dir, f"spans-{self.pid}.pkl")
        with open(path, "wb") as fh:
            pickle.dump((self.spans, dict(self.tally)), fh)

    def wrap(self, fn, name):
        tracer = self
        stack = self.stack
        record = self.spans.append
        clock = time.perf_counter_ns
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.forked:
                tracer._adopt_worker()
            parent = stack[-1]
            sid = next(tracer.ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record((sid, parent, name, start, end))
            if hook is not None:
                hook(tracer.tally, args, result)
            return result

        return traced

    @contextmanager
    def span(self, name):
        sid = next(self.ids)
        parent = self.stack[-1]
        self.stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def collect(self):
        """This process's spans plus every spilled worker buffer."""
        spans = list(self.spans)
        tally = defaultdict(int, self.tally)
        for entry in sorted(os.listdir(self.spill_dir)):
            path = os.path.join(self.spill_dir, entry)
            with open(path, "rb") as fh:
                worker_spans, worker_tally = pickle.load(fh)
            os.remove(path)
            spans.extend(worker_spans)
            for key, value in worker_tally.items():
                if key == "euclid.max_points":
                    tally[key] = max(tally[key], value)
                else:
                    tally[key] += value
        return spans, tally


def install(tracer):
    """Wrap every TARGETS binding and the replicate-function table."""
    loaded = [m for name, m in list(sys.modules.items())
              if m is not None and (name == "tailbounds" or name.startswith("tailbounds."))]
    for module_name, func_name, span_name in TARGETS:
        original = getattr(sys.modules[module_name], func_name)
        wrapped = tracer.wrap(original, span_name)
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
    runner = sys.modules["tailbounds.harness.runner"]
    runner.REPLICATE_FNS = {key: tracer.wrap(fn, "experiments.replicate")
                            for key, fn in runner.REPLICATE_FNS.items()}


def _covered_ns(intervals, start, end):
    """Length of the union of intervals clipped to [start, end]."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans):
    """Per span name: call count, summed duration and summed self time (ns).

    Self time is a span's duration minus the part of its interval covered
    by its children; children running in parallel pool workers cover an
    instant once.
    """
    children = defaultdict(list)
    for _, parent, _, start, end in spans:
        children[parent].append((start, end))
    stats = defaultdict(lambda: [0, 0, 0])
    for sid, _, name, start, end in spans:
        entry = stats[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - _covered_ns(children.get(sid, ()), start, end)
    return stats


def _percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = math.ceil(pct / 100.0 * len(sorted_values)) - 1
    return sorted_values[min(max(rank, 0), len(sorted_values) - 1)]


def layer_metrics(spans, tally, workers):
    """The per-layer metrics of one traced repetition."""
    stats = self_times(spans)

    def calls(name):
        return stats[name][0] if name in stats else 0

    def total_s(name):
        return stats[name][1] / 1e9 if name in stats else 0.0

    def self_s(name):
        return stats[name][2] / 1e9 if name in stats else 0.0

    durations = sorted((end - start) / 1e6 for _, _, name, start, end in spans
                       if name == "experiments.replicate")
    n = len(durations)
    tail_pct = next(p for p in TAIL_PERCENTILES
                    if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND or p == 50.0)
    run_s = total_s(ROOT_SPAN)
    replicate_wall = total_s("runner.run_replicates")
    max_points = tally.get("euclid.max_points", 0)
    metrics = {
        "config.parse_s": total_s("config.parse_config"),
        "rng.substream.calls": calls("rng.substream"),
        "rng.substream.self_s": self_s("rng.substream"),
        "rng.derived_seed.calls": calls("rng.derived_seed"),
        "rng.derived_seed.self_s": self_s("rng.derived_seed"),
        "pointproc.sample_point_set.self_s": self_s("pointproc.sample_point_set"),
        "pointproc.points": tally.get("pointproc.points", 0),
        "euclid.tsp_2opt.calls": calls("euclid.tsp_2opt"),
        "euclid.tsp_2opt.self_s": self_s("euclid.tsp_2opt"),
        "euclid.tsp_strip.self_s": self_s("euclid.tsp_strip"),
        "euclid.tsp_exact.calls": calls("euclid.tsp_exact"),
        "euclid.mst_weight.self_s": self_s("euclid.mst_weight"),
        # Computed, not measured: one s x s float64 distance matrix for the
        # largest instance handed to a dense solver.
        "euclid.dense_matrix_mb": 8.0 * max_points * max_points / 1e6,
        "experiments.replicate.self_s": self_s("experiments.replicate"),
        "experiments.replicate.p50_ms": _percentile(durations, 50.0) if n else 0.0,
        "experiments.replicate.tail_ms": _percentile(durations, tail_pct) if n else 0.0,
        "experiments.replicate.tail_pct": tail_pct,
        "runner.run_replicates_s": replicate_wall,
        "runner.dispatch.efficiency": (total_s("experiments.replicate")
                                       / (workers * replicate_wall)
                                       if replicate_wall else 0.0),
        "runner.records_to_csv.self_s": self_s("runner.records_to_csv"),
        "runner.summarize.self_s": self_s("runner.summarize"),
        "runner.compare_bound.self_s": self_s("runner.compare_bound"),
        "bounds.theorem1_recursion_bound.calls": calls("bounds.theorem1_recursion_bound"),
        "bounds.theorem1_recursion_bound.self_s": self_s("bounds.theorem1_recursion_bound"),
        "bounds.main_theorem_bound.calls": calls("bounds.main_theorem_bound"),
        "bounds.optimize_m.calls": calls("bounds.optimize_m"),
        "bounds.chernoff_corollary_bound.calls": calls("bounds.chernoff_corollary_bound"),
        "trace.run_s": run_s,
        # Share of the traced run_s spent inside some wrapped layer.
        "trace.accounted_frac": 1.0 - self_s(ROOT_SPAN) / run_s if run_s else 0.0,
    }
    ranking = sorted(((self_s(name), name) for name in stats if name != ROOT_SPAN),
                     reverse=True)
    return metrics, [(name, round(s, 6)) for s, name in ranking]


def write_spans(spans, path, run_id):
    """All spans of one traced repetition as gzipped JSON lines."""
    run = json.dumps(run_id)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for sid, parent, name, start, end in spans:
            parent = "null" if parent is None else parent
            fh.write(f'{{"run":{run},"id":{sid},"parent":{parent},'
                     f'"name":"{name}","start_ns":{start},"end_ns":{end}}}\n')
