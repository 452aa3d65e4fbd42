"""One benchmark repetition in a fresh interpreter.

run.py starts this script once per repetition:

    python3 perfbench/child.py --workload NAME --seed N --size full|small
        --trace 0|1 --t0 MONOTONIC [--reference-override PATH] [--record]

It imports tailbounds from the checkout's src/, sets the workload up, runs
it once, checks its outputs and prints one JSON line.  setup_s runs from
--t0 (the parent's time.monotonic() just before starting this process) to
the end of set-up, so it includes interpreter start and imports.  The
interpreter-speed probe runs, untimed, right before and right after the
timed call; setup_s and run_s are the wall times scaled by it
(workloads.calibration), and the wall times are kept as setup_wall_s and
run_wall_s.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
import types

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")


def _import_program():
    """tailbounds from this checkout's src/; exits with a message if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "tailbounds", "__init__.py")):
        sys.exit(f"perfbench: {SRC}/tailbounds not found; run from a checkout root")
    sys.path.insert(0, SRC)
    import tailbounds
    import tailbounds.harness.config
    import tailbounds.harness.runner

    if os.path.dirname(os.path.dirname(os.path.abspath(tailbounds.__file__))) != SRC:
        sys.exit(f"perfbench: imported tailbounds from {tailbounds.__file__}, not {SRC}")
    return tailbounds


def _program_namespace(tailbounds):
    # Looked up at call time, so wrappers installed for tracing apply.
    return types.SimpleNamespace(config=tailbounds.harness.config,
                                 runner=tailbounds.harness.runner,
                                 bounds=tailbounds.bounds)


def _peak_rss_mb():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--reference-override",
                        help="check against this reference file instead of the "
                             "recorded one (selfcheck.py)")
    parser.add_argument("--record", action="store_true",
                        help="write this run's outputs as the reference")
    args = parser.parse_args(argv)

    tailbounds = _import_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = None
    if args.trace:
        spill_dir = os.path.join(OUT_DIR, f"spill-{os.getpid()}")
        os.makedirs(spill_dir)
        tracer = spans.Tracer(spill_dir)
        spans.install(tracer)
    tb = _program_namespace(tailbounds)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    workload.setup(tb)
    setup_wall_s = time.monotonic() - args.t0
    probe = workloads.probe_times()

    csv_path = os.path.join(OUT_DIR, f"records-{args.workload}-{os.getpid()}.csv")
    error = None
    start = time.perf_counter()
    try:
        if tracer is None:
            raw = workload.run(tb, csv_path)
        else:
            with tracer.span(spans.ROOT_SPAN):
                raw = workload.run(tb, csv_path)
    except Exception:  # a program failure fails every unit of the run
        error = traceback.format_exc()
        raw = {}
    run_wall_s = time.perf_counter() - start
    peak_rss_mb = _peak_rss_mb()
    probe += workloads.probe_times()
    scale = workloads.calibration(probe)

    out = workloads.outputs(raw)
    if os.path.exists(csv_path):
        with open(csv_path, "rb") as fh:
            out["csv_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        os.remove(csv_path)
    if args.record:
        workloads.write_json_gz(workloads.reference_path(args.workload, args.size),
                                workloads.reference_of(out))
    if args.reference_override:
        with gzip.open(args.reference_override, "rt") as fh:
            reference = json.load(fh)
    elif args.seed == workloads.DEFAULT_SEED:
        reference = workloads.load_reference(args.workload, args.size)
    else:
        reference = None
    if error is None:
        missing = max(0, workload.attempted - workloads.present_units(out))
        failed = min(workload.attempted,
                     workloads.check(out, args.seed, reference) + missing)
    else:
        failed = workload.attempted

    result = {
        "seed": args.seed, "setup_s": setup_wall_s * scale, "run_s": run_wall_s * scale,
        "setup_wall_s": setup_wall_s, "run_wall_s": run_wall_s,
        "probe_s": probe, "calibration": scale,
        "peak_rss_mb": peak_rss_mb, "work": workload.work,
        "attempted": workload.attempted, "failed": failed,
        "checked_against_reference": reference is not None,
        "digest": workloads.digest(out), "error": error, "traced": bool(args.trace),
    }
    if tracer is not None:
        all_spans, tally = tracer.collect()
        shutil.rmtree(tracer.spill_dir, ignore_errors=True)
        result["layers"], result["ranking"] = spans.layer_metrics(
            all_spans, tally, workload.workers)
        spans.write_spans(all_spans, os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"),
            run_id=f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
