"""tailbounds benchmark: run one workload for a fixed time and report.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; tailbounds is imported from its src/.
Each repetition runs in a fresh interpreter (child.py), one at a time,
with the workload's own pool of at most two workers.  Repetitions repeat
until --seconds have passed (at least MIN_REPS of them); metrics are
medians over the repetitions.

Repetition k samples its configs from rep_seed(--seed, k), so the same
seed gives the same inputs.  An untimed reduced-size warm-up at the
default seed comes first; its outputs are checked against the recorded
small reference, so every run checks the program against a reference.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
runs (untraced, traced) pairs on the same inputs and reports the
per-layer metrics of the traced ones plus the tracing overhead.  Every
repetition's outputs are checked (workloads.check); failed_frac is failed
units over attempted units, and a traced repetition whose outputs differ
from its untraced pair fails all of its units.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A results file with provenance
goes to perfbench/out/.  Exit status is non-zero, with no result, when the
program cannot be run at all (for example, no src/ in the checkout).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from importlib import metadata

from workloads import DEFAULT_SEED, WORKLOADS, probe_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

MIN_REPS = 3          # untraced repetitions with --trace 0
BUDGET_S = 170.0      # the whole run, set-up and warm-up included


class ChildFailed(RuntimeError):
    pass


def run_child(workload, seed, trace, deadline, size="full", extra=()):
    """Run one repetition (child.py) and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("time budget exhausted")
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
           "--size", size, "--trace", str(trace), *extra]
    # A session of its own, so a timeout also ends the pool workers.
    proc = subprocess.Popen(cmd + ["--t0", repr(time.monotonic())], cwd=ROOT,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed("repetition timed out") from None
    if proc.returncode != 0:
        raise ChildFailed(f"repetition exited with status {proc.returncode}")
    lines = stdout.decode().strip().splitlines()
    if not lines:
        raise ChildFailed("repetition printed no result")
    return json.loads(lines[-1])


def _git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _cpu_probe_ms():
    """Median timing of the interpreter-speed probe, in ms: inside a VM the
    load average does not show contention on the host, lost speed does."""
    return statistics.median(probe_times()) * 1e3


def _provenance(seed, load_start, probe_start):
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "seed": seed,
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "cpu_probe_ms_start": probe_start,
        "cpu_probe_ms_end": _cpu_probe_ms(),
    }


def rep_seed(seed, k):
    """The config base_seed of repetition k: the benchmark seed for k = 0,
    else a hash of (seed, k).  Repetitions sample distinct instances, so a
    run's median covers more inputs than one call holds; on tsp-scale the
    2-opt cost of one set of 20 instances per size varies by ~10%."""
    if k == 0:
        return seed
    return int.from_bytes(hashlib.sha256(f"{seed}/{k}".encode()).digest()[:4], "little")


def _repetitions(args, deadline):
    """Run repetitions until --seconds have passed; returns their results.

    With --trace 1 they come in (untraced, traced) pairs on the same inputs.
    """
    reps = []
    start = time.monotonic()
    walls = []
    while True:
        if args.trace:
            k, trace = divmod(len(reps), 2)
        else:
            k, trace = len(reps), 0
        began = time.monotonic()
        reps.append(run_child(args.workload, rep_seed(args.seed, k), trace, deadline))
        walls.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        enough = len(reps) >= (MIN_REPS if args.trace == 0 else 2)
        if args.trace and len(reps) % 2:
            continue   # finish the (untraced, traced) pair
        step = statistics.median(walls) * (2 if args.trace else 1)
        if enough and elapsed + step > args.seconds:
            return reps


def _failures(reps):
    """Checked failures, plus every unit of a repetition whose outputs differ
    from those of another repetition on the same inputs."""
    digests = defaultdict(Counter)
    for rep in reps:
        digests[rep["seed"]][rep["digest"]] += 1
    usual = {seed: counts.most_common(1)[0][0] for seed, counts in digests.items()}
    return sum(rep["attempted"] if rep["digest"] != usual[rep["seed"]] else rep["failed"]
               for rep in reps)


def _declared_metrics(trace):
    """name -> unit of the metrics BENCHMARK.json declares for this pass."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _end_to_end(untraced):
    return {
        "setup_s": statistics.median(r["setup_s"] for r in untraced),
        "run_s": statistics.median(r["run_s"] for r in untraced),
        "work_per_s": statistics.median(r["work"] / r["run_s"] for r in untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }


def _per_layer(untraced, traced):
    names = traced[0]["layers"]
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in names}
    metrics["trace.overhead"] = statistics.median(
        t["run_s"] / u["run_s"] for u, t in zip(untraced, traced))
    return metrics


def _dominant_layer(traced):
    """The module (first part of the span name) with the most self time."""
    by_layer = Counter()
    for name, self_s in traced[len(traced) // 2]["ranking"]:
        by_layer[name.split(".")[0]] += self_s
    return by_layer.most_common(1)[0][0]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + BUDGET_S
    load_start = os.getloadavg()[0]
    probe_start = _cpu_probe_ms()
    units = _declared_metrics(args.trace)
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        # Untimed reduced-size run at the default seed: compiles bytecode,
        # warms the page cache, fails fast when the checkout has no program,
        # and checks outputs against the small reference whatever --seed is.
        warmup = run_child(args.workload, DEFAULT_SEED, 0, deadline, size="small")
        reps = _repetitions(args, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    runs = [warmup, *reps]
    attempted = sum(r["attempted"] for r in runs)
    failed = warmup["failed"] + _failures(reps)
    errors = [r["error"] for r in runs if r["error"]]
    measured = _per_layer(untraced, traced) if args.trace else _end_to_end(untraced)
    metrics = {name: measured[name] for name in units}
    summary = {
        "workload": args.workload, "trace": args.trace,
        "repetitions": len(reps), "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "reference_checked": sum(r["checked_against_reference"] for r in runs),
        "metrics": metrics, "errors": errors,
        "provenance": _provenance(args.seed, load_start, probe_start),
        "warmup_result": warmup, "repetition_results": reps,
    }
    if traced:
        summary["dominant_layer"] = _dominant_layer(traced)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1)

    prov = summary["provenance"]
    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)}"
          f"  loadavg {load_start:.2f}->{prov['loadavg_1m_end']:.2f}"
          f"  cpu probe {probe_start:.1f}->{prov['cpu_probe_ms_end']:.1f} ms")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:.6g} {units[name]}")
    print(f"  {'failed_frac':42s} {failed / attempted:.6g} ratio"
          f"  ({failed} of {attempted}; {summary['reference_checked']} "
          f"run(s), warm-up included, checked against a reference)")
    if traced:
        top = ", ".join(f"{name} {s:.3g} s" for name, s in traced[0]["ranking"][:3])
        print(f"  dominant layer: {summary['dominant_layer']}  (top self times: {top})")
    for error in errors[:1]:
        print(error, file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
