"""Command-line interface.

Subcommands: bound (evaluate a tail bound from a profile or closed form),
run (execute an experiment config), scale (scaling study over sizes),
report (recompute a summary from a record CSV).

Exit codes: 0 success, 2 config error or an argument outside a bound's
domain, 3 hypothesis-violation refusal, 4 size-limit error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys

from ..bounds import TypicalProfile
from ..errors import ConfigError, HypothesisViolationError, IncompleteProfileError, \
    InvalidArgumentError, SizeLimitError
from .config import load_config, load_profile, read_text
from .runner import bound_source, records_from_csv, run_experiment, scaling_study, \
    summarize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_SIZE = 4

# The options each bound method reads, by argparse dest; all but m_max are
# required.  A set option that the method does not read is refused.
METHOD_OPTIONS = {
    "theorem1-closed": ("n", "m_max"),
    "theorem1-recursion": ("profile", "m_max"),
    "main": ("profile", "m_max"),
    "chernoff-corollary": ("n", "sigma2"),
    "general-chernoff": ("nu",),
}
BOUND_OPTIONS = ("profile", "n", "sigma2", "nu", "m_max")


def _result_json(t, method, curve):
    """The bound command's JSON of the one point of a TailCurve at t."""
    moment_bound = float(curve.moment_bound[0])
    return json.dumps({
        "t": t,
        "m_used": int(curve.m_used[0]),
        # a zero moment bound: JSON has no -Infinity
        "log_moment_bound": None if moment_bound == -math.inf else moment_bound,
        "tail_probability": float(curve.tail_probability[0]),
        "method": method.value,
    }, indent=2)


def _bound_source(args):
    """The bound source of a bound command; runner.bound_source applies
    --m-max, or its default order cap when it is not set."""
    if args.method == "chernoff-corollary":
        return {"kind": "bernoulli", "n": args.n, "sigma2": args.sigma2}
    if args.method == "general-chernoff":
        return {"kind": "hetero_bernoulli", "nus": [args.nu]}
    if args.method == "theorem1-closed":
        return {"kind": "closed", "n": args.n}
    profile = load_profile(args.profile)
    if args.method == "theorem1-recursion":
        base = profile.base if isinstance(profile, TypicalProfile) else profile
        return {"kind": "profile", "profile": base}
    if not isinstance(profile, TypicalProfile):
        raise ConfigError("$", "the main bound needs a typical profile "
                               "(with 'L' and 'delta')")
    return {"kind": "profile", "profile": profile}


def cmd_bound(args):
    reads = METHOD_OPTIONS[args.method]
    for dest in BOUND_OPTIONS:
        flag = "--" + dest.replace("_", "-")
        if getattr(args, dest) is None:
            if dest in reads and dest != "m_max":
                raise ConfigError(flag, f"required by --method {args.method}")
        elif dest not in reads:
            raise ConfigError(flag, f"not read by --method {args.method}")
    method, _, curve = bound_source(_bound_source(args), [args.t], args.m_max)
    print(_result_json(args.t, method, curve))
    return EXIT_OK


def cmd_run(args):
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, base_seed=args.seed)
    records, summary = run_experiment(config, workers=args.workers, out=args.out)
    for warning in summary.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(summary.to_json())
    return EXIT_OK


def _open_out(path):
    """The --out file of report, opened before the summary so that a bad path
    fails first."""
    return open(path, "w") if path else contextlib.nullcontext()


def cmd_scale(args):
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, base_seed=args.seed)
    study = scaling_study(config, args.n_list, workers=args.workers, out=args.out)
    print(study.to_json())
    return EXIT_OK


def cmd_report(args):
    # The records are read before --out is opened, so an --out naming the
    # records file does not empty it first.
    records = records_from_csv(read_text(args.records))
    if not records:
        raise ConfigError("$", "record file contains no records")
    with _open_out(args.out) as fh:
        summary = summarize(records)
        text = summary.to_json()
        if fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def _finite_float(text):
    """argparse type of a float flag: NaN and +-inf are refused, so no bound
    is evaluated at them and no Infinity reaches the JSON output."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _float_sized_int(text):
    """argparse type of --n: an integer no larger in magnitude than the
    largest float, since the bounds compute with n as a float."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if abs(value) > sys.float_info.max:
        raise argparse.ArgumentTypeError(
            f"must be an integer a float can hold, at most {sys.float_info.max!r} "
            "in magnitude")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tailbounds",
        description="Concentration bounds and their Monte Carlo verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate a tail bound")
    p_bound.add_argument("--method", required=True, choices=METHOD_OPTIONS)
    p_bound.add_argument("--profile", help="JSON moment-profile file")
    p_bound.add_argument("--t", type=_finite_float, required=True)
    p_bound.add_argument("--n", type=_float_sized_int)
    p_bound.add_argument("--sigma2", type=_finite_float)
    p_bound.add_argument("--nu", type=_finite_float)
    p_bound.add_argument("--m-max", dest="m_max", type=int)
    p_bound.set_defaults(fn=cmd_bound)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--out")
    p_run.set_defaults(fn=cmd_run)

    p_scale = sub.add_parser("scale", help="scaling study over sizes")
    p_scale.add_argument("config")
    p_scale.add_argument("--n-list", dest="n_list", type=int, nargs="+",
                         required=True)
    p_scale.add_argument("--seed", type=int)
    p_scale.add_argument("--workers", type=int, default=1)
    p_scale.add_argument("--out")
    p_scale.set_defaults(fn=cmd_scale)

    p_report = sub.add_parser("report", help="summarize a record CSV")
    p_report.add_argument("records")
    p_report.add_argument("--out")
    p_report.set_defaults(fn=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InvalidArgumentError, IncompleteProfileError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HypothesisViolationError as exc:
        print(f"refusing to emit a bound: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
