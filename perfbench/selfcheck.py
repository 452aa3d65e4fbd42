"""Reduced-size self-check of the benchmark's correctness check.

    python3 perfbench/selfcheck.py

For every workload, at the reduced ("small") size and the default seed:
the unperturbed run must give failed_frac == 0, and the same run checked
against a copy of the reference with one value perturbed must give
failed_frac > 0.  Exits non-zero if either fails.  Not part of the test
suite; it takes about half a minute.
"""

from __future__ import annotations

import copy
import os
import sys
import time

import workloads
from run import BUDGET_S, OUT_DIR, run_child

# Relative size of the perturbation: above the tolerance of the value it
# lands on, so the check must notice it.
PERTURB = {"f": 1e-6, "rows": 1e-6, "curves": 1e-9}


def _perturbed(reference):
    """A copy with one value changed: a curve point where the workload has
    curves, else a scaling row's sd, else the first record's f."""
    ref = copy.deepcopy(reference)
    if "curves" in ref:
        label = sorted(ref["curves"])[0]
        bound = ref["curves"][label]["bound"]
        j = next(j for j, b in enumerate(bound) if b == b and b != 0.0)
        bound[j] *= 1.0 + PERTURB["curves"]
        return ref, f"curves.{label}.bound[{j}]"
    if "rows" in ref:
        ref["rows"][0]["sd"] *= 1.0 + PERTURB["rows"]
        return ref, "rows[0].sd"
    ref["f"][0] = ref["f"][0] * (1.0 + PERTURB["f"]) or PERTURB["f"]
    return ref, "f[0]"


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    ok = True
    seed = workloads.DEFAULT_SEED
    for name in workloads.WORKLOADS:
        clean = run_child(name, seed, 0, deadline, size="small")
        reference, where = _perturbed(workloads.load_reference(name, "small"))
        path = os.path.join(OUT_DIR, f"perturbed-{name}.json.gz")
        workloads.write_json_gz(path, reference)
        perturbed = run_child(name, seed, 0, deadline, size="small",
                              extra=("--reference-override", path))
        os.remove(path)
        clean_frac = clean["failed"] / clean["attempted"]
        perturbed_frac = perturbed["failed"] / perturbed["attempted"]
        passed = (clean["checked_against_reference"] and clean_frac == 0
                  and perturbed_frac > 0)
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}: failed_frac {clean_frac:g} "
              f"unperturbed, {perturbed_frac:g} with {where} perturbed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
