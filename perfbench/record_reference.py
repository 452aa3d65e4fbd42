"""Record the reference outputs that workloads.check compares against.

    python3 perfbench/record_reference.py

Runs every workload once at the default seed, at both sizes, and
overwrites reference/<workload>.<size>.json.gz.  Re-record only when a
change to the program is meant to change its outputs, and say why in
CHANGES.md.
"""

from __future__ import annotations

import sys
import time

from run import BUDGET_S, run_child
from workloads import DEFAULT_SEED, WORKLOADS


def main():
    for name in WORKLOADS:
        for size in ("small", "full"):
            deadline = time.monotonic() + BUDGET_S
            result = run_child(name, DEFAULT_SEED, 0, deadline, size=size,
                                extra=("--record",))
            print(f"{name} {size}: recorded {result['attempted']} units")
    return 0


if __name__ == "__main__":
    sys.exit(main())
