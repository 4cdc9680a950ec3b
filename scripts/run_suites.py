#!/usr/bin/env python3
"""Run every verification suite and print a summary table.

Usage: python scripts/run_suites.py [--seed K] [--trials N] [--only NAME ...]

--seed and --trials go to the suites that read them (``suites.SEEDED``);
the others run as they are.  Exits 0 when every suite passes, 1 when one
fails, and 2, before any suite runs, on an unknown suite name or a trial
count below 1 (``suites.check_request``), as ``conley-kernel verify``
does.
"""

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))   # this checkout's kernel first

from conley_kernel.suites import (  # noqa: E402
    SEEDED, SUITES, check_request, check_trials, run_suite)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--only", action="append", help="suite name (repeatable)")
    args = parser.parse_args(argv)

    names = args.only or sorted(SUITES)
    given = {"trials": args.trials, "seed": args.seed}
    options = {name: given if name in SEEDED else {} for name in names}
    try:
        check_trials(args.trials)
        for name in names:
            check_request(name, **options[name])
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    failures = 0
    for name in names:
        started = time.time()
        result = run_suite(name, **options[name])
        status = "pass" if result.passed else "FAIL"
        print(f"{name:28s} {status}  ({time.time() - started:6.1f}s)")
        for line in result.lines:
            print(f"    {line}")
        if not result.passed:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
