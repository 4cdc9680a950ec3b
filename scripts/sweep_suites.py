#!/usr/bin/env python3
"""Run ``conley-kernel verify --json`` on every named suite.

Usage: python scripts/sweep_suites.py [SUITE ...]

Each suite runs in-process through ``conley_kernel.cli.main`` at its
defaults, and each suite of ``suites.SEEDED`` once more with ``--trials 20
--seed 7``; with no SUITE, every suite of ``suites.SUITES`` in name order.
Standard output gets one JSON object per run: ``argv``, ``exit``,
``stdout`` and ``stderr``, as ``sweep_outputs.py`` prints them, so two
sweeps compare line by line.  An unknown suite name exits 2 before any
suite runs.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))   # this checkout's kernel first
sys.path.insert(1, os.path.join(ROOT, "scripts"))

from conley_kernel.suites import SEEDED, SUITES  # noqa: E402
from sweep_outputs import run  # noqa: E402

SEEDED_RUN = ("--trials", "20", "--seed", "7")


def command_lines(names: list[str]):
    """Every argv of the sweep: each suite at its defaults, then again with
    SEEDED_RUN if it reads a seed."""
    for name in names:
        yield ["verify", "--suite", name, "--json"]
        if name in SEEDED:
            yield ["verify", "--suite", name, *SEEDED_RUN, "--json"]


def main(argv=None) -> int:
    names = (sys.argv[1:] if argv is None else argv) or sorted(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        print(f"usage: python scripts/sweep_suites.py [SUITE ...]; unknown "
              f"suite {unknown[0]!r}", file=sys.stderr)
        return 2
    for line in command_lines(names):
        print(json.dumps(run(line), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
