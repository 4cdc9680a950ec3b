#!/usr/bin/env python3
"""Run every request of one benchmark workload once and print its output.

Usage: python scripts/sweep_bench_requests.py WORKLOAD SEED [SEED ...]

For each seed in turn, the workload is built by the benchmark's own set-up
(``bench/common.py``) in a temporary directory, and each request runs once
through the benchmark's ``execute``, on the kernel under ``src/`` of this
checkout.  Standard output gets one JSON object per request, in workload
order: ``name``, ``exit`` and ``stdout``; several seeds print one stream,
the outputs of the single seeds one after another.  Two checkouts compare
line by line, like the output of ``sweep_outputs.py``.  Nothing under
``bench/`` is changed.
"""

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import run as bench  # noqa: E402
from common import set_up  # noqa: E402


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    builders = bench.builders()
    if len(argv) < 2 or argv[0] not in builders or \
            not all(seed.isdigit() for seed in argv[1:]):
        print("usage: python scripts/sweep_bench_requests.py WORKLOAD SEED "
              f"[SEED ...] (WORKLOAD one of {', '.join(sorted(builders))})",
              file=sys.stderr)
        return 2
    bench.import_kernel()
    for seed in argv[1:]:
        with tempfile.TemporaryDirectory() as workdir:
            workload, parsed = set_up(builders[argv[0]], int(seed), workdir)
            for req in workload.requests:
                code, out = bench.execute(req, parsed)
                print(json.dumps({"name": req.name, "exit": code,
                                  "stdout": out}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
