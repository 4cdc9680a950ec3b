#!/usr/bin/env python3
"""Compare the outputs of two checkouts, sweep by sweep.

Usage: python scripts/compare_outputs.py PARENT_DIR CHANGE_DIR

The change's sweep scripts run on each checkout's kernel: for each side a
temporary tree holds a link to the change's ``scripts/`` and links to that
checkout's ``src/`` and ``bench/``.  The scripts take ``ROOT`` from
``os.path.abspath(__file__)``, which keeps the links, so they load the
linked kernel and benchmark, and a sweep script that the change adds runs
against an older parent too.  The sweeps are ``sweep_outputs.py`` on the
change's ``fixtures/*.json``, one fixture per process, so that each runs
in a process that has loaded only what its document kind loads,
``sweep_bench_requests.py W 1 7 13`` for every workload W of the change's
``BENCHMARK.json``, and ``sweep_suites.py`` (``verify --json``) on every
suite of the change, each in a process of its own; a sweep's lines are
those of its processes in order.  Both sides get the same scripts and
arguments, so the lines of an unchanged program are the same, and a suite
that the change removes is not a difference.  For each sweep one line is
printed:
``NAME: identical (N lines)``, the first line that differs with both
sides' text, or the sweep that failed.  Exit status: 0 every sweep
identical, 1 a difference or a failed sweep, 2 bad arguments.
"""

import glob
import json
import os
import subprocess
import sys
import tempfile

SEEDS = ("1", "7", "13")


def sweeps(change_dir: str, fixtures=None, seeds=SEEDS, suites=()) -> list:
    """(name, script, argvs) of every sweep, one process per argv: the
    output sweep on each of the change's fixtures (or of ``fixtures``), the
    request sweep of each workload of the change's BENCHMARK.json on
    ``seeds``, then the suite sweep on ``suites`` (none named: every suite
    of the change)."""
    if fixtures is None:
        fixtures = sorted(glob.glob(os.path.join(change_dir, "fixtures",
                                                 "*.json")))
    with open(os.path.join(change_dir, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    return [("sweep_outputs", "sweep_outputs.py", [[f] for f in fixtures])] + \
        [(f"sweep_bench_requests {w}", "sweep_bench_requests.py",
          [[w, *seeds]]) for w in workloads] + \
        [("sweep_suites", "sweep_suites.py",
          [list(suites) or suite_names(change_dir)])]


def suite_names(change_dir: str) -> list:
    """The names of the change's ``conley_kernel.suites.SUITES``, read in a
    process with the change's ``src/`` first on the path; none when they do
    not load, so that each side sweeps its own suites and the change's
    sweep reports the failure."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "from conley_kernel.suites import SUITES; print(*sorted(SUITES))")
    done = subprocess.run(
        [sys.executable, "-c", probe, os.path.join(change_dir, "src")],
        cwd=change_dir, capture_output=True, text=True)
    return done.stdout.split() if done.returncode == 0 else []


def sweep_tree(checkout: str, change_dir: str, tree: str) -> str:
    """Make ``tree``: a link to the change's ``scripts/`` and links to the
    checkout's ``src/`` and ``bench/``."""
    os.mkdir(tree)
    os.symlink(os.path.join(change_dir, "scripts"),
               os.path.join(tree, "scripts"))
    for name in ("src", "bench"):
        os.symlink(os.path.join(checkout, name), os.path.join(tree, name))
    return tree


def run_sweep(tree: str, checkout: str, script: str, argvs: list) -> list:
    """The output lines of one sweep run in ``tree`` on the kernel of
    ``checkout``, a process per argv; raises RuntimeError with the last
    error line of the first process that fails."""
    lines = []
    for argv in argvs:
        done = subprocess.run(
            [sys.executable, os.path.join(tree, "scripts", script), *argv],
            cwd=tree, capture_output=True, text=True)
        if done.returncode != 0:
            last = (done.stderr.strip().splitlines() or [""])[-1]
            raise RuntimeError(f"exit {done.returncode} in {checkout}: {last}")
        lines += done.stdout.splitlines()
    return lines


def first_difference(parent: list, change: list) -> str | None:
    """The first line where the two outputs differ, with both sides' text,
    or None where they are identical."""
    for i in range(max(len(parent), len(change))):
        a = parent[i] if i < len(parent) else "<end of output>"
        b = change[i] if i < len(change) else "<end of output>"
        if a != b:
            return f"differs at line {i + 1}:\n  parent: {a}\n  change: {b}"
    return None


def compare(parent_dir: str, change_dir: str, fixtures=None,
            seeds=SEEDS, suites=()) -> int:
    code = 0
    with tempfile.TemporaryDirectory() as tmp:
        sides = [(sweep_tree(d, change_dir, os.path.join(tmp, side)), d)
                 for side, d in (("parent", parent_dir), ("change", change_dir))]
        for name, script, argvs in sweeps(change_dir, fixtures, seeds, suites):
            try:
                parent, change = [run_sweep(tree, d, script, argvs)
                                  for tree, d in sides]
            except RuntimeError as exc:
                print(f"{name}: failed ({exc})")
                code = 1
                continue
            diff = first_difference(parent, change)
            print(f"{name}: " + (diff or f"identical ({len(change)} lines)"))
            if diff is not None:
                code = 1
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(os.path.isdir(os.path.join(d, "src"))
                                 for d in argv) or \
            not os.path.isdir(os.path.join(argv[1], "scripts")) or \
            not os.path.isfile(os.path.join(argv[1], "BENCHMARK.json")):
        print("usage: python scripts/compare_outputs.py PARENT_DIR CHANGE_DIR "
              "(two checkouts with src/; the change with scripts/ and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    return compare(*(os.path.abspath(d) for d in argv))


if __name__ == "__main__":
    sys.exit(main())
