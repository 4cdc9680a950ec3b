#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two checkouts and record it.

Usage: python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W[,W2...]
           --seeds 7,3 --pairs N --label L [--claim METRIC] [--setup-only]
           [--dry-run]

For each workload W of the comma list, in turn, and each seed, pair i runs
``bench/run.py --workload W --seed SEED --seconds S --trace 0`` once from
each checkout, each from its own directory with its own ``src/``: the
parent first when i is even, the change first when i is odd.  S is the ``run_seconds`` of the change's
``BENCHMARK.json``, the same on both sides.  The result goes to
``BENCH_<label>.json`` in the current directory, with ``label``,
``what``, ``machine``, ``claimed``, ``runs`` (the bench's JSON result of
every run, per side) and ``summary`` (per end-to-end metric of
``BENCHMARK.json``: each side's median and quartiles, in how many pairs
the change was better, ``worse_by``, how much worse the change's median is
than the parent's as a fraction, in the metric's worse direction (negative
when it is better), and ``within_bound``, whether ``worse_by`` is at most
the metric's ``bound``).  An existing file of that name keeps its other
workloads and seeds, so one file can collect several invocations;
``--claim METRIC`` records the workload (give one), metric and seeds as
the claimed gain.  ``--setup-only`` runs ``bench/run.py
--setup-only --workload W --seed SEED`` instead, one timed set-up in a
fresh interpreter per run, whose ``setup_s`` samples go under the key
``W seed SEED setup-only``, summarized as ``setup_s`` alone: a full run
gives one median of 7 set-ups, too few to resolve a change in set-up
time.  ``--dry-run`` prints the run order and runs nothing.  Exit status:
0 done, 1 a run failed, 2 bad arguments.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

METHOD = ("bench/run.py --workload W --seed N --seconds {} --trace 0 (with "
          "--setup-only and no --seconds or --trace for the runs keyed "
          "'setup-only'), run alternately on the parent and on the change "
          "(pair i runs the parent first when i is even), each from its own "
          "checkout")


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="bench_pairs.py", description=__doc__.splitlines()[0])
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    p.add_argument("--workload", required=True, help="comma list, e.g. "
                   "finite-index,box-nd")
    p.add_argument("--seeds", required=True, help="comma list, e.g. 7,3")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--claim", metavar="METRIC")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--dry-run", action="store_true")
    args = p.parse_args(argv)
    for d in (args.parent_dir, args.change_dir):
        if not os.path.isfile(os.path.join(d, "bench", "run.py")):
            p.error(f"{d} is not a checkout with bench/run.py")
    spec_path = os.path.join(args.change_dir, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        p.error(f"{args.change_dir} has no BENCHMARK.json")
    with open(spec_path) as fh:
        args.spec = json.load(fh)
    workloads = [w["name"] for w in args.spec["workloads"]]
    args.workloads = args.workload.split(",")
    for w in args.workloads:
        if w not in workloads:
            p.error(f"unknown workload {w!r} (one of {', '.join(workloads)})")
    if not re.fullmatch(r"\d+(,\d+)*", args.seeds):
        p.error(f"--seeds must be a comma list of integers: {args.seeds!r}")
    args.seeds = [int(s) for s in args.seeds.split(",")]
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        p.error(f"--label may hold letters, digits, '.', '_' and '-': "
                f"{args.label!r}")
    metrics = [m["name"] for m in args.spec["end_to_end"]]
    if args.claim is not None and args.claim not in metrics:
        p.error(f"unknown metric {args.claim!r} (one of {', '.join(metrics)})")
    if args.claim is not None and len(args.workloads) > 1:
        p.error("--claim names the metric of one workload")
    if args.setup_only and args.claim not in (None, "setup_s"):
        p.error("--setup-only measures setup_s alone")
    return args


def run_order(args):
    """(workload, seed, pair, side, checkout) of every run, in the order
    run."""
    sides = (("parent", args.parent_dir), ("change", args.change_dir))
    for workload in args.workloads:
        for seed in args.seeds:
            for i in range(args.pairs):
                for side, folder in (sides if i % 2 == 0 else sides[::-1]):
                    yield workload, seed, i, side, folder


def bench_argv(args, workload, seed):
    if args.setup_only:
        return [sys.executable, "bench/run.py", "--setup-only", "--workload",
                workload, "--seed", str(seed)]
    return [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(args.spec["run_seconds"]),
            "--trace", "0"]


def run_once(args, workload, seed, folder):
    proc = subprocess.run(bench_argv(args, workload, seed), cwd=folder,
                          capture_output=True, text=True,
                          timeout=60 * args.spec["run_seconds"] + 600)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"bench run in {folder} failed "
                           f"(exit {proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare_samples(a: list, b: list, sign: int, bound=None) -> dict:
    """Median and inclusive quartiles of the parent's samples ``a`` and the
    change's ``b``, the pairs the change won (ties count for neither), and
    ``worse_by`` and ``within_bound`` (None without a bound, or where the
    parent's median is 0); ``sign`` is 1 where higher is better, -1 where
    lower is."""
    row, medians = {}, []
    for side, xs in (("parent", a), ("change", b)):
        q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") \
            if len(xs) > 1 else (xs[0],) * 3
        medians.append(med)
        row.update({f"{side}_median": round(med, 4),
                    f"{side}_q1": round(q1, 4),
                    f"{side}_q3": round(q3, 4)})
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    row["change_wins"] = f"{wins}/{len(a)}"
    parent, change = medians
    worse = sign * (parent - change) / abs(parent) if parent else None
    row["worse_by"] = None if worse is None else round(worse, 4)
    row["within_bound"] = None if worse is None or bound is None else \
        worse <= bound
    return row


def summarize(spec, parent: list, change: list) -> dict:
    """Per end-to-end metric, :func:`compare_samples` of the two sides'
    runs against the metric's bound, or of their ``setup_s`` alone for
    ``--setup-only`` samples."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    if "metrics" not in parent[0]:
        return {"setup_s": compare_samples([r["setup_s"] for r in parent],
                                           [r["setup_s"] for r in change], -1,
                                           bounds.get("setup_s"))}
    out = {}
    for m in spec["end_to_end"]:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        out[name] = compare_samples(
            [r["metrics"][name]["value"] for r in parent],
            [r["metrics"][name]["value"] for r in change], sign, bounds[name])
    out["correct"] = all(r["correct"] for r in parent + change)
    out["failed"] = sorted({r["failed"] for r in parent + change})
    return out


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    order = list(run_order(args))
    if args.dry_run:
        for workload, seed, i, side, folder in order:
            print(f"seed {seed} pair {i} {side}: (cd {folder} && python3 "
                  f"{' '.join(bench_argv(args, workload, seed)[1:])})")
        return 0
    path = f"BENCH_{args.label}.json"
    record = {"label": args.label, "claimed": None, "runs": {}}
    if os.path.exists(path):
        with open(path) as fh:
            record = json.load(fh)
    runs = {}
    for workload, seed, i, side, folder in order:
        key = f"{workload} seed {seed}" + \
            (" setup-only" if args.setup_only else "")
        runs.setdefault(key, {"parent": [], "change": []})
        try:
            runs[key][side].append(run_once(args, workload, seed, folder))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"bench_pairs: {exc}", file=sys.stderr)
            return 1
        print(f"{key} pair {i} {side}: done", file=sys.stderr)
    record["runs"].update(runs)
    if args.claim is not None:
        record["claimed"] = {"workload": args.workload, "metric": args.claim,
                             "seeds": args.seeds}
    record["what"] = METHOD.format(args.spec["run_seconds"]) + ": " + \
        ", ".join(f"{len(v['parent'])} pairs of {k}"
                  for k, v in record["runs"].items())
    record["machine"] = (f"{platform.system()}, {os.cpu_count()} cores, "
                         f"Python {platform.python_version()}; times are "
                         f"scaled to the bench's reference speed "
                         f"(bench/speed.py)")
    record["summary"] = {k: summarize(args.spec, v["parent"], v["change"])
                         for k, v in record["runs"].items()}
    keys = ("label", "what", "machine", "claimed", "runs", "summary")
    with open(path, "w") as fh:
        json.dump({k: record[k] for k in keys} |
                  {k: v for k, v in record.items() if k not in keys},
                  fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
