#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the conley-kernel CLI and library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one seeded workload in this process, as a closed loop with one client:
each request is an in-process call of ``conley_kernel.cli.main`` on a
document written during set-up (or, for finite simple systems, a direct
``conley.verify_simple_system`` call).  One warm-up pass is checked against
the independent oracles and discarded; measured passes of the same ordered
requests then repeat until S seconds have passed.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, BENCH)

import speed  # noqa: E402

SETUP_REPEATS = 7
# latency_tail_ms percentile per workload: the highest of p90, p95, p99 and
# p99.9 that keeps at least ten samples beyond it in a 20-second run (the
# README lists the sample counts)
TAIL_PERCENTILE = {"finite-index": 99, "szymczak": 95, "interval-1d": 95,
                   "box-nd": 95}


def import_kernel():
    """Import the kernel from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import conley_kernel
        from conley_kernel import cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"bench: cannot import the kernel from {SRC}: {exc}")
    if not os.path.abspath(conley_kernel.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: kernel imported from {conley_kernel.__file__}, "
                 f"not from {SRC}")


def builders():
    from box_workloads import build_box_nd, build_interval_1d
    from finite_workloads import build_finite_index, build_szymczak
    return {"finite-index": build_finite_index, "szymczak": build_szymczak,
            "interval-1d": build_interval_1d, "box-nd": build_box_nd}


def set_up(workload: str, seed: int):
    from common import set_up as do_set_up
    return do_set_up(builders()[workload], seed, os.path.join(WORK, workload))


def setup_only(args) -> int:
    """One timed set-up in a fresh interpreter: imports, generation,
    writing and parsing of every document, scaled to the reference speed
    by probes taken just before and after."""
    probes = [speed.probe() for _ in range(10)]
    t0 = time.perf_counter()
    import_kernel()
    set_up(args.workload, args.seed)
    elapsed = time.perf_counter() - t0
    probes += [speed.probe() for _ in range(10)]
    scale = speed.REFERENCE_S / statistics.median(probes)
    print(json.dumps({"setup_s": elapsed * scale}))
    return 0


def setup_samples(args) -> list[float]:
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


# ---------------------------------------------------------------------------
# requests and passes

def execute(req, parsed):
    from conley_kernel import cli
    if req.argv is None:
        return 0, json.dumps(req.call(parsed), sort_keys=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(req.argv + ["--json"])
        except Exception as exc:   # a traceback is itself a wrong answer
            code = f"exception {type(exc).__name__}: {exc}"
    return code, out.getvalue()


def verdict_of(code, payload):
    """What a metamorphic pair must share: exit code, status and predicates."""
    if payload is None:
        return code, None
    return code, payload.get("status"), payload.get("table")


def verdict(req, code, text, outputs) -> str | None:
    """None when the output passes its independent check, else the reason.
    ``outputs`` maps request names to (exit code, text) of this pass."""
    from oracles import Mismatch, expect
    try:
        payload = json.loads(text) if text.strip() else None
        req.check(code, payload)
        if req.same_as is not None:
            code2, text2 = outputs[req.same_as]
            mine, theirs = verdict_of(code, payload), \
                verdict_of(code2, json.loads(text2))
            expect(mine == theirs, f"verdict {mine} differs from "
                                   f"{req.same_as}: {theirs}")
    except Mismatch as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output ({type(exc).__name__}: {exc}): {text[:200]!r}"
    return None


class Runner:
    def __init__(self, workload, parsed):
        self.requests = workload.requests
        self.parsed = parsed
        self.reference = None      # outputs of the checked warm-up pass
        self.problems = {}         # request name -> reason, non-fault only
        self.fault_failures = set()

    def warm_up(self):
        self.reference = [execute(req, self.parsed) for req in self.requests]
        self._judge_all(self.reference, [True] * len(self.requests))

    def _judge_all(self, outputs, which):
        named = {req.name: out for req, out in zip(self.requests, outputs)}
        for req, (code, text), judge in zip(self.requests, outputs, which):
            if judge:
                self._judge(req, code, text, named)

    def _judge(self, req, code, text, named):
        reason = verdict(req, code, text, named)
        if reason is None:
            return
        if req.fault:
            self.fault_failures.add(req.name)
        else:
            self.problems[req.name] = reason

    def measured_pass(self, latencies: list, tracer=None, scaled=True):
        """Run every request once; return the pass's wall time and the CPU
        time its requests took.  With ``scaled``, a speed probe runs between
        requests, and the latencies added to ``latencies`` and the CPU time
        are scaled to the reference speed."""
        outputs, raw, cpu, probes = [], [], [], []
        start = time.perf_counter()
        for i, req in enumerate(self.requests):
            if scaled:
                probes.append(speed.probe())
            if tracer is not None:
                tracer.request_id = i
            c0, t0 = cpu_seconds(), time.perf_counter()
            code, text = execute(req, self.parsed)
            raw.append(time.perf_counter() - t0)
            cpu.append(cpu_seconds() - c0)
            outputs.append((code, text))
        if scaled:
            probes.append(speed.probe())
        factors = speed.factors(probes) if scaled else [1.0] * len(raw)
        wall = time.perf_counter() - start
        latencies.extend(t * k for t, k in zip(raw, factors))
        changed = [got != ref for got, ref in zip(outputs, self.reference)]
        if any(changed):
            self._judge_all(outputs, changed)
        return wall, sum(c * k for c, k in zip(cpu, factors))

    def failed_per_pass(self) -> int:
        return sum(1 for r in self.requests
                   if r.name in self.fault_failures or r.name in self.problems)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def percentile(values, p):
    """Nearest-rank percentile, and how many samples lie beyond it."""
    xs = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def run_measured(runner, seconds):
    """Whole passes until their wall time reaches ``seconds``.  Returns the
    scaled latencies, the number of passes and the scaled CPU time."""
    latencies, wall, cpu, passes = [], 0.0, 0.0, 0
    while wall < seconds:
        gc.collect()
        pass_wall, pass_cpu = runner.measured_pass(latencies)
        wall, cpu, passes = wall + pass_wall, cpu + pass_cpu, passes + 1
    return latencies, passes, cpu


def end_to_end(args, runner, setup):
    latencies, passes, cpu = run_measured(runner, args.seconds)
    n = len(latencies)
    tail, beyond = percentile(latencies, TAIL_PERCENTILE[args.workload])
    if beyond < 10:
        print(f"bench: only {beyond} samples beyond the tail percentile",
              file=sys.stderr)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "verdicts_per_s": (n / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "cpu_ms_per_verdict": (cpu / n * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    print(f"bench: {passes} passes of {len(runner.requests)} requests, "
          f"{n} samples, tail p{TAIL_PERCENTILE[args.workload]} with "
          f"{beyond} beyond", file=sys.stderr)
    return passes, metrics


def traced(args, runner):
    """Untraced passes for a third of the time, then traced passes; the
    per-layer metrics are per-pass averages over the traced ones."""
    from tracer import Tracer
    base = []
    while sum(base) < args.seconds / 3:
        gc.collect()
        base.append(runner.measured_pass([], scaled=False)[0])
    tracer = Tracer()
    walls = []
    with tracer.installed():
        while sum(walls) < args.seconds * 2 / 3:
            gc.collect()
            walls.append(runner.measured_pass([], tracer, scaled=False)[0])
    tracer.write(os.path.join(WORK, f"trace-{args.workload}.json"))
    ratio = statistics.mean(walls) / statistics.mean(base)
    return len(base) + len(walls), tracer.metrics(len(walls), sum(walls), ratio)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(TAIL_PERCENTILE))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and exit (used internally)")
    args = p.parse_args(argv)
    if args.setup_only:
        return setup_only(args)

    import_kernel()
    import selfcheck
    self_ok = selfcheck.run_all()
    setup = setup_samples(args) if not args.trace else []
    workload, parsed = set_up(args.workload, args.seed)
    runner = Runner(workload, parsed)
    runner.warm_up()
    if args.trace:
        passes, metrics = traced(args, runner)
    else:
        passes, metrics = end_to_end(args, runner, setup)
    for name, reason in sorted(runner.problems.items()):
        print(f"bench: WRONG {name}: {reason}", file=sys.stderr)
    for name in sorted(runner.fault_failures):
        print(f"bench: kept fault failed as expected: {name}", file=sys.stderr)
    result = {
        "correct": self_ok and not runner.problems,
        "attempted": passes * len(runner.requests),
        "failed": passes * runner.failed_per_pass(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
