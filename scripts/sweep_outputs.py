#!/usr/bin/env python3
"""Run every CLI command over every named set of the given documents.

Usage: python scripts/sweep_outputs.py DOC.json [DOC.json ...]

Each command runs in-process through ``conley_kernel.cli.main``:
``check`` and ``invariant-part`` on every named set, ``isolating``,
``index-nbhd``, ``index`` and ``index --search 8`` on every ordered pair
(S, N), and ``sim``, ``admissible``, ``szymczak-equal`` and ``shift-equiv``
on every ordered pair (E, E').  Each runs with the default bound and with
``--bound 8``, in ``--json`` and in ``--human``.  Standard output gets one
JSON object per call: ``argv``, ``exit``, ``stdout`` and ``stderr``.  Two
sweeps of the same documents compare line by line, which shows every
output that a change to the kernel or the CLI moves.
"""

import contextlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))   # this checkout's kernel first

from conley_kernel.cli import main as cli_main  # noqa: E402

SINGLE = (("check", "--set"), ("invariant-part", "--set"))
PAIRS = (("isolating", "--set", "--nbhd"),
         ("index-nbhd", "--set", "--nbhd"),
         ("index", "--set", "--nbhd"),
         ("index", "--set", "--nbhd", "--search", "8"),
         ("sim", "--from", "--set"),
         ("admissible", "--from", "--set"),
         ("szymczak-equal", "--from", "--set"),
         ("shift-equiv", "--from", "--set"))


def command_lines(path: str, labels: list[str]):
    """Every argv of the sweep for one document, without the bound and
    output flags."""
    for command, flag in SINGLE:
        for label in labels:
            yield [command, path, flag, label]
    for command, first, second, *extra in PAIRS:
        for a in labels:
            for b in labels:
                yield [command, path, first, a, second, b, *extra]


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: python scripts/sweep_outputs.py DOC.json [DOC.json ...]",
              file=sys.stderr)
        return 2
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            labels = sorted(json.load(fh).get("sets", {}))
        for line in command_lines(path, labels):
            for bound in ([], ["--bound", "8"]):
                for mode in ("--json", "--human"):
                    print(json.dumps(run(line + bound + [mode]),
                                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
