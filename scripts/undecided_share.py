#!/usr/bin/env python3
"""Count the undecided replies of a sweep, command by command.

Usage: python scripts/undecided_share.py [SWEEP.jsonl]
       python scripts/sweep_outputs.py fixtures/*.json | \
           python scripts/undecided_share.py

Reads the JSON lines that ``scripts/sweep_outputs.py`` prints, from the
file given or from standard input.  For each command, in the order of its
first call, one line ``COMMAND: K/N``: K of its N ``--json`` calls exited 3
(undecided).  ``index --search`` is counted apart from ``index``.  The
``--human`` calls repeat the ``--json`` ones, so they are not counted.
Exit status: 0 counted, 2 a line that is not a sweep record or a file
that cannot be read.
"""

import json
import sys

EXIT_UNDECIDED = 3


def command_of(argv: list) -> str:
    return f"{argv[0]} --search" if "--search" in argv else argv[0]


def is_record(record) -> bool:
    return isinstance(record, dict) and \
        isinstance(record.get("argv"), list) and record["argv"] and \
        all(isinstance(a, str) for a in record["argv"]) and \
        type(record.get("exit")) is int and \
        isinstance(record.get("stdout"), str) and \
        isinstance(record.get("stderr"), str)


def shares(lines) -> dict:
    """{command: [undecided, calls]} over the --json calls; raises
    ValueError naming the first line that is not a sweep record."""
    counts = {}
    for number, line in enumerate(lines, 1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            record = None
        if not is_record(record):
            raise ValueError(f"line {number} is not a sweep record")
        if "--json" in record["argv"]:
            count = counts.setdefault(command_of(record["argv"]), [0, 0])
            count[0] += record["exit"] == EXIT_UNDECIDED
            count[1] += 1
    return counts


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print("usage: python scripts/undecided_share.py [SWEEP.jsonl]",
              file=sys.stderr)
        return 2
    try:
        if args:
            with open(args[0], "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
        counts = shares(text.splitlines())
    except (OSError, ValueError) as exc:      # a bad encoding is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    for command, (undecided, calls) in counts.items():
        print(f"{command}: {undecided}/{calls}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
