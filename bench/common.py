"""Requests, workloads and the set-up that writes and parses their documents."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Request:
    """One timed operation.

    ``argv`` is a CLI command line (``--json`` is appended); requests with no
    CLI form give ``call`` instead, which receives the parsed documents and
    returns a JSON-like payload.  ``check(exit_code, payload)`` raises
    ``oracles.Mismatch`` when the output is wrong.  A request with ``fault``
    set is a kept fault: a mismatch counts it as failed, not incorrect.
    """

    name: str
    argv: Optional[list]
    check: Callable
    call: Optional[Callable] = None
    fault: Optional[str] = None
    same_as: Optional[str] = None


@dataclass
class Workload:
    name: str
    docs: dict = field(default_factory=dict)
    requests: list = field(default_factory=list)
    workdir: str = ""

    def add_doc(self, name: str, data: dict):
        self.docs[name] = data

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name + ".json")

    def add(self, request: Request):
        self.requests.append(request)


def set_up(build, seed: int, workdir: str):
    """Generate the workload from the seed, write its documents and parse
    each once.  Returns the workload and the parsed documents."""
    from conley_kernel.documents import parse_document

    os.makedirs(workdir, exist_ok=True)
    w = Workload("", workdir=workdir)
    w = build(seed, w)
    for name, data in w.docs.items():
        with open(w.path(name), "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    parsed = {name: parse_document(data) for name, data in w.docs.items()}
    return w, parsed
