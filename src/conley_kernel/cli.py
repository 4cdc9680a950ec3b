"""Batch front-end: parse system documents, dispatch operations, emit reports.

Exit codes are a stable contract: 0 success, 1 property or expectation
violation, 2 input error, 3 undecided.  An ``Undecided`` raised by any layer
reaches :func:`main`, which alone turns it into exit 3 and the ``unknown``
payload; ``check`` catches it per set.  The default search bound is 64,
overridable via CONLEY_DEFAULT_BOUND; negative bounds are input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import conley as co
from . import dynamics as dyn
from .carriers import carrier_for
from .documents import (
    DocumentError, boxset_to_json, checks_to_json, meta_block,
    parse_document, report_to_json, set_to_json,
)
from .semiflow import Undecided

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_UNDECIDED = 3


def default_bound() -> int:
    raw = os.environ.get("CONLEY_DEFAULT_BOUND", "64")
    try:
        bound = int(raw)
    except ValueError:
        raise DocumentError(f"CONLEY_DEFAULT_BOUND must be an integer, got {raw!r}")
    if bound < 0:
        raise DocumentError(f"CONLEY_DEFAULT_BOUND must not be negative, got {raw!r}")
    return bound


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DocumentError(f"cannot read document {path}: {exc}")
    return parse_document(data)


def _emit(args, payload: dict, human_lines: list[str]):
    if args.json:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for line in human_lines:
            print(line)


def _search_bound(doc, args):
    """The bound the work on doc runs with and reports: --bound or the
    default, and none on the finite carrier, whose searches derive their
    own complete bound and whose other work takes none."""
    bound = args.bound if args.bound is not None else default_bound()
    return None if carrier_for(doc.system).default_bound is None else bound


def _predicates_for(doc, subset):
    """Predicate table for one subset; values True/False/'unknown'."""
    try:
        checks = dyn.compactifiability_checks(doc.system, subset)
    except Undecided as exc:
        return {"compactifiable": "unknown", "reason": exc.reason}
    out = dict(checks)
    out["weakly compactifiable"] = all(ok for _, ok in checks[:2])
    out["compactifiable"] = all(ok for _, ok in checks)
    return out


def cmd_check(args) -> int:
    doc = _load(args.doc)
    labels = args.set or sorted(doc.sets)
    bound = _search_bound(doc, args)
    table = {}
    any_unknown = False
    for label in labels:
        subset = doc.resolve(label)
        preds = _predicates_for(doc, subset)
        table[label] = preds
        if any(v == "unknown" for v in preds.values()):
            any_unknown = True
    lines = []
    for label, preds in table.items():
        lines.append(f"{label}:")
        for name, val in preds.items():
            lines.append(f"  {name}: {val}")
    _emit(args, {"meta": meta_block(bound=bound), "table": table}, lines)
    return EXIT_UNDECIDED if any_unknown else EXIT_OK


def cmd_invariant_part(args) -> int:
    doc = _load(args.doc)
    e = doc.resolve(args.set)
    bound = _search_bound(doc, args)
    result = carrier_for(doc.system).invariant_part(doc.system, e, bound)
    _emit(args, {"meta": meta_block(bound=bound), "status": "exact",
                 "invariant_part": set_to_json(doc.kind, result)},
          [f"invariant part: {result!r}"])
    return EXIT_OK


def _certificate_exit(args, result, bound) -> int:
    meta = meta_block(bound=bound)
    if isinstance(result, co.Failure):
        _emit(args, {"meta": meta, "status": "failure", "reason": result.reason,
                     "checks": checks_to_json(result.checks)},
              [f"failure: {result.reason}"] +
              [f"  {c!r}" for c in result.checks])
        return EXIT_VIOLATION
    _emit(args, {"meta": meta, "status": "certified",
                 "checks": checks_to_json(result.checks)},
          ["certified"] + [f"  {c!r}" for c in result.checks])
    return EXIT_OK


def cmd_isolating(args) -> int:
    doc = _load(args.doc)
    s, e = doc.resolve(args.set), doc.resolve(args.nbhd)
    bound = _search_bound(doc, args)
    result = co.is_isolating(doc.system, e, s, cap=bound)
    return _certificate_exit(args, result, bound)


def cmd_index_nbhd(args) -> int:
    doc = _load(args.doc)
    s, e = doc.resolve(args.set), doc.resolve(args.nbhd)
    bound = _search_bound(doc, args)
    result = co.is_index_nbhd(doc.system, e, s, cap=bound)
    return _certificate_exit(args, result, bound)


def cmd_sim(args) -> int:
    doc = _load(args.doc)
    e, e2 = doc.resolve(args.from_), doc.resolve(args.set)
    bound = _search_bound(doc, args)
    result = dyn.sim_f(doc.system, e, e2, bound=bound)
    payload = {"meta": meta_block(bound=result.bound), "status": result.status,
               "forward": [str(x) for x in result.forward] if result.forward else None,
               "backward": [str(x) for x in result.backward] if result.backward else None}
    _emit(args, payload,
          [f"{result.status}",
           f"  forward witness (a, b): {result.forward}",
           f"  backward witness (a', b'): {result.backward}"])
    if result.status == "equivalent":
        return EXIT_OK
    return EXIT_VIOLATION if result.status == "not_equivalent" else EXIT_UNDECIDED


def cmd_admissible(args) -> int:
    doc = _load(args.doc)
    e, e2 = doc.resolve(args.from_), doc.resolve(args.set)
    bound = _search_bound(doc, args)
    search = dyn.find_admissible(doc.system, e, e2,
                                 bound=bound)
    meta = meta_block(bound=search.bound)
    if search.found:
        t = search.triple
        _emit(args, {"meta": meta, "status": "found",
                     "triple": [str(t.a), str(t.b), str(t.c)]},
              [f"admissible triple: {t}"])
        return EXIT_OK
    status = "none" if search.complete else "unknown"
    _emit(args, {"meta": meta, "status": status},
          [f"{status}: no admissible triple "
           f"{'exists' if search.complete else 'found within bound'}"])
    return EXIT_VIOLATION if search.complete else EXIT_UNDECIDED


def cmd_index(args) -> int:
    doc = _load(args.doc)
    s = doc.resolve(args.set)
    e = doc.resolve(args.nbhd)
    bound = _search_bound(doc, args)
    constructed = None
    if args.search is not None:
        built = co.construct_index_nbhd(
            doc.system, s, e, None if bound is None else args.search)
        if isinstance(built, co.Failure):
            return _certificate_exit(args, built, bound)
        constructed = built
        e = built.subset
    report = co.verify_simple_system(doc.system, s, [e], bound=bound)
    if isinstance(report, co.Failure):
        return _certificate_exit(args, report, bound)
    payload = {"meta": meta_block(bound=bound), "report": report_to_json(report)}
    if constructed is not None:
        payload["constructed"] = {
            "subset": set_to_json(doc.kind, constructed.subset),
            "triple": [str(x) for x in constructed.triple.as_tuple()],
        }
    lines = [f"carrier: {report.carrier}", f"invariant set: {report.invariant_set}"]
    if constructed is not None:
        lines.insert(0, f"constructed neighbourhood: {constructed.subset!r} "
                        f"via triple {constructed.triple}")
    for n in report.neighbourhoods:
        lines.append(f"object at {n.label}: {n.object_repr}"
                     + (f"  invariant {n.canonical_invariant}"
                        if n.canonical_invariant else ""))
    lines.append("certified" if report.ok else "VIOLATION in functor laws")
    _emit(args, payload, lines)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_szymczak_equal(args) -> int:
    """Compare the connecting morphisms built from two different admissible
    triples; representative independence demands they agree."""
    doc = _load(args.doc)
    e, e2 = doc.resolve(args.from_), doc.resolve(args.set)
    bound = _search_bound(doc, args)
    search = dyn.find_admissible(doc.system, e, e2, bound)
    meta = meta_block(bound=search.bound)
    if not search.found:
        status = "none" if search.complete else "unknown"
        _emit(args, {"meta": meta, "status": status},
              [f"{status}: no admissible triple found"])
        return EXIT_VIOLATION if search.complete else EXIT_UNDECIDED
    t1 = search.triple
    t2 = dyn.AdmissibleTriple(t1.a, t1.b, t1.c + 1)
    if not dyn.is_admissible(doc.system, e, e2, t2):
        _emit(args, {"meta": meta, "status": "unknown"},
              ["unknown: no second admissible triple"])
        return EXIT_UNDECIDED
    equal = co.same_class(doc.system, e, e2, t1, t2)
    _emit(args, {"meta": meta, "equal": equal,
                 "triples": [[str(x) for x in t.as_tuple()] for t in (t1, t2)]},
          [f"morphism classes from triples {t1} and {t2}: "
           f"{'equal' if equal else 'DIFFERENT'}"])
    return EXIT_OK if equal else EXIT_VIOLATION


def cmd_shift_equiv(args) -> int:
    doc = _load(args.doc)
    e, e2 = doc.resolve(args.from_), doc.resolve(args.set)
    bound = _search_bound(doc, args)
    if carrier_for(doc.system).name == "finite":
        # explicit based endos: decide shift equivalence directly
        m = co.connecting_morphism(doc.system, e, e2)
        if isinstance(m, co.Failure):
            _emit(args, {"meta": meta_block(bound=bound), "status": "no",
                         "reason": m.reason}, [f"no: {m.reason}"])
            return EXIT_VIOLATION
        from .szymczak import is_shift_equivalence
        wit = is_shift_equivalence(m.phi)
        if wit is None:
            _emit(args, {"meta": meta_block(bound=bound), "status": "no"},
                  ["no: the connecting map is not a shift equivalence"])
            return EXIT_VIOLATION
        _emit(args, {"meta": meta_block(bound=bound), "status": "yes",
                     "exponent": wit.exponent, "partner": repr(wit.psi)},
              [f"yes: partner {wit.psi!r} with exponent {wit.exponent}"])
        return EXIT_OK
    # box carriers: verify invertibility through the functor laws
    ca = carrier_for(doc.system)
    s = ca.invariant_part(doc.system, e.closure())
    rep = co.verify_simple_system(doc.system, s, [e, e2], bound=bound)
    if isinstance(rep, co.Failure):
        return _certificate_exit(args, rep, bound)
    ok = rep.ok
    _emit(args, {"meta": meta_block(bound=bound),
                 "status": "yes" if ok else "violated",
                 "report": report_to_json(rep)},
          ["yes: connecting morphisms verified invertible" if ok
           else "VIOLATION in invertibility checks"])
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_verify(args) -> int:
    # the suites and their oracles are test code: only this command loads them
    from .suites import SUITES, run_suite
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; known: {', '.join(sorted(SUITES))}",
              file=sys.stderr)
        return EXIT_INPUT
    result = run_suite(args.suite, trials=args.trials, seed=args.seed,
                       bound=args.bound)
    payload = {"meta": meta_block(seed=args.seed, bound=args.bound),
               "suite": result.name, "passed": result.passed,
               "lines": result.lines}
    _emit(args, payload,
          [f"suite {result.name}: {'pass' if result.passed else 'FAIL'}"] +
          [f"  {line}" for line in result.lines])
    return EXIT_OK if result.passed else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conley-kernel",
        description="Exact Conley index kernel over finite and rational box "
                    "carriers")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, doc=True):
        if doc:
            p.add_argument("doc", help="path to a JSON system document")
        p.add_argument("--bound", type=int, default=None,
                       help="search bound (default CONLEY_DEFAULT_BOUND or 64)")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--json", action="store_true", help="JSON output")
        group.add_argument("--human", dest="json", action="store_false",
                           help="human-readable output (default)")
        p.set_defaults(json=False)

    p = sub.add_parser("check", help="predicate table for named subsets")
    add_common(p)
    p.add_argument("--set", action="append", help="subset label (repeatable)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("invariant-part", help="invariant part of a subset")
    add_common(p)
    p.add_argument("--set", required=True)
    p.set_defaults(func=cmd_invariant_part)

    p = sub.add_parser("isolating", help="certify an isolating neighbourhood")
    add_common(p)
    p.add_argument("--set", required=True, help="the invariant set S")
    p.add_argument("--nbhd", required=True, help="the candidate neighbourhood E")
    p.set_defaults(func=cmd_isolating)

    p = sub.add_parser("index-nbhd", help="certify an index neighbourhood")
    add_common(p)
    p.add_argument("--set", required=True)
    p.add_argument("--nbhd", required=True)
    p.set_defaults(func=cmd_index_nbhd)

    p = sub.add_parser("sim", help="decide the absorption equivalence E ~ E'")
    add_common(p)
    p.add_argument("--from", dest="from_", required=True)
    p.add_argument("--set", required=True)
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("admissible", help="find an admissible triple")
    add_common(p)
    p.add_argument("--from", dest="from_", required=True)
    p.add_argument("--set", required=True)
    p.set_defaults(func=cmd_admissible)

    p = sub.add_parser("index", help="compute and certify a Conley index")
    add_common(p)
    p.add_argument("--set", required=True, help="the invariant set S")
    p.add_argument("--nbhd", required=True,
                   help="index neighbourhood (or seed when --search is given)")
    p.add_argument("--search", type=int, default=None, metavar="N",
                   help="construct an index neighbourhood inside --nbhd "
                        "with search bound N (finite documents derive a "
                        "complete bound)")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("szymczak-equal",
                       help="representative independence of connecting morphisms")
    add_common(p)
    p.add_argument("--from", dest="from_", required=True)
    p.add_argument("--set", required=True)
    p.set_defaults(func=cmd_szymczak_equal)

    p = sub.add_parser("shift-equiv",
                       help="decide shift equivalence of the connecting map")
    add_common(p)
    p.add_argument("--from", dest="from_", required=True)
    p.add_argument("--set", required=True)
    p.set_defaults(func=cmd_shift_equiv)

    p = sub.add_parser("verify", help="run a named verification suite")
    add_common(p, doc=False)
    p.add_argument("--suite", required=True)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state
    between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        for flag in ("bound", "search", "trials"):
            if (getattr(args, flag, None) or 0) < 0:
                raise DocumentError(f"--{flag} must not be negative")
        return args.func(args)
    except ValueError as exc:            # DocumentError is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Undecided as exc:
        payload = {"meta": meta_block(bound=exc.bound), "status": "unknown",
                   "reason": exc.reason}
        lines = [f"unknown: {exc.reason}"]
        if exc.outer is not None:        # outer approximants are box sets
            payload["outer"] = boxset_to_json(exc.outer)
            lines.append(f"outer approximant: {exc.outer!r}")
        _emit(args, payload, lines)
        return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
