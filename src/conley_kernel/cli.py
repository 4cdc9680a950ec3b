"""Batch front-end: parse system documents, dispatch operations, emit reports.

The commands come from one table, :data:`COMMANDS` (name, help, handler,
options), from which :func:`build_parser` builds the sub-parsers.  Every
document command takes one request path, :func:`main`: it checks the
negative flags, loads the document, derives the search bound, and builds
the ``meta`` block and the JSON or human output.  A handler maps (args,
document, bound) to (exit code, payload, human lines[, the bound its search
used]) and does no I/O; it looks kernel functions up through their modules
at call time, so a function swapped on its module is the one called.
``verify``, which takes no document, keeps its own short path.

A document text is parsed once per process while it stays among the last
32 texts read (:data:`PARSE_CACHE_SIZE`, a bounded LRU cache keyed by the
text, of :func:`documents.document_builder` results).  Every load, the
first included, gets a system and sets of its own, built with empty memos
from the parse's canonical values, so no two requests share a memo and all
kernel work of a request is done in it.  A process that loads a text once
does the work it did without the cache.

Exit codes are a stable contract: 0 success, 1 property or expectation
violation, 2 input error (any ``ValueError``, and a text nested too
deeply to decode), 3 undecided (an
``Undecided`` from any layer, which ``check`` catches per set, or a
``MemoryError`` or ``RecursionError``: resource exhausted), 4 internal
error (any other exception, so that a crash never reads as a complete
negative; a standard output closed before the reply is written, too).
The default search bound is 64, overridable via CONLEY_DEFAULT_BOUND;
negative bounds are input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import conley as co
from . import dynamics as dyn
from .documents import (
    DocumentError, SystemDocument, boxset_to_json, checks_to_json,
    document_builder, meta_block, report_to_json, set_to_json,
)
from .errors import Undecided

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_UNDECIDED = 3
EXIT_INTERNAL = 4

# exhausted resources: a module constant, so that matching them builds no
# tuple while memory is exhausted
EXHAUSTED = (MemoryError, RecursionError)


PARSE_CACHE_SIZE = 32


class _TooDeep(ValueError):
    """A text nested too deeply for the decoder, which recurses per level."""


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def _builder(text: str):
    """The document builder of one text, kept for the PARSE_CACHE_SIZE
    texts read last.  A parse is a pure function of the text, and a failure
    raises, so it is never kept."""
    try:
        data = json.loads(text)
    except RecursionError as exc:       # an unreadable text, not exhaustion
        raise _TooDeep(f"nested too deeply to decode: {exc}") from None
    return document_builder(data)


def _load(path: str) -> SystemDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        build = _builder(text)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError,
            _TooDeep) as exc:
        raise DocumentError(f"cannot read document {path}: {exc}")
    return build()


def _emit(args, payload: dict, human_lines: list[str]):
    """Print the reply and flush it, so that a closed standard output
    raises here, inside :func:`main`'s handlers."""
    if args.json:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for line in human_lines:
            print(line)
    sys.stdout.flush()


def _silence_stdout():
    """Point standard output at the null device: after a broken pipe the
    interpreter's flush at exit would otherwise fail again and print."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return                          # not a file descriptor: nothing flushes
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _search_bound(doc, args):
    """The bound the work on doc runs with and reports: --bound or the
    default, and none on the finite carrier, whose searches derive their
    own complete bound and whose other work takes none."""
    bound = args.bound
    if bound is None:
        raw = os.environ.get("CONLEY_DEFAULT_BOUND", "64")
        try:
            bound = int(raw)
        except ValueError:
            raise DocumentError(f"CONLEY_DEFAULT_BOUND must be an integer, got {raw!r}")
        if bound < 0:
            raise DocumentError(f"CONLEY_DEFAULT_BOUND must not be negative, got {raw!r}")
    return None if doc.system.default_bound is None else bound


def _pair(args, doc):
    return doc.resolve(args.from_), doc.resolve(args.set)


def _certificate(result):
    """Reply for a certificate or a Failure."""
    payload = {"status": "certified", "checks": checks_to_json(result.checks)}
    lines = [f"  {c!r}" for c in result.checks]
    if isinstance(result, co.Failure):
        payload.update(status="failure", reason=result.reason)
        return EXIT_VIOLATION, payload, [f"failure: {result.reason}"] + lines
    return EXIT_OK, payload, ["certified"] + lines


def _no_triple(search, line):
    """Reply for an admissible-triple search that found none."""
    status = "none" if search.complete else "unknown"
    return (EXIT_VIOLATION if search.complete else EXIT_UNDECIDED,
            {"status": status}, [f"{status}: {line}"], search.bound)


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


# ---------------------------------------------------------------------------
# handlers: (args, doc, bound) -> (exit code, payload, lines[, bound used])

def check(args, doc, bound):
    table = {label: _predicates_for(doc, doc.resolve(label))
             for label in args.set or sorted(doc.sets)}
    lines = [line for label, preds in table.items() for line in
             [f"{label}:"] + [f"  {name}: {val}" for name, val in preds.items()]]
    unknown = any("unknown" in preds.values() for preds in table.values())
    return (EXIT_UNDECIDED if unknown else EXIT_OK), {"table": table}, lines


def invariant_part(args, doc, bound):
    e = doc.resolve(args.set)
    result = doc.system.invariant_part(e, bound)
    return (EXIT_OK, {"status": "exact", "invariant_part": set_to_json(doc.kind, result)},
            [f"invariant part: {result!r}"])


def certify(predicate: str):
    """Handler: certify E = --nbhd for S = --set by ``co.<predicate>``."""
    def handler(args, doc, bound):
        s, e = doc.resolve(args.set), doc.resolve(args.nbhd)
        return _certificate(getattr(co, predicate)(doc.system, e, s, cap=bound))
    return handler


def sim(args, doc, bound):
    result = dyn.sim_f(doc.system, *_pair(args, doc), bound=bound)
    code = {"equivalent": EXIT_OK,
            "not_equivalent": EXIT_VIOLATION}.get(result.status, EXIT_UNDECIDED)
    return (code,
            {"status": result.status,
             "forward": [str(x) for x in result.forward] if result.forward else None,
             "backward": [str(x) for x in result.backward] if result.backward else None},
            [f"{result.status}",
             f"  forward witness (a, b): {result.forward}",
             f"  backward witness (a', b'): {result.backward}"],
            result.bound)


def admissible(args, doc, bound):
    search = dyn.find_admissible(doc.system, *_pair(args, doc), bound=bound)
    if not search.found:
        return _no_triple(search, "no admissible triple " + (
            "exists" if search.complete else "found within bound"))
    t = search.triple
    return (EXIT_OK, {"status": "found", "triple": [str(t.a), str(t.b), str(t.c)]},
            [f"admissible triple: {t}"], search.bound)


def index(args, doc, bound):
    s, e = doc.resolve(args.set), doc.resolve(args.nbhd)
    constructed = None
    if args.search is not None:
        constructed = co.construct_index_nbhd(
            doc.system, s, e, None if bound is None else args.search)
        if isinstance(constructed, co.Failure):
            return _certificate(constructed)
        e = constructed.subset
    report = co.verify_simple_system(doc.system, s, [e], bound=bound)
    if isinstance(report, co.Failure):
        return _certificate(report)
    payload = {"report": report_to_json(report)}
    lines = [f"carrier: {report.carrier}", f"invariant set: {report.invariant_set}"]
    if constructed is not None:
        payload["constructed"] = {
            "subset": set_to_json(doc.kind, constructed.subset),
            "triple": [str(x) for x in constructed.triple.as_tuple()]}
        lines.insert(0, f"constructed neighbourhood: {constructed.subset!r} "
                        f"via triple {constructed.triple}")
    for n in report.neighbourhoods:
        lines.append(f"object at {n.label}: {n.object_repr}"
                     + (f"  invariant {n.canonical_invariant}"
                        if n.canonical_invariant else ""))
    lines.append("certified" if report.ok else "VIOLATION in functor laws")
    return (EXIT_OK if report.ok else EXIT_VIOLATION), payload, lines


def szymczak_equal(args, doc, bound):
    """Compare the connecting morphisms built from two different admissible
    triples; representative independence demands they agree."""
    e, e2 = _pair(args, doc)
    search = dyn.find_admissible(doc.system, e, e2, bound)
    if not search.found:
        return _no_triple(search, "no admissible triple found")
    # (a, b, c + 1) is admissible with (a, b, c): the first condition does
    # not involve c, and D_{c+1-a}(E') <= D_{c-a}(E') <= f^-(b-a)(E), since
    # the swept domains shrink (see dynamics.find_admissible)
    t1 = search.triple
    t2 = dyn.AdmissibleTriple(t1.a, t1.b, t1.c + 1)
    equal = co.same_class(doc.system, e, e2, t1, t2)
    return ((EXIT_OK if equal else EXIT_VIOLATION),
            {"equal": equal,
             "triples": [[str(x) for x in t.as_tuple()] for t in (t1, t2)]},
            [f"morphism classes from triples {t1} and {t2}: "
             f"{'equal' if equal else 'DIFFERENT'}"],
            search.bound)


def shift_equiv(args, doc, bound):
    """Is the connecting morphism from E = --from to E' = --set invertible?

    Finite carrier: no exactly when no admissible triple exists.  A triple
    gives Inv(E) <= E' and Inv(E') <= E (see :mod:`conley_kernel.dynamics`),
    so Inv(E) = Inv(E'), the cycles of f inside both.  The connecting map
    sends each cycle point x, whose orbit stays in Inv(E), to f^c(x) on its
    cycle, and the basepoint to the basepoint: it maps the eventual image
    of E's one-point endo, Inv(E) and the basepoint, bijectively onto that
    of E', so :func:`~conley_kernel.szymczak.is_shift_equivalence` always
    finds a witness (were it to find none, the command would end as an
    internal error, never as a false no)."""
    e, e2 = _pair(args, doc)
    if doc.system.carrier_name == "finite":
        # explicit based endos: decide shift equivalence directly
        from . import szymczak as sz
        m = co.connecting_morphism(doc.system, e, e2)
        if isinstance(m, co.Failure):
            return EXIT_VIOLATION, {"status": "no", "reason": m.reason}, \
                [f"no: {m.reason}"]
        wit = sz.is_shift_equivalence(m.phi)
        return (EXIT_OK, {"status": "yes", "exponent": wit.exponent,
                          "partner": repr(wit.psi)},
                [f"yes: partner {wit.psi!r} with exponent {wit.exponent}"])
    # box carriers: verify invertibility through the functor laws
    s = doc.system.invariant_part(e.closure())
    rep = co.verify_simple_system(doc.system, s, [e, e2], bound=bound)
    if isinstance(rep, co.Failure):
        return _certificate(rep)
    return ((EXIT_OK if rep.ok else EXIT_VIOLATION),
            {"status": "yes" if rep.ok else "violated",
             "report": report_to_json(rep)},
            ["yes: connecting morphisms verified invertible" if rep.ok
             else "VIOLATION in invertibility checks"])


def verify(args) -> int:
    # the suites and their oracles are test code: only this command loads them
    from .suites import run_suite
    result = run_suite(args.suite, trials=args.trials, seed=args.seed)
    payload = {"meta": meta_block(seed=args.seed),
               "suite": result.name, "passed": result.passed,
               "lines": result.lines}
    _emit(args, payload,
          [f"suite {result.name}: {'pass' if result.passed else 'FAIL'}"] +
          [f"  {line}" for line in result.lines])
    return EXIT_OK if result.passed else EXIT_VIOLATION


def _set_nbhd(set_help=None, nbhd_help=None):
    return (("--set", {"required": True, "help": set_help}),
            ("--nbhd", {"required": True, "help": nbhd_help}))


_FROM_SET = (("--from", {"dest": "from_", "required": True}),
             ("--set", {"required": True}))

# name, help, handler (None: no document), options
COMMANDS = (
    ("check", "predicate table for named subsets", check,
     (("--set", {"action": "append", "help": "subset label (repeatable)"}),)),
    ("invariant-part", "invariant part of a subset", invariant_part,
     (("--set", {"required": True}),)),
    ("isolating", "certify an isolating neighbourhood", certify("is_isolating"),
     _set_nbhd("the invariant set S", "the candidate neighbourhood E")),
    ("index-nbhd", "certify an index neighbourhood", certify("is_index_nbhd"),
     _set_nbhd()),
    ("sim", "decide the absorption equivalence E ~ E'", sim, _FROM_SET),
    ("admissible", "find an admissible triple", admissible, _FROM_SET),
    ("index", "compute and certify a Conley index", index,
     _set_nbhd("the invariant set S",
               "index neighbourhood (or seed when --search is given)") +
     (("--search", {"type": int, "default": None, "metavar": "N",
                    "help": "construct an index neighbourhood inside --nbhd "
                            "with search bound N (finite documents derive a "
                            "complete bound)"}),)),
    ("szymczak-equal", "representative independence of connecting morphisms",
     szymczak_equal, _FROM_SET),
    ("shift-equiv", "decide shift equivalence of the connecting map",
     shift_equiv, _FROM_SET),
    ("verify", "run a named verification suite", None,
     (("--suite", {"required": True}),
      ("--trials", {"type": int, "default": None}),
      ("--seed", {"type": int, "default": None}))),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conley-kernel",
        description="Exact Conley index kernel over finite and rational box "
                    "carriers")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, options in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if handler is not None:
            p.add_argument("doc", help="path to a JSON system document")
            p.add_argument("--bound", type=int, default=None,
                           help="search bound (default CONLEY_DEFAULT_BOUND or 64)")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--json", action="store_true", help="JSON output")
        group.add_argument("--human", dest="json", action="store_false",
                           help="human-readable output (default)")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(json=False, handler=handler)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state
    between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except ValueError as exc:            # DocumentError is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:             # exit 1 would claim a complete "no"
        if isinstance(exc, BrokenPipeError):
            _silence_stdout()
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


def _run(args) -> int:
    """One request: its reply emitted, its exit code returned.  Undecided
    work and exhausted resources reply "unknown"; any other exception,
    one from emitting the reply included, goes to :func:`main`.

    The except clauses only record (reason, bound, outer approximant); the
    "unknown" reply is built after the ``try`` statement, once the failed
    work's frames, and the memory they hold, are released: built inside a
    clause, it could exhaust memory again."""
    for flag in ("bound", "search"):     # suites.check_request checks --trials
        if (getattr(args, flag, None) or 0) < 0:
            raise DocumentError(f"--{flag} must not be negative")
    unknown = None
    try:
        if args.handler is None:
            return verify(args)
        doc = _load(args.doc)
        bound = _search_bound(doc, args)
        code, payload, lines, *used = args.handler(args, doc, bound)
        payload["meta"] = meta_block(bound=used[0] if used else bound)
    except Undecided as exc:
        unknown = exc.reason, exc.bound, exc.outer
    except EXHAUSTED:
        unknown = "resource exhausted", None, None
    if unknown is not None:
        reason, bound, outer = unknown
        code = EXIT_UNDECIDED
        payload = {"meta": meta_block(bound=bound), "status": "unknown",
                   "reason": reason}
        lines = [f"unknown: {reason}"]
        if outer is not None:            # outer approximants are box sets
            payload["outer"] = boxset_to_json(outer)
            lines.append(f"outer approximant: {outer!r}")
    _emit(args, payload, lines)
    return code


if __name__ == "__main__":
    sys.exit(main())
