"""JSON document schema: systems, named sets, and result serialization.

All rationals travel as exact strings ("p/q" or "p"), infinities as
"inf"/"-inf", intervals as 4-tuples [lo, lo_closed, hi, hi_closed], box sets
as lists of boxes (a box is a list of per-axis intervals).  Parsing then
serializing then parsing is the identity on every valid document.
:func:`document_builder` parses once, keeping canonical values only, and
builds a new system and new sets from them, with empty memos, on every
load, the first included: each kind's parser returns the parser of its
sets and the builder of its loads.

Each kind's parser imports the modules of its kind (``finite_map``:
finite; ``interval_map``: boxes and affine; ``semiflow``: boxes, affine
and semiflow), and the box-set readers import boxes on first use, so
reading one kind loads no other kind's modules; the serializers read
attributes only and import nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Any, Callable

from . import __version__
from .errors import echo

if TYPE_CHECKING:       # annotations only: the box readers import on use
    from .boxes import BoxSet, Cut, Interval


class DocumentError(ValueError):
    pass


def _shown(value) -> str:     # repr(value), cut as finite.echo cuts it
    return echo(repr(value) if isinstance(value, str) else value)


def format_rat(q: Fraction) -> str:
    return str(q)


# 'p' or 'p/q' with optional surrounding whitespace and a sign, no spaces
# around the slash and a denominator without a leading zero (so nonzero);
# \d and \s are the Unicode classes, and int() reads every digit \d matches
_RAT_RE = re.compile(r"\s*([+-]?\d+)(?:/([1-9]\d*))?\s*")


def parse_rat(tok) -> Fraction:
    """Accept integers and 'p/q' strings only; no decimal or inexact forms."""
    if isinstance(tok, int) and not isinstance(tok, bool):
        return Fraction(tok)
    if isinstance(tok, str):
        m = _RAT_RE.fullmatch(tok)
        if m is not None:
            n, d = m.groups()
            return Fraction(int(n), int(d)) if d else Fraction(int(n))
    raise DocumentError(f"bad rational {_shown(tok)} (use 'p' or 'p/q')")


@cache
def _boxes():
    """:mod:`conley_kernel.boxes`, imported by the first box value read."""
    from . import boxes
    return boxes


def cut_to_json(c: Cut) -> str:
    if c.sign < 0:
        return "-inf"
    if c.sign > 0:
        return "inf"
    return format_rat(c.value)


def cut_from_json(tok) -> Cut:
    bx = _boxes()
    if tok == "inf":
        return bx.POS_INF
    if tok == "-inf":
        return bx.NEG_INF
    return bx.Cut.finite(parse_rat(tok))


def interval_to_json(iv: Interval) -> list:
    return [cut_to_json(iv.lo), iv.lo_closed, cut_to_json(iv.hi), iv.hi_closed]


def interval_from_json(data) -> Interval:
    if not isinstance(data, (list, tuple)) or len(data) != 4:
        raise DocumentError(f"interval must be [lo, lo_closed, hi, hi_closed], "
                            f"got {_shown(data)}")
    lo, lc, hi, hc = data
    if not isinstance(lc, bool) or not isinstance(hc, bool):
        raise DocumentError("endpoint flags must be booleans")
    try:
        return _boxes().Interval(cut_from_json(lo), cut_from_json(hi), lc, hc)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def boxset_to_json(bs: BoxSet) -> list:
    return [[interval_to_json(iv) for iv in box] for box in bs.boxes]


def boxset_from_json(data, dimension: int) -> BoxSet:
    if not isinstance(data, list):
        raise DocumentError("a box set must be a list of boxes")
    boxes = []
    for box in data:
        if not isinstance(box, list) or len(box) != dimension:
            raise DocumentError(f"each box needs {dimension} interval(s)")
        boxes.append(tuple(interval_from_json(iv) for iv in box))
    return _boxes().BoxSet.of(dimension, boxes)


@dataclass(frozen=True)
class SystemDocument:
    kind: str                 # finite_map | interval_map | semiflow
    system: object            # FinitePartialMap | PiecewiseAffineMap | ExactSemiflow
    sets: dict

    def resolve(self, label: str):
        if label not in self.sets:
            raise DocumentError(f"unknown set label {label!r}")
        return self.sets[label]


def _dimension(data: dict) -> int:
    dim = data["dimension"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise DocumentError(f"dimension must be an integer >= 1, got {_shown(dim)}")
    return dim


def _expect(val, kind: type, what: str):
    if not isinstance(val, kind):
        kind_name = "object" if kind is dict else "list"
        raise DocumentError(f"{what} must be a JSON {kind_name}")
    return val


def _parse_finite(data: dict) -> tuple[Callable, Callable]:
    from .finite import FinitePartialMap, FiniteSpace, FiniteSubset
    try:
        points = data["points"]
        if not isinstance(points, list) or \
                not all(isinstance(p, str) for p in points):
            raise DocumentError("points must be a list of strings")
        space = FiniteSpace.of(points)
        targets = FinitePartialMap.of(
            space, _expect(data.get("table", {}), dict, "table")).targets
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"bad finite system: {exc}") from exc
    points = space.points

    def parse_set(val) -> int:
        if not isinstance(val, list):
            raise DocumentError("a finite set must be a list of point names")
        try:
            return FiniteSubset.of(space, val).mask
        except ValueError as exc:
            raise DocumentError(str(exc)) from exc

    def build(masks: dict):
        space = FiniteSpace(points)
        return (FinitePartialMap(space, targets),
                {label: FiniteSubset(space, m) for label, m in masks.items()})
    return parse_set, build


def _parse_interval(data: dict) -> tuple[Callable, Callable]:
    from .affine import AffineRule, Piece, PiecewiseAffineMap
    BoxSet = _boxes().BoxSet
    try:
        dim = _dimension(data)
        pieces = []
        for p in _expect(data["pieces"], list, "pieces"):
            dom = boxset_from_json(p["domain"], dim)
            rules = tuple(AffineRule.of(parse_rat(r["slope"]),
                                        parse_rat(r["intercept"]))
                          for r in p["rules"])
            if len(rules) != dim:
                raise DocumentError("one rule per axis required")
            pieces.append(Piece(dom, rules))
        node = PiecewiseAffineMap.of(dim, pieces).node
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"bad interval system: {exc}") from exc

    def build(nodes: dict):
        return (PiecewiseAffineMap(dim, node),
                {label: BoxSet(dim, n) for label, n in nodes.items()})
    return (lambda v: boxset_from_json(v, dim).node), build


def _parse_semiflow(data: dict) -> tuple[Callable, Callable]:
    from .semiflow import AxisRule, ExactSemiflow
    BoxSet = _boxes().BoxSet
    try:
        dim = _dimension(data)
        axes = []
        if len(_expect(data["axes"], list, "axes")) != dim:
            raise DocumentError(f"dimension {dim} does not match the "
                                f"{len(data['axes'])} axes")
        for a in data["axes"]:
            kind = a["kind"]
            if kind == "identity":
                axes.append(AxisRule.identity())
            elif kind == "translation":
                axes.append(AxisRule.translation(parse_rat(a["velocity"])))
            elif kind in ("floor", "ceil"):
                rule = AxisRule.floor if kind == "floor" else AxisRule.ceil
                axes.append(rule(parse_rat(a["velocity"]), parse_rat(a["clamp"])))
            else:
                raise DocumentError(f"unknown axis kind {_shown(kind)}")
        carrier = None
        if "carrier" in data:
            carrier = boxset_from_json(data["carrier"], dim)
        flow = ExactSemiflow.of(axes, carrier)
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"bad semiflow system: {exc}") from exc
    axes, carrier = flow.axes, flow.carrier.node

    def build(nodes: dict):
        return (ExactSemiflow(dim, axes, BoxSet(dim, carrier)),
                {label: BoxSet(dim, n) for label, n in nodes.items()})
    return (lambda v: boxset_from_json(v, dim).node), build


# kind: its parser, which checks and canonicalises the system and returns
# (parse_set, build).  parse_set turns the JSON of a set into its canonical
# value (a mask or a node); build(values) makes a new system and new sets
# from the system's and the sets' canonical values (points and targets,
# masks, nodes, axes), which are immutable and hold no memo.  The objects
# built run their constructors, so every memo and cached property of a
# system or a set starts empty; no parse object escapes.
_PARSERS = {
    "finite_map": _parse_finite,
    "interval_map": _parse_interval,
    "semiflow": _parse_semiflow,
}


def document_builder(data: dict) -> Callable[[], SystemDocument]:
    """Check and canonicalise a decoded document once, and return a
    function that gives a document equal to it on every call, with a
    system and sets built anew by the kind's ``build``, which no other call
    gets.  The function keeps only canonical values, never a document it
    gave out, and threads may share it."""
    if not isinstance(data, dict):
        raise DocumentError("document must be a JSON object")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _PARSERS:
        raise DocumentError(f"unknown document kind {_shown(kind)}")
    system = _expect(data.get("system", {}), dict, "'system'")
    sets = _expect(data.get("sets", {}), dict, "'sets'")
    parse_set, build = _PARSERS[kind](system)
    values = {str(label): parse_set(val) for label, val in sets.items()}
    return lambda: SystemDocument(kind, *build(values))


def parse_document(data: dict) -> SystemDocument:
    return document_builder(data)()


def set_to_json(doc_kind: str, value) -> Any:
    if doc_kind == "finite_map":
        return list(value.ordered())
    return boxset_to_json(value)


def document_to_json(doc: SystemDocument) -> dict:
    if doc.kind == "finite_map":
        f = doc.system
        system = {"points": list(f.space.points),
                  "table": {x: y for x, y in f.pairs}}
    elif doc.kind == "interval_map":
        f = doc.system
        system = {
            "dimension": f.dimension,
            "pieces": [{"domain": boxset_to_json(p.domain),
                        "rules": [{"slope": format_rat(r.slope),
                                   "intercept": format_rat(r.intercept)}
                                  for r in p.rules]}
                       for p in f.pieces],
        }
    else:
        flow = doc.system
        axes = []
        for r in flow.axes:
            entry = {"kind": r.kind}
            if r.kind != "identity":
                entry["velocity"] = format_rat(r.velocity)
            if r.clamp is not None:
                entry["clamp"] = format_rat(r.clamp)
            axes.append(entry)
        system = {"dimension": flow.dimension, "axes": axes,
                  "carrier": boxset_to_json(flow.carrier)}
    return {"kind": doc.kind, "system": system,
            "sets": {label: set_to_json(doc.kind, v)
                     for label, v in doc.sets.items()}}


def meta_block(seed=None, bound=None) -> dict:
    out = {"tool": "conley-kernel", "version": __version__}
    if seed is not None:
        out["seed"] = seed
    if bound is not None:
        out["bound"] = str(bound)
    return out


def checks_to_json(checks) -> list:
    return [{"name": c.name, "detail": c.detail, "ok": c.ok} for c in checks]


def report_to_json(report) -> dict:
    return {
        "carrier": report.carrier,
        "invariant_set": report.invariant_set,
        "neighbourhoods": [
            {"label": n.label, "object": n.object_repr,
             "canonical_invariant": list(n.canonical_invariant)
             if n.canonical_invariant else None}
            for n in report.neighbourhoods],
        "morphisms": [
            {"source": m.source, "target": m.target,
             "triple": [str(m.triple.a), str(m.triple.b), str(m.triple.c)],
             "shift": str(m.shift), "invertible": m.invertible,
             "witness": m.witness, "checks": checks_to_json(m.checks)}
            for m in report.morphisms],
        "checks": checks_to_json(report.checks),
        "ok": report.ok,
    }
