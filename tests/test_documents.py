import dataclasses
import functools
import gc
import json
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conley_kernel import documents as docs
from conley_kernel import semiflow as sf
from conley_kernel.boxes import BoxSet, Interval
from conley_kernel.documents import DocumentError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# documents written here, not as fixtures: a fixture would join the
# output sweep of scripts/sweep_outputs.py
INLINE = {
    "drift_flow": {"kind": "semiflow", "system": {
        "dimension": 2, "axes": [{"kind": "translation", "velocity": "-3/2"},
                                 {"kind": "identity"}]},
        "sets": {"strip": [[["0", True, "1", False], ["-inf", False, "2", True]]]}},
}


def load(name):
    if name in INLINE:
        return json.loads(json.dumps(INLINE[name]))
    with open(FIXTURES / name, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ["attractor.json", "doubling.json",
                                  "clamp_flow.json", "shift2d.json",
                                  "corner_flow.json", "kinked.json",
                                  "kinked_corner.json", "drift_flow"])
def test_round_trip_is_identity(name):
    raw = load(name)
    doc = docs.parse_document(raw)
    dumped = docs.document_to_json(doc)
    again = docs.parse_document(dumped)
    assert docs.document_to_json(again) == dumped
    assert set(again.sets) == set(doc.sets)


def test_kinked_fixture_keeps_its_canonical_pieces():
    # six written pieces: a redundant split at 1 and the point -1 with the
    # value its neighbours give it; three rules remain, each point joining
    # the piece on its left
    f = docs.parse_document(load("kinked.json")).system
    assert [(docs.boxset_to_json(p.domain), [str(r.slope) for r in p.rules])
            for p in f.pieces] == [
        ([[["-inf", False, "0", True]]], ["-1/3"]),
        ([[["0", False, "4", True]]], ["1/2"]),
        ([[["4", False, "inf", False]]], ["2"])]
    # two squares that meet at the origin: on the segment of x = 0 that
    # each holds, its axis-0 rule keeps only the value 0 there, and the
    # two segments keep different axis-1 rules
    corner = docs.parse_document(load("kinked_corner.json")).system
    assert [docs.boxset_to_json(p.domain) for p in corner.pieces] == [
        [[["-1", True, "0", False], ["-1", True, "0", True]]],
        [[["0", True, "0", True], ["-1", True, "0", True]]],
        [[["0", True, "0", True], ["0", False, "1", True]]],
        [[["0", False, "1", True], ["0", True, "1", True]]]]


def test_rationals_serialize_exactly():
    from fractions import Fraction
    assert docs.format_rat(Fraction(3, 2)) == "3/2"
    assert docs.format_rat(Fraction(-7)) == "-7"
    assert docs.parse_rat("3/2") == Fraction(3, 2)
    assert docs.parse_rat("4") == Fraction(4)


def test_floats_rejected():
    with pytest.raises(DocumentError):
        docs.parse_rat(0.5)


def test_infinities():
    iv = docs.interval_from_json(["-inf", False, "1/2", True])
    assert iv == Interval.make("-inf", False, "1/2", True)
    assert docs.interval_to_json(iv) == ["-inf", False, "1/2", True]


def test_interval_shape_errors():
    with pytest.raises(DocumentError):
        docs.interval_from_json(["0", True, "1"])
    with pytest.raises(DocumentError):
        docs.interval_from_json(["0", 1, "1", True])
    with pytest.raises(DocumentError):
        docs.interval_from_json(["1", True, "0", True])


def test_boxset_round_trip():
    bs = BoxSet.of(2, [(Interval.closed(0, 1), Interval.open(-1, 1))])
    assert docs.boxset_from_json(docs.boxset_to_json(bs), 2) == bs


def test_unknown_kind():
    with pytest.raises(DocumentError):
        docs.parse_document({"kind": "mystery", "system": {}})


def test_unknown_label():
    doc = docs.parse_document(load("attractor.json"))
    with pytest.raises(DocumentError):
        doc.resolve("nope")


def test_bad_finite_set():
    raw = load("attractor.json")
    raw["sets"]["bad"] = ["ghost"]
    with pytest.raises(DocumentError):
        docs.parse_document(raw)


def test_discontinuous_interval_system_rejected():
    raw = load("doubling.json")
    raw["system"]["pieces"].append({
        "domain": [[["-inf", False, "0", True]]],
        "rules": [{"slope": "1", "intercept": "5"}],
    })
    with pytest.raises(DocumentError):
        docs.parse_document(raw)


EMPTY_INTERVAL_MAP = {"kind": "interval_map",
                      "system": {"dimension": 1, "pieces": []}}
CLAMP_AXIS = {"kind": "floor", "velocity": "1", "clamp": "0"}


def _with(raw, **changes):
    raw = json.loads(json.dumps(raw))
    for key, value in changes.items():
        (raw if key in ("sets", "system") else raw["system"])[key] = value
    return raw


@pytest.mark.parametrize("raw", [
    _with(load("doubling.json"), sets=[["0", True, "0", True]]),
    _with(load("attractor.json"), sets="E"),
    _with(load("doubling.json"), system=[]),
    _with(load("clamp_flow.json"), system="x"),
    *[_with(EMPTY_INTERVAL_MAP, dimension=dim)
      for dim in (1.7, -1, 0, True, "2", None)],
    {"kind": "semiflow", "system": {"dimension": 1.0, "axes": [CLAMP_AXIS]}},
    {"kind": "finite_map", "system": {"points": "abc"}},
    {"kind": "finite_map", "system": {"points": ["s", 1]}},
], ids=["sets-list", "sets-string", "system-list", "system-string",
        "dimension-1.7", "dimension--1", "dimension-0", "dimension-true",
        "dimension-string", "dimension-null", "flow-dimension-float",
        "points-string", "points-not-strings"])
def test_malformed_structure_rejected(raw):
    with pytest.raises(DocumentError):
        docs.parse_document(raw)


def test_minimal_documents_accepted():
    assert docs.parse_document(EMPTY_INTERVAL_MAP).system.dimension == 1
    flow = {"kind": "semiflow", "system": {"dimension": 1, "axes": [CLAMP_AXIS]}}
    assert docs.parse_document(flow).system.dimension == 1
    finite = {"kind": "finite_map", "system": {"points": ["a", "b"]}}
    assert docs.parse_document(finite).system.space.points == ("a", "b")


@pytest.mark.parametrize("name", ["attractor.json", "doubling.json",
                                  "clamp_flow.json", "corner_flow.json",
                                  "kinked_corner.json"])
def test_builder_gives_new_objects_and_keeps_none(name):
    build = docs.document_builder(load(name))
    first = build()
    first_keys = [vars(v).keys() for v in (first.system, *first.sets.values())]
    ref = weakref.ref(first.system)
    dumped = docs.document_to_json(first)
    del first
    gc.collect()
    assert ref() is None               # the builder keeps no document given out
    second, third = build(), build()
    assert docs.document_to_json(second) == dumped == \
        docs.document_to_json(third)
    for a, b, keys in zip((second.system, *second.sets.values()),
                          (third.system, *third.sets.values()), first_keys):
        assert a == b and a is not b
        assert vars(a).keys() == vars(b).keys() == keys   # no cache filled
    if second.kind == "finite_map":    # the sets hold the map's own space
        assert second.system.space is not third.system.space
        # the parse checked the points unique: a build reads no index
        assert "index" not in vars(second.system.space)
        assert all(s.space is second.system.space
                   for s in second.sets.values())


@pytest.mark.parametrize("name", ["clamp_flow.json", "corner_flow.json",
                                  "drift_flow"])
def test_flow_builds_skip_the_carrier_checks(name, monkeypatch):
    # ExactSemiflow.of checks the carrier in the parse; a build reuses it
    calls = []
    checked = sf._forward_invariant
    monkeypatch.setattr(sf, "_forward_invariant",
                        lambda *a: calls.append(a) or checked(*a))
    build = docs.document_builder(load(name))
    assert len(calls) == 1
    flows = [build().system for _ in range(3)]
    assert len(calls) == 1
    assert flows[0] == flows[1] == flows[2]
    assert flows[0].carrier is not flows[1].carrier


@pytest.mark.parametrize("name", ["clamp_flow.json", "corner_flow.json",
                                  "drift_flow"])
def test_each_flow_build_starts_with_no_preimages(name):
    build = docs.document_builder(load(name))
    first = build()
    assert first.system._pulled == {}
    for e in first.sets.values():
        sf.preimage(first.system, e, 1)
    assert first.system._pulled
    second = build()
    assert second.system._pulled == {}
    assert second.system._pulled is not first.system._pulled


def _caches(cls) -> list:
    """The memo fields and cached properties of a class."""
    memos = [f.name for f in dataclasses.fields(cls) if not f.init] \
        if dataclasses.is_dataclass(cls) else []
    return memos + [name for klass in cls.__mro__
                    for name, v in vars(klass).items()
                    if isinstance(v, functools.cached_property)]


def _reachable(x, out: list):
    out.append(x)
    if isinstance(x, tuple):
        for y in x:
            _reachable(y, out)
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            _reachable(getattr(x, f.name), out)
    elif hasattr(type(x), "__slots__") and type(x).__module__.startswith(
            "conley_kernel"):
        for name in type(x).__slots__:
            _reachable(getattr(x, name), out)
    return out


def _shared(a, b, out: list):
    """Everything that documents a and b hold in common, by identity."""
    if a is b:
        _reachable(a, out)
    elif isinstance(a, (tuple, list)):
        for x, y in zip(a, b):
            _shared(x, y, out)
    elif isinstance(a, dict):
        for k in a:
            _shared(a[k], b[k], out)
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _shared(getattr(a, f.name), getattr(b, f.name), out)
    return out


@pytest.mark.parametrize("name", ["attractor.json", "doubling.json",
                                  "clamp_flow.json", "shift2d.json",
                                  "corner_flow.json", "kinked.json",
                                  "kinked_corner.json"])
def test_builds_share_only_values_without_caches(name):
    # a cache added to a class that two builds share would be shared by
    # two requests: every object held in common is an immutable value
    build = docs.document_builder(load(name))
    one, two = build(), build()
    shared = _shared(one, two, [])
    assert shared                      # the canonical values are reused
    for x in shared:
        assert not isinstance(x, (list, dict, set, bytearray)), type(x)
        assert not _caches(type(x)), type(x)
        if hasattr(x, "__dict__"):
            assert set(vars(x)) <= {f.name for f in dataclasses.fields(x)}


def _old_parse_rat(tok):
    """The earlier parse_rat, the reference for the token set: a regex
    check, then Fraction(str) (which raises ValueError on what it rejects)."""
    import re
    from fractions import Fraction
    if isinstance(tok, int) and not isinstance(tok, bool):
        return Fraction(tok)
    if isinstance(tok, str) and \
            re.match(r"^\s*[+-]?\d+(\s*/\s*[1-9]\d*)?\s*$", tok):
        return Fraction(tok)
    raise DocumentError(f"bad rational {tok!r}")


def _outcome(parse, tok):
    try:
        value = parse(tok)
    except ValueError:
        return "rejected"
    assert type(value).__name__ == "Fraction"
    return value


@pytest.mark.parametrize("tok", [
    " -4 / 6 ", "+3", "3/05", "3/0", "1_000", "0.5", "３", "3\n", "",
    True, 2 ** 70, "-4/6", " 7 ", "3 /4", "3/ 4", "1e3", "-0", "+-1",
    "1/2/3", "٣/4", "4/٣", " 1/2 ", "3\n\n", "3\n4",
    None, 0.5, [1, 2]])
def test_parse_rat_accepts_what_the_regex_and_fraction_str_did(tok):
    assert _outcome(docs.parse_rat, tok) == _outcome(_old_parse_rat, tok)


@settings(max_examples=600, deadline=None)
@given(st.text(alphabet=st.sampled_from(
    list("0123456789+-/ _.eE\n\t") + ["３", "٣", " ", " "]),
    max_size=9))
def test_parse_rat_differential(tok):
    assert _outcome(docs.parse_rat, tok) == _outcome(_old_parse_rat, tok)


@settings(max_examples=200, deadline=None)
@given(st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 200),
       st.sampled_from(["", " ", "\t"]))
def test_parse_rat_values(n, d, pad):
    from fractions import Fraction
    for tok in (f"{pad}{n}/{d}{pad}", f"{pad}{n}{pad}"):
        assert docs.parse_rat(tok) == _old_parse_rat(tok)
    assert docs.parse_rat(f"{n}/{d}") == Fraction(n, d)
