"""The finite-carrier workloads: finite-index and szymczak."""

from __future__ import annotations

import random

from oracles import FiniteOracle, expect
from common import Request, Workload

# Kept faults: each request's input is fixed, so it fails on every run.
F12_DOC = {"kind": "finite_map",
           "system": {"points": ["a", "b", "c"],
                      "table": {"a": "a", "b": "b", "c": "a"}},
           "sets": {"A": ["a"], "B": ["b"]}}

F3_TABLE = {"p0": "p8", "p1": "p5", "p2": "p8", "p3": "p7", "p4": "p8",
            "p5": "p4", "p6": "p0", "p7": "p0", "p8": "p5"}
F3_DOC = {"kind": "finite_map",
          "system": {"points": [f"p{i}" for i in range(9)], "table": F3_TABLE},
          "sets": {"S": ["p4", "p5", "p8"],
                   "E1": ["p4", "p5", "p6", "p8"],
                   "E2": ["p0", "p1", "p4", "p5", "p6", "p8"]}}


def finite_doc(points, table, sets) -> dict:
    return {"kind": "finite_map",
            "system": {"points": list(points), "table": dict(table)},
            "sets": {k: sorted(v) for k, v in sets.items()}}


def layered_map(rng, labels, cycles, depth, n_sinks):
    """Cycles of the given lengths, n_sinks undefined points, and every other
    point on a tree of height <= depth over them (each height used)."""
    it = iter(labels)
    table, cyc = {}, []
    for length in cycles:
        c = [next(it) for _ in range(length)]
        table.update({x: c[(i + 1) % length] for i, x in enumerate(c)})
        cyc.append(c)
    sinks = [next(it) for _ in range(n_sinks)]
    rest = list(it)
    levels = [[x for c in cyc for x in c] + sinks]
    heights = [1 + i for i in range(min(depth, len(rest)))]
    heights += [rng.randint(1, depth) for _ in range(len(rest) - len(heights))]
    by_height = {h: [] for h in range(1, depth + 1)}
    for x, h in zip(rest, heights):
        by_height[h].append(x)
    for h in range(1, depth + 1):
        for x in by_height[h]:
            table[x] = rng.choice(levels[h - 1])
        levels.append(by_height[h] or levels[h - 1])
    return table, cyc


def isolating_nbhd(rng, s, cycles, table):
    """S plus random domain points, never a whole cycle outside S."""
    e = set(s) | {x for x in table if x not in s and rng.random() < 0.5}
    for c in cycles:
        if set(c) <= e and not set(c) <= s:
            e.discard(rng.choice(c))
    return e


# ---------------------------------------------------------------------------
# finite-index

# two documents of each size: more instances per pass steady the figures
FINITE_SIZES = [40, 58, 76, 94, 112, 130, 150, 168, 186, 204, 222, 240] * 2
FINITE_CYCLES = [1, 2, 3, 4, 1, 2, 3]


def build_finite_index(seed: int, w: Workload) -> Workload:
    w.name = "finite-index"
    w.add_doc("f1", F12_DOC)
    for slot, n in enumerate(FINITE_SIZES):
        rng = random.Random(f"finite-index:{seed}:{slot}")
        labels = [f"x{i}" for i in range(n)]
        rng.shuffle(labels)
        table, cycles = layered_map(rng, labels, FINITE_CYCLES, 6, n // 8)
        s = set().union(*cycles[:3])
        e1 = isolating_nbhd(rng, s, cycles, table)
        sets = {"S": s, "E1": e1,
                "E2": isolating_nbhd(rng, s, cycles, table),
                "B": e1 | set(cycles[3]),
                "X": {y for y in labels if rng.random() < 0.6},
                "Y": set(cycles[4]) | {y for y in table if rng.random() < 0.3}}
        name = f"fin{slot}"
        w.add_doc(name, finite_doc(labels, table, sets))
        _finite_requests(w, name, FiniteOracle(labels, table), sets)
    w.add(Request("szymczak-equal:F1", ["szymczak-equal", w.path("f1"),
                                        "--from", "A", "--set", "B"],
                  check=lambda code, out: expect(code == 1, f"exit {code}"),
                  fault="F1"))
    return w


def _finite_requests(w, name, o: FiniteOracle, sets):
    path = w.path(name)
    s = sets["S"]

    def check_table(code, out):
        expect(code == 0, f"check exit {code}")
        for label, row in out["table"].items():
            expect(all(v is True for v in row.values()),
                   f"finite predicates must all hold: {label} {row}")

    w.add(Request(f"check:{name}", ["check", path] +
                  [a for lab in ("S", "E1", "E2", "X") for a in ("--set", lab)],
                  check=check_table))

    for lab in ("X", "E1"):
        def inv(code, out, e=sets[lab]):
            expect(code == 0 and out["status"] == "exact", f"exit {code}")
            want = o.invariant_part(e)
            expect(set(out["invariant_part"]) == want,
                   f"invariant part {out['invariant_part']} != {sorted(want)}")
        w.add(Request(f"invariant-part:{name}:{lab}",
                      ["invariant-part", path, "--set", lab], check=inv))

    for lab2 in ("E2", "Y"):
        e, e2 = sets["E1"], sets[lab2]
        w.add(Request(f"sim:{name}:{lab2}",
                      ["sim", path, "--from", "E1", "--set", lab2],
                      check=_sim_check(o, e, e2)))
        w.add(Request(f"admissible:{name}:{lab2}",
                      ["admissible", path, "--from", "E1", "--set", lab2],
                      check=_admissible_check(o, e, e2)))

    for cmd, lab in (("isolating", "E1"), ("isolating", "B"),
                     ("index-nbhd", "E2")):
        def cert(code, out, e=sets[lab]):
            want = ("certified", 0) if o.is_isolating(e, s) else ("failure", 1)
            expect((out["status"], code) == want,
                   f"{out['status']} exit {code}, expected {want}")
        w.add(Request(f"{cmd}:{name}:{lab}",
                      [cmd, path, "--set", "S", "--nbhd", lab], check=cert))

    def index(code, out):
        expect(o.is_isolating(sets["E1"], s), "E1 is not an index neighbourhood")
        rep = out["report"]
        expect(code == 0 and rep["ok"], f"index exit {code}")
        n, lengths = o.cycle_type(sets["E1"])
        got = rep["neighbourhoods"][0]["canonical_invariant"]
        expect(got == [n, list(lengths)], f"cycle type {got} != {n, lengths}")
    w.add(Request(f"index:{name}", ["index", path, "--set", "S", "--nbhd", "E1"],
                  check=index))

    def sz_equal(code, out):
        # E1 and E2 isolate the same S, so an admissible triple exists and
        # the two connecting morphisms must agree
        expect(o.find_triple(sets["E1"], sets["E2"]) is not None,
               "E1, E2 unrelated")
        expect(code == 0 and out["equal"] is True, f"szymczak-equal exit {code}")
        for t in out["triples"]:
            expect(o.is_admissible(sets["E1"], sets["E2"], [int(v) for v in t]),
                   f"triple {t} not admissible")
    w.add(Request(f"szymczak-equal:{name}",
                  ["szymczak-equal", path, "--from", "E1", "--set", "E2"],
                  check=sz_equal))


def _sim_check(o, e, e2):
    def check(code, out):
        fwd, bwd = o.absorbs(e, e2), o.absorbs(e2, e)
        for key, src, dst, exists in (("forward", e, e2, fwd),
                                      ("backward", e2, e, bwd)):
            w = out[key]
            if w is None:
                expect(not exists, f"sim missed the {key} witness")
            else:
                a, b = int(w[0]), int(w[1])
                expect(a <= b and o.cond1(src, dst, a, b),
                       f"sim {key} witness {w} fails D_b <= f^-a")
        want = ("equivalent", 0) if fwd and bwd else ("not_equivalent", 1)
        expect((out["status"], code) == want, f"sim {out['status']} exit {code}")
    return check


def _admissible_check(o, e, e2):
    def check(code, out):
        if out["status"] == "found":
            t = [int(v) for v in out["triple"]]
            expect(code == 0 and o.is_admissible(e, e2, t),
                   f"returned triple {t} is not admissible")
        else:
            expect(o.find_triple(e, e2) is None,
                   "admissible missed an existing triple")
            expect((out["status"], code) == ("none", 1),
                   f"admissible {out['status']} exit {code}")
    return check


# ---------------------------------------------------------------------------
# szymczak

# Period of S and the heights of the transients of E and of E' per
# shift-equivalence request.  The heights fix the witness exponent, so the
# enumeration work of a slot hardly depends on the seed.
SHIFT_SLOTS = [(1, (1, 2), (1, 1, 2)), (2, (1, 1), (1,)), (3, (1,), (1, 1)),
               (4, (1,), ()), (1, (1, 2, 3, 1), (1, 1, 2, 2)),
               (2, (1, 2, 1), (1, 2, 3, 1)), (3, (1, 2, 3), (1,)),
               (2, (1, 1, 2, 3), (1, 2, 2))] * 3
# cycle lengths of S and sizes of the nested neighbourhoods
SIMPLE_SLOTS = [((1,), (2, 4)), ((2,), (3, 5)), ((1, 1), (3, 4, 5)),
                ((1, 2), (3, 5)), ((2,), (2, 4, 5)), ((1,), (3, 4, 6))] * 2


def build_szymczak(seed: int, w: Workload) -> Workload:
    w.name = "szymczak"
    w.add_doc("f2", F12_DOC)
    w.add_doc("f3", F3_DOC)
    for slot, (period, h1, h2) in enumerate(SHIFT_SLOTS):
        rng = random.Random(f"szymczak:{seed}:shift:{slot}")
        names = _names(rng, period + len(h1) + len(h2) + 8)
        cycle = [next(names) for _ in range(period)]
        table = {x: cycle[(i + 1) % period] for i, x in enumerate(cycle)}
        e = _grow(rng, names, table, cycle, h1)
        e2 = _grow(rng, names, table, cycle, h2)
        points = _outside(rng, names, table)
        name = f"sh{slot}"
        w.add_doc(name, finite_doc(points, table,
                                   {"S": cycle, "E": e, "E2": e2}))
        o = FiniteOracle(points, table)
        w.add(Request(f"shift-equiv:{name}",
                      ["shift-equiv", w.path(name), "--from", "E", "--set", "E2"],
                      check=_shift_check(o, e, e2)))
    for slot, (cyc, sizes) in enumerate(SIMPLE_SLOTS):
        rng = random.Random(f"szymczak:{seed}:simple:{slot}")
        names = _names(rng, sum(cyc) + sizes[-1] + 8)
        table, s = {}, []
        for length in cyc:
            c = [next(names) for _ in range(length)]
            table.update({x: c[(i + 1) % length] for i, x in enumerate(c)})
            s += c
        nbhds, current = [], list(s)
        for size in sizes:
            # forward invariant: each new point maps into the previous set
            while len(current) < size:
                x = next(names)
                table[x] = rng.choice(current)
                current.append(x)
            nbhds.append(set(current))
        points = _outside(rng, names, table)
        name = f"ss{slot}"
        sets = {"S": s} | {f"E{i}": e for i, e in enumerate(nbhds)}
        w.add_doc(name, finite_doc(points, table, sets))
        o = FiniteOracle(points, table)
        w.add(_simple_request(name, o, s, [f"E{i}" for i in range(len(nbhds))],
                              nbhds))
    w.add(Request("shift-equiv:F2", ["shift-equiv", w.path("f2"),
                                     "--from", "A", "--set", "B"],
                  check=lambda code, out: expect(code == 1, f"exit {code}"),
                  fault="F2"))
    o3 = FiniteOracle(F3_DOC["system"]["points"], F3_TABLE)
    w.add(_simple_request("f3", o3, set(F3_DOC["sets"]["S"]), ["E1", "E2"],
                          [set(F3_DOC["sets"][k]) for k in ("E1", "E2")],
                          fault="F3"))
    return w


def _names(rng, n):
    """Random point names; documents list points in construction order."""
    labels = [f"z{i}" for i in range(n)]
    rng.shuffle(labels)
    return iter(labels)


def _grow(rng, names, table, base, heights):
    """base plus a tree of transients of the given heights hanging on it."""
    levels = {0: list(base)}
    out = list(base)
    for h in sorted(heights):
        x = next(names)
        table[x] = rng.choice(levels.get(h - 1) or levels[0])
        levels.setdefault(h, []).append(x)
        out.append(x)
    return out


def _outside(rng, names, table) -> list:
    """The remaining points: a 2-cycle, a sink outside Dom f, and exits.
    Returns every point in construction order."""
    a, b, sink = next(names), next(names), next(names)
    table.update({a: b, b: a})
    inside = list(table)
    for x in names:
        table[x] = rng.choice(inside + [sink])
    return list(table) + [sink]


def _shift_check(o, e, e2):
    def check(code, out):
        verdict = o.connecting_is_shift_equivalence(set(e), set(e2))
        want = {True: ("yes", 0), False: ("no", 1), None: (None, 1)}[verdict]
        got = (out and out["status"], code)
        expect(got == want, f"shift-equiv {got}, expected {want}")
    return check


def _simple_request(name, o, s, labels, nbhds, fault=None):
    def call(docs):
        from conley_kernel import conley
        doc = docs[name]
        rep = conley.verify_simple_system(
            doc.system, doc.resolve("S"), [doc.resolve(k) for k in labels])
        return {"ok": getattr(rep, "ok", None),
                "canonical": [list(n.canonical_invariant)
                              for n in getattr(rep, "neighbourhoods", ())]}

    def check(code, out):
        for e in nbhds:
            expect(o.is_isolating(e, set(s)), "neighbourhood is not isolating")
        want = [[t[0], list(t[1])] for t in (o.cycle_type(e) for e in nbhds)]
        expect(len({str(t) for t in want}) == 1,
               "neighbourhoods of one S differ in cycle type")
        canon = [[c[0], list(c[1])] for c in out["canonical"]]
        expect(canon == want, f"cycle types {canon} != {want}")
        expect(out["ok"] is True, "simple system not verified")
    return Request(f"simple-system:{name}", None, call=call, check=check,
                   fault=fault)
