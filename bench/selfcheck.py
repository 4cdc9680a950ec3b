#!/usr/bin/env python3
"""Hand-worked cases for the benchmark's oracles; run before every benchmark.

    python3 bench/selfcheck.py

Each case's answer is worked out by hand (see the comments), so a broken
oracle cannot pass the kernel's wrong answers off as right.
"""

from __future__ import annotations

import sys
from fractions import Fraction as Q

from box_workloads import _flow_index_box, _map_index_box
from finite_workloads import F12_DOC, F3_DOC, F3_TABLE
from oracles import (
    AxisMap, BoxUnion, FiniteOracle, Mismatch, ProductFlow, ProductMap,
    check_constructed, check_triple, expect, raster,
)


def doubling():
    # f(x) = 2x.  [-1, 1] is no index neighbourhood of 0: its induced
    # domain [-1/2, 1/2] is closed in it.  With K = [-1, 1], U = (-1, 1):
    # D_1(K) = [-1/2, 1/2] lies in U and D_1(U) = (-1/2, 1/2) in f^-1(K),
    # so (0, 1, 1) is admissible and the constructed set D_1(K) n D_1(U)
    # is (-1/2, 1/2), an index neighbourhood.
    f = ProductMap([AxisMap([], [(2, 0)])])
    k = BoxUnion([((Q(-1), True, Q(1), True),)])
    u = BoxUnion([((Q(-1), False, Q(1), False),)])
    built = BoxUnion([((Q(-1, 2), False, Q(1, 2), False),)])
    pts = raster(((Q(-2), True, Q(2), True),), 64)
    expect(not _map_index_box(f, [0], [True], k.boxes[0]),
           "closed [-1, 1] passed as an index box")
    expect(_map_index_box(f, [0], [True], built.boxes[0]),
           "(-1/2, 1/2) rejected as an index box")
    check_triple(f, k, u, (0, 1, 1), pts)
    check_constructed(f, built, k, u, (0, 1, 1), pts)
    for wrong_triple in ((0, 0, 0), (0, 1, 0)):
        try:
            check_triple(f, k, u, wrong_triple, pts)
        except Mismatch:
            continue
        raise Mismatch(f"{wrong_triple} accepted for the doubling map")
    wrong = BoxUnion([((Q(-1, 2), True, Q(1, 2), True),)])
    try:
        check_constructed(f, wrong, k, u, (0, 1, 1), pts)
    except Mismatch:
        return
    raise Mismatch("closed [-1/2, 1/2] accepted as the constructed set")


def clamped_flow():
    # max(x - t, 0) on [0, inf): [0, 1] is forward invariant and compact,
    # an index neighbourhood of {0}; in [0, 1) the boundary point 1 flows
    # straight back in, so the induced semiflow is not finite-time proper.
    expect(_flow_index_box([Q(0)], [Q(1)], ((Q(0), True, Q(1), True),)),
           "[0, 1] rejected for the clamped flow")
    expect(not _flow_index_box([Q(0)], [Q(1)], ((Q(0), True, Q(1), False),)),
           "[0, 1) accepted for the clamped flow")
    flow = ProductFlow([("floor", 1, 0)])
    unit = BoxUnion([((Q(0), True, Q(1), True),)])
    half = BoxUnion([((Q(0), True, Q(1, 2), True),)])
    # (1/2, 1/2, 1/2): F^(1/2)([0, 1]) = [0, 1/2], and [0, 1/2] <= [0, 1]
    check_triple(flow, unit, half, (Q(1, 2), Q(1, 2), Q(1, 2)),
                 raster(((Q(-1), True, Q(2), True),), 32))


def attractor():
    # fixtures/attractor.json: s -> s, a -> s.  I({s, a}) = {s}; both {s}
    # and {s, a} isolate {s}; their one-point endos have eventual image
    # {s, *}, two fixed points, and the connecting map {s} -> {s, a} is a
    # shift equivalence.
    o = FiniteOracle(["s", "a"], {"s": "s", "a": "s"})
    expect(o.invariant_part({"s", "a"}) == {"s"}, "invariant part of {s, a}")
    expect(o.is_isolating({"s", "a"}, {"s"}) and o.is_isolating({"s"}, {"s"}),
           "isolation of {s}")
    expect(o.cycle_type({"s", "a"}) == (2, (1, 1)), "cycle type of {s, a}")
    expect(o.connecting_is_shift_equivalence({"s"}, {"s", "a"}) is True,
           "shift equivalence {s} -> {s, a}")
    expect(o.find_triple({"s"}, {"s", "a"}) is not None, "triple for {s}, {s, a}")


def kept_fault_inputs():
    # F1/F2: a and b are distinct fixed points and {a}, {b} isolate
    # different sets, so no triple relates {a} to {b}: the verdict is a
    # complete "no" (exit 1).
    sys_ = F12_DOC["system"]
    o = FiniteOracle(sys_["points"], sys_["table"])
    expect(o.find_triple({"a"}, {"b"}) is None, "a triple for {a}, {b}")
    expect(o.connecting_is_shift_equivalence({"a"}, {"b"}) is None,
           "a connecting map for {a}, {b}")
    # F3: S = {p4, p5, p8} is the 3-cycle p4 -> p8 -> p5 -> p4.  Both sets
    # isolate it and contain no other cycle, so the simple system over them
    # must verify: same cycle type (4, (1, 3)), connecting maps invertible.
    o = FiniteOracle(F3_DOC["system"]["points"], F3_TABLE)
    s = set(F3_DOC["sets"]["S"])
    e1, e2 = (set(F3_DOC["sets"][k]) for k in ("E1", "E2"))
    expect(o.is_isolating(e1, s) and o.is_isolating(e2, s),
           "F3 neighbourhoods isolate S")
    expect(o.cycle_type(e1) == o.cycle_type(e2) == (4, (1, 3)), "F3 cycle types")
    expect(o.connecting_is_shift_equivalence(e1, e2) is True,
           "F3 connecting map E1 -> E2")
    expect(o.connecting_is_shift_equivalence(e2, e1) is True,
           "F3 connecting map E2 -> E1")


CASES = [doubling, clamped_flow, attractor, kept_fault_inputs]


def run_all() -> bool:
    ok = True
    for case in CASES:
        try:
            case()
        except Mismatch as exc:
            print(f"selfcheck: {case.__name__} FAILED: {exc}", file=sys.stderr)
            ok = False
    return ok


if __name__ == "__main__":
    good = run_all()
    print("selfcheck: all cases pass" if good else "selfcheck: FAILED")
    sys.exit(0 if good else 1)
