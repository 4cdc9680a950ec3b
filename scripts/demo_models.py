#!/usr/bin/env python3
"""Walk the three model systems end to end and print their index data.

Covers the finite attractor, the doubling repeller on the line, and the
clamped semiflow, exercising certification, construction, and the
simple-system verification for each.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))   # this checkout's kernel first

from conley_kernel import conley as co  # noqa: E402
from conley_kernel import finite as fin  # noqa: E402
from conley_kernel.boxes import BoxSet  # noqa: E402
from conley_kernel.suites import clamp_flow, doubling_map  # noqa: E402


def show_report(title, rep):
    print(f"== {title}")
    if not isinstance(rep, co.ConleyIndexReport):
        print(f"   not certified: {rep}")
        return False
    print(f"   invariant set: {rep.invariant_set}")
    for n in rep.neighbourhoods:
        extra = f"  canonical invariant {n.canonical_invariant}" \
            if n.canonical_invariant else ""
        print(f"   object at {n.label}: {n.object_repr}{extra}")
    for m in rep.morphisms:
        print(f"   morphism {m.source} -> {m.target}: triple {m.triple}, "
              f"invertible={m.invertible}")
    print(f"   all laws verified: {rep.ok}")
    return rep.ok


def main() -> int:
    ok = True

    space = fin.FiniteSpace.of(["s", "a"])
    attractor = fin.FinitePartialMap.of(space, {"s": "s", "a": "s"})
    s_fin = fin.FiniteSubset.of(space, ["s"])
    rep = co.verify_simple_system(
        attractor, s_fin,
        [fin.FiniteSubset.of(space, ["s"]), fin.FiniteSubset.of(space, ["s", "a"])])
    ok &= show_report("finite attractor (two index neighbourhoods)", rep)

    dbl = doubling_map()
    origin = BoxSet.interval(0, True, 0, True)
    built = co.construct_index_nbhd(dbl, origin,
                                    BoxSet.interval(-1, True, 1, True), bound=8)
    print("== doubling repeller")
    print(f"   constructed index neighbourhood: {built.subset!r} "
          f"via triple {built.triple}")
    rep = co.verify_simple_system(
        dbl, origin,
        [built.subset, BoxSet.interval("-1/4", False, "1/4", False)], bound=8)
    ok &= show_report("doubling repeller (constructed + nested)", rep)

    flow = clamp_flow()
    s0 = BoxSet.interval(0, True, 0, True)
    rep = co.verify_simple_system(
        flow, s0, [BoxSet.interval(0, True, 1, True),
                   BoxSet.interval(0, True, "1/2", True)])
    ok &= show_report("clamped semiflow (two index neighbourhoods)", rep)

    rejected = co.is_index_nbhd(flow, BoxSet.interval(0, True, 1, False), s0)
    print(f"== clamped semiflow, half-open candidate: "
          f"{getattr(rejected, 'reason', 'certified')}")
    ok &= isinstance(rejected, co.Failure)

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
