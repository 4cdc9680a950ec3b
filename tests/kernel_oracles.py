"""Oracles, a generator and a certificate check that only the unit tests
use, kept out of `conley_kernel.suites`, which holds what `conley-kernel
verify` runs.  Each oracle is the slower path that a kernel function
replaced; its docstring names which.

The module is not named `oracles`: a script that puts `bench/` first on
`sys.path` would then import `bench/oracles.py` in its place.
"""

from __future__ import annotations

import random
from fractions import Fraction

from conley_kernel import affine as af
from conley_kernel import conley as co
from conley_kernel import dynamics as dyn
from conley_kernel import finite as fin
from conley_kernel import semiflow as sf
from conley_kernel import szymczak as sz
from conley_kernel.affine import AffineRule, PiecewiseAffineMap
from conley_kernel.boxes import (
    BoxSet, Cut, Interval, NEG_INF, POS_INF, _AND, _OR, _is_const, _merge,
    _node,
)
from conley_kernel.suites import (
    brute_shift_bound, enumerate_equivariant_maps, is_shift_witness,
)



def is_index_nbhd_certificate(cert, f, e) -> bool:
    """cert is a Certificate for E whose checks end with the
    compactifiability checks of E: those that make an isolating
    neighbourhood an index neighbourhood."""
    names = [name for name, _ in dyn.compactifiability_checks(f, e)]
    return isinstance(cert, co.Certificate) and \
        [c.name for c in cert.checks][-len(names):] == names

def direction(rule: sf.AxisRule) -> int:
    """Sign of the orbit's motion: -1 decreasing, +1 increasing, 0 still."""
    if rule.kind == "identity" or rule.velocity == 0:
        return 0
    if rule.kind == "ceil":
        return 1
    return -1 if rule.velocity > 0 else 1


_FLOW_VALUES = [Fraction(k, 2) for k in range(-6, 7)]


def random_flow(rng: random.Random, max_dimension: int = 3):
    """A flow of 1 to max_dimension random axis rules on a carrier of 1 to 3
    boxes, or None when the construction checks reject it.  Each interval
    is mostly forward invariant for its rule: its limit side is the clamp
    or infinity."""

    def rule():
        kind = rng.choice(["translation", "floor", "ceil", "identity"])
        if kind == "identity":
            return sf.AxisRule.identity()
        if kind == "translation":
            return sf.AxisRule.translation(rng.choice(_FLOW_VALUES))
        v = rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)])
        return getattr(sf.AxisRule, kind)(v, rng.choice(_FLOW_VALUES))

    def interval(r):
        lo, hi = sorted(rng.sample(_FLOW_VALUES, 2))
        lo = "-inf" if rng.random() < Fraction(1, 5) else lo
        hi = "inf" if rng.random() < Fraction(1, 5) else hi
        if rng.random() < Fraction(9, 10):
            if r.kind == "floor":
                lo = r.clamp if hi == "inf" or hi > r.clamp else "-inf"
            elif r.kind == "ceil":
                hi = r.clamp if lo == "-inf" or lo < r.clamp else "inf"
            elif direction(r) < 0:
                lo = "-inf"
            elif direction(r) > 0:
                hi = "inf"
        lo_closed = lo != "-inf" and rng.random() < Fraction(4, 5)
        return Interval.make(lo, lo_closed,
                             hi, hi != "inf" and rng.random() < Fraction(7, 10))

    axes = [rule() for _ in range(rng.randint(1, max_dimension))]
    carrier = BoxSet.of(len(axes), [
        tuple(interval(r) for r in axes) for _ in range(rng.randint(1, 3))])
    try:
        return sf.ExactSemiflow.of(axes, carrier)
    except ValueError:
        return None


def prime_cycle_document(primes) -> dict:
    """A finite document: a cycle of each length in primes plus a fixed
    point z, with W one point of each cycle and Z = {z}.  No triple from W
    to Z exists (z has no preimage outside {z}), while the derived search
    bound grows with the lcm of the primes."""
    points, table = [], {"z": "z"}
    for length in primes:
        cycle = [f"c{length}.{i}" for i in range(length)]
        points += cycle
        table.update({x: cycle[(i + 1) % length] for i, x in enumerate(cycle)})
    return {"kind": "finite_map",
            "system": {"points": points + ["z"], "table": table},
            "sets": {"W": [f"c{length}.0" for length in primes], "Z": ["z"]}}


def oracle_find_admissible(f, e, e2, bound=None) -> dyn.TripleSearch:
    """The lexicographic scan over the search times that
    dynamics.find_admissible replaces: every b >= a in turn, and for each b
    that passes the first test every gamma in [b - a, bound - a] in turn."""
    ctx = dyn.carrier_for(f).search_context(f, e, e2, bound)
    for a in ctx.times:
        for b in ctx.times:
            if b < a or not ctx.cond1(a, b):
                continue
            for gamma in ctx.times:
                if a + gamma > ctx.bound:
                    break
                if gamma >= b - a and ctx.cond2(b - a, gamma):
                    return dyn.TripleSearch(
                        dyn.AdmissibleTriple(a, b, a + gamma),
                        ctx.complete, ctx.bound)
    return dyn.TripleSearch(None, ctx.complete, ctx.bound)


def oracle_sim_f(f, e, e2, bound=None) -> dyn.SimResult:
    """The lexicographic scan over the candidate pairs that dynamics.sim_f
    replaces: the first (a, b) that passes, both ways."""
    ctx = dyn.carrier_for(f).search_context(f, e, e2, bound)

    def first(test, which):
        return next(((a, b) for a, lo, hi in ctx.b_ranges(which)
                     for b in ctx.times[lo:hi] if test(a, b)), None)

    fwd, bwd = first(ctx.cond1, 1), first(ctx.cond2, 2)
    if fwd and bwd:
        status = "equivalent"
    else:
        status = "not_equivalent" if ctx.complete else "unknown"
    return dyn.SimResult(status, fwd, bwd, bound=ctx.bound)


def _ray_up(c: Cut, closed: bool) -> BoxSet:
    if c == NEG_INF:
        return BoxSet.full(1)
    return BoxSet.of(1, [(Interval(c, POS_INF, closed, False),)])


def _ray_down(c: Cut, closed: bool) -> BoxSet:
    if c == POS_INF:
        return BoxSet.full(1)
    return BoxSet.of(1, [(Interval(NEG_INF, c, False, closed),)])


def oracle_dom_interval_1d(flow: sf.ExactSemiflow, e: BoxSet, t) -> BoxSet:
    """The 1-D swept domain D_t(E) by hit sets, which the component rule of
    semiflow.dom_interval replaced: the points whose orbit range over
    [0, t] meets no component of E's complement."""
    rule = flow.axes[0]
    fmap = sf.time_map(flow, t)
    d = direction(rule)
    hits = []
    for (iv,) in e.complement().boxes:
        if d == 0:
            hits.append(BoxSet.of(1, [(iv,)]))
        elif d < 0:
            # orbit range is [f^t(x), x]
            hits.append(_ray_up(iv.lo, iv.lo_closed).intersect(
                fmap.preimage(_ray_down(iv.hi, iv.hi_closed))))
        else:
            hits.append(_ray_down(iv.hi, iv.hi_closed).intersect(
                fmap.preimage(_ray_up(iv.lo, iv.lo_closed))))
    return BoxSet.union_all(1, hits).complement().intersect(flow.carrier)


def oracle_dom_interval_convex(flow: sf.ExactSemiflow, e: BoxSet,
                               t) -> BoxSet:
    """D_t(E) for a 1-D set or a single box as the union over the boxes B
    of E of B n F_t^-1(B), each B pulled back through the time-t map: the
    per-box formula that the axis intervals of semiflow.dom_interval
    replaced."""
    fmap = sf.time_map(flow, t)
    parts = (BoxSet.of(flow.dimension, [box]) for box in e.boxes)
    return BoxSet.union_all(flow.dimension,
                            (b.intersect(fmap.preimage(b)) for b in parts))


def oracle_closure_or_interior(a, closure: bool):
    """The closure (interior) of node a by a sweep that recurses again into
    the merge at each point atom: the sweep that boxes._closure_or_interior
    replaced by merging values already swept."""
    if _is_const(a):
        return a
    keys, vals = a
    op = _OR if closure else _AND
    cur = vals[0]
    out_keys, out_vals = [], [oracle_closure_or_interior(cur, closure)]
    i, n = 0, len(keys)
    while i < n:
        h, v, e = keys[i]
        left = cur
        if e == 0:
            i += 1
            cur = vals[i]
        point = cur
        if i < n and keys[i] == (h, v, 1):
            i += 1
            cur = vals[i]
        at_point = oracle_closure_or_interior(
            _merge(_merge(left, point, op), cur, op), closure)
        for k, x in (((h, v, 0), at_point),
                     ((h, v, 1), oracle_closure_or_interior(cur, closure))):
            if x != out_vals[-1]:
                out_keys.append(k)
                out_vals.append(x)
    return _node(out_keys, out_vals)


def oracle_time_pieces(rule: sf.AxisRule, t) -> list:
    """The time-t map of one axis as (interval, rule) pieces covering the
    line: the pieces that `AxisRule.time_factor` builds in canonical form
    without `PiecewiseAffineMap.of`."""
    t = Fraction(t)
    if rule.kind == "identity" or t == 0:
        return [(Interval.line(), AffineRule.of(1, 0))]
    if rule.kind == "translation":
        return [(Interval.line(), AffineRule(Fraction(1), -rule.velocity * t))]
    if rule.kind == "floor":
        split = rule.clamp + rule.velocity * t
        return [
            (Interval(NEG_INF, Cut.finite(split), False, False),
             AffineRule(Fraction(0), rule.clamp)),
            (Interval(Cut.finite(split), POS_INF, True, False),
             AffineRule(Fraction(1), -rule.velocity * t)),
        ]
    split = rule.clamp - rule.velocity * t
    return [
        (Interval(NEG_INF, Cut.finite(split), False, True),
         AffineRule(Fraction(1), rule.velocity * t)),
        (Interval(Cut.finite(split), POS_INF, False, False),
         AffineRule(Fraction(0), rule.clamp)),
    ]


def oracle_candidate_times(flow: sf.ExactSemiflow, sets: list, bound) -> list:
    """The candidate times of a semiflow search in plain Fraction
    arithmetic, over every ordered pair of boundary values: the loop that
    the common-denominator integer version `semiflow._candidate_times`
    replaced."""
    values = set()
    for s in sets:
        for b in s.boxes:
            for iv in b:
                for c in (iv.lo, iv.hi):
                    if c.is_finite:
                        values.add(c.value)
    for r in flow.axes:
        values.update(r.boundary_values())
    times = {Fraction(0)}
    speeds = {abs(r.velocity) for r in flow.axes if r.velocity != 0}
    for v in speeds:
        for b1 in values:
            for b2 in values:
                d = abs(b1 - b2) / v
                if 0 < d <= bound:
                    times.add(d)
    times.update(Fraction(k) for k in range(1, min(int(bound), 4) + 1))
    ordered = sorted(times)
    with_mids = set(ordered)
    for x, y in zip(ordered, ordered[1:]):
        with_mids.add((x + y) / 2)
    top = max(ordered) if ordered else Fraction(0)
    if top + 1 <= bound:
        with_mids.add(top + 1)
    return sorted(v for v in with_mids if v <= bound)


def oracle_dom(f, e, t):
    """D_t(E) from scratch, the intersection of f^-i(E) for i = 0..t: the
    loop that the memoized sequence of carriers.DiscreteTime.dom replaced."""
    d = e
    for _ in range(t):
        d = e.intersect(f.preimage(d))
    return d


def oracle_preimage(f, a, t):
    """f^-t(A) from scratch, t one-step preimages in turn."""
    for _ in range(t):
        a = f.preimage(a)
    return a


def oracle_power(f, n):
    """f^n from scratch, n composes from the identity with the map type's
    compose, touching no memo: the reference of affine.power (memoized step
    by step on f) and finite.power (read off the orbit walk), each of which
    is the time map of carriers.DiscreteTime."""
    if isinstance(f, fin.FinitePartialMap):
        out, compose = fin.identity_map(f.space), fin.compose
    else:
        out, compose = PiecewiseAffineMap.identity(f.dimension), af.compose
    for _ in range(n):
        out = compose(f, out)
    return out


def brute_shift_equivalence(phi: sz.EquivariantMap):
    """The first (a, psi) in exponent-then-table order that is a witness,
    by trying every equivariant table g -> f."""
    f, g = phi.source, phi.target
    partners = list(enumerate_equivariant_maps(g, f))
    for a in range(brute_shift_bound(f, g) + 1):
        for psi in partners:
            if is_shift_witness(phi, psi, a):
                return sz.ShiftEquivalenceWitness(psi, a)
    return None
