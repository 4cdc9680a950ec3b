"""The implementation oracles, with the generators and the certificate
check that the unit tests use; `conley_kernel.suites` holds only what
`conley-kernel verify` runs, the checks of the paper's claims.  Each oracle
is the slower path that a kernel function or canonical form replaced: the
pairwise box-list algebra, box-by-box affine set maps, the piece-list map,
the fixed-cap invariant-part loop (of `PiecewiseAffineMap.invariant_part`),
stepped finite powers, and the plain
scans behind the searches and swept domains; its docstring or section
names which.  The brute-force Szymczak searches stay in `suites`, whose
`szymczak-oracle` suite runs them, and `brute_shift_equivalence` reads
them from there.

The module is not named `oracles`: a script that puts `bench/` first on
`sys.path` would then import `bench/oracles.py` in its place.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from conley_kernel import affine as af
from conley_kernel import conley as co
from conley_kernel import dynamics as dyn
from conley_kernel import finite as fin
from conley_kernel import semiflow as sf
from conley_kernel import szymczak as sz
from conley_kernel.affine import AffineRule, Piece, PiecewiseAffineMap
from conley_kernel.boxes import (
    BoxSet, Cut, Interval, NEG_INF, POS_INF, _AND, _OR, _ekey, _is_const,
    _merge, _node, _skey, isect_iv,
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
    ctx = f.search_context(e, e2, bound)
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
    """The lexicographic scan that dynamics.sim_f replaces: every a of the
    search times and every b >= a in turn, the first (a, b) that passes,
    both ways."""
    ctx = f.search_context(e, e2, bound)

    def first(test):
        return next(((a, b) for a in ctx.times for b in ctx.times
                     if b >= a and test(a, b)), None)

    fwd, bwd = first(ctx.cond1), first(ctx.cond2)
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
    loop that the memoized sequence of dynamics.DiscreteTime.dom replaced."""
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
    is its map type's time_map."""
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


# ---------------------------------------------------------------------------
# generators of box sets, rules and piecewise-affine maps

def random_interval_set(rng: random.Random, max_parts: int = 3) -> BoxSet:
    ivs = []
    for _ in range(rng.randint(0, max_parts)):
        a = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4)))
        b = a + Fraction(rng.randint(0, 6), rng.choice((1, 2)))
        if a == b:
            ivs.append(Interval.point(a))
        else:
            ivs.append(Interval.make(a, rng.randint(0, 1) == 0, b, rng.randint(0, 1) == 0))
    return BoxSet.from_intervals(ivs)


def contraction_map() -> PiecewiseAffineMap:
    return PiecewiseAffineMap.affine_1d(Fraction(1, 2), 0)


def random_box_list(rng: random.Random, dimension: int, max_boxes: int = 3) -> list:
    """Up to max_boxes boxes with half-integer endpoints in [-1, 2]; about one
    endpoint in eight is infinite."""
    boxes = []
    for _ in range(rng.randint(0, max_boxes)):
        box = []
        for _ in range(dimension):
            a = Fraction(rng.randint(-2, 2), 2)
            b = a + Fraction(rng.randint(0, 2), 2)
            lo = NEG_INF if rng.randint(1, 8) == 1 else Cut.finite(a)
            hi = POS_INF if rng.randint(1, 8) == 1 else Cut.finite(b)
            if lo.is_finite and hi.is_finite and a == b:
                box.append(Interval.point(a))
            else:
                box.append(Interval(lo, hi, lo.is_finite and rng.randint(0, 1) == 0,
                                    hi.is_finite and rng.randint(0, 1) == 0))
        boxes.append(tuple(box))
    return boxes


ORACLE_SLOPES = tuple(Fraction(m) for m in
                      (0, 1, -1, 2, -2, Fraction(1, 3), Fraction(-1, 3),
                       Fraction(-1, 2)))


def random_rules(rng: random.Random, dimension: int) -> tuple:
    """One rule per axis: a slope from ORACLE_SLOPES and a half-integer
    intercept in [-1, 1]."""
    return tuple(AffineRule(rng.choice(ORACLE_SLOPES),
                            Fraction(rng.randint(-2, 2), 2))
                 for _ in range(dimension))


def random_product_map(rng: random.Random, dimension: int) -> PiecewiseAffineMap:
    """A product of continuous monotone 1-D maps.  Each axis fixes a
    half-integer c with slope 3, 1/3, -2, -1/3 or -1 on [c - 1, c + 1] and,
    half the time, has steep pieces of slope 3 or -3 (the core slope's sign)
    beyond it instead of the same rule.  Monotone axes keep the iterated
    domains to a few boxes; a fold would multiply them at every step."""
    axes = []
    for _ in range(dimension):
        c = Fraction(rng.randint(-2, 2), 2)
        s = rng.choice((Fraction(3), Fraction(1, 3), Fraction(-2),
                        Fraction(-1, 3), Fraction(-1)))
        core = AffineRule(s, c * (1 - s))
        if rng.randint(0, 1):
            axes.append([(Interval.line(), core)])
            continue
        m = 3 if s > 0 else -3
        lo, hi = Cut.finite(c - 1), Cut.finite(c + 1)
        axes.append([
            (Interval(NEG_INF, lo, False, False),
             AffineRule(Fraction(m), c - s - m * (c - 1))),
            (Interval(lo, hi, True, True), core),
            (Interval(hi, POS_INF, False, False),
             AffineRule(Fraction(m), c + s - m * (c + 1))),
        ])
    return PiecewiseAffineMap.of(dimension, [
        Piece(BoxSet.of(dimension, [tuple(iv for iv, _ in parts)]),
              tuple(rule for _, rule in parts))
        for parts in itertools.product(*axes)])


def random_core_set(rng: random.Random, dimension: int) -> BoxSet:
    """random_box_list's boxes and one box from -1, -3/2 or -2 to 1, 3/2 or
    2 on each axis, which mostly holds the fixed point of a
    random_product_map and often crosses its pieces."""
    box = tuple(Interval(Cut.finite(Fraction(-rng.randint(2, 4), 2)),
                         Cut.finite(Fraction(rng.randint(2, 4), 2)),
                         rng.randint(0, 1) == 0, rng.randint(0, 1) == 0)
                for _ in range(dimension))
    return BoxSet.of(dimension, random_box_list(rng, dimension) + [box])


def random_piece_list(rng: random.Random, dimension: int) -> list:
    """Up to three pieces with random_rules on random_box_list domains, each
    written with or without the part the earlier ones cover; one rule for
    all of them half the time.  Overlaps and jumps are frequent."""
    shared = random_rules(rng, dimension)
    same = rng.randint(0, 1)
    pieces, seen = [], BoxSet.empty(dimension)
    for _ in range(rng.randint(1, 3)):
        dom = BoxSet.of(dimension, random_box_list(rng, dimension, 2))
        if rng.randint(0, 2):
            dom = dom.difference(seen)
        seen = seen.union(dom)
        pieces.append(Piece(dom, shared if same else random_rules(rng, dimension)))
    return pieces


def rewritten_pieces(rng: random.Random, f: PiecewiseAffineMap) -> list:
    """The pieces of f written another way, and half the time spoiled.

    Up to three times a piece list is cut at a half-integer slab x_k = c:
    each piece splits into its parts below and above the slab, and its
    part on the slab goes to a random entry whose rule agrees there (often
    its own part on either side, or a neighbour's) or stays a piece of its
    own.  The list is then shuffled.  A spoiled list has one rule moved by
    1/2 on one axis, or one domain widened by a random box, which the
    constructor may or may not have to reject."""
    d = f.dimension
    entries = [[p.domain, p.rules] for p in f.pieces]
    for _ in range(rng.randint(1, 3)):
        k, c = rng.randrange(d), Fraction(rng.randint(-4, 4), 2)

        def slab(iv):
            return BoxSet.of(d, [tuple(iv if i == k else Interval.line()
                                       for i in range(d))])
        below = slab(Interval(NEG_INF, Cut.finite(c), False, False))
        above = slab(Interval(Cut.finite(c), POS_INF, False, False))
        cut = []
        for dom, rules in entries:
            cut += [[dom.intersect(below), rules], [dom.intersect(above), rules]]
        for dom, rules in entries:
            on = dom.difference(below).difference(above)
            if on.is_empty:
                continue
            hosts = [e for e in cut if rules_agree_on(e[1], rules, on)]
            host = rng.choice(hosts + [None])
            if host is None:
                cut.append([on, rules])
            else:
                host[0] = host[0].union(on)
        entries = [e for e in cut if not e[0].is_empty]
    rng.shuffle(entries)
    spoil = rng.randint(0, 3)
    if spoil == 1:
        e = rng.choice(entries)
        j = rng.randrange(d)
        r = e[1][j]
        e[1] = e[1][:j] + (AffineRule(r.slope, r.intercept + Fraction(1, 2)),) + \
            e[1][j + 1:]
    elif spoil == 2:
        e = rng.choice(entries)
        e[0] = e[0].union(BoxSet.of(d, random_box_list(rng, d, 1)))
    return [Piece(dom, rules) for dom, rules in entries]


# ---------------------------------------------------------------------------
# finite powers and the fixed-cap invariant part

def brute_preperiod_period(f: fin.FinitePartialMap) -> tuple[int, int]:
    seq = [fin.identity_map(f.space)]
    while True:
        nxt = fin.compose(f, seq[-1])
        for i, old in enumerate(seq):
            if old == nxt:
                return i, len(seq) - i
        seq.append(nxt)


def fixed_cap_invariant_part(f: PiecewiseAffineMap, e: BoxSet, cap: int = 64):
    """The invariant part on the interval carrier by the full fixed-cap loop:
    up to cap preimage steps, up to cap image steps once the domains
    stabilize, and the single-piece fixed-set closed form (written out here
    again) only on the last set.  An undecided result is the triple
    (reason, bound, outer) that the kernel's Undecided carries."""
    d = e
    stabilized = False
    for _ in range(cap):
        d2 = e.intersect(f.preimage(d))
        if d2 == d:
            stabilized = True
            break
        d = d2
    current = d
    if stabilized:
        s = d
        for _ in range(cap):
            s2 = f.image(s)
            if s2 == s:
                return s
            s = s2
        current = s
    piece = next((p for p in f.pieces
                  if current.subset_of(p.domain.closure())), None)
    if piece is None or not current.is_bounded:
        return ("invariant part did not stabilize", cap, current)
    axes = []
    for r in piece.rules:
        if r.slope == 1 and r.intercept != 0:
            return BoxSet.empty(f.dimension)
        if r.slope == -1:
            return ("reflection axis admits non-fixed invariant sets", cap,
                    current)
        axes.append(Interval.line() if r.slope == 1
                    else Interval.point(r.intercept / (1 - r.slope)))
    fix = BoxSet.of(f.dimension, [tuple(axes)])
    return fix.intersect(piece.domain.closure()).intersect(f.domain).intersect(e)


# ---------------------------------------------------------------------------
# the pairwise box-list algebra, kept as the differential oracle of the
# canonical form in `boxes`

def _oracle_union_1d(ivs) -> tuple:
    out = []
    for iv in sorted(ivs, key=_skey):
        ek = _ekey(out[-1]) if out else None
        if out and _skey(iv) <= (ek[0], ek[1], ek[2] + 1):
            prev = out.pop()
            hk = max(ek, _ekey(iv))
            out.append(Interval(prev.lo, Cut(hk[0], hk[1]), prev.lo_closed, hk[2] == 0))
        else:
            out.append(iv)
    return tuple(out)


def _diff_iv(a: Interval, b: Interval) -> tuple:
    """a minus b as at most two intervals."""
    ib = isect_iv(a, b)
    if ib is None:
        return (a,)
    parts = []
    for lo, lc, hi, hc in ((a.lo, a.lo_closed, ib.lo, not ib.lo_closed),
                           (ib.hi, not ib.hi_closed, a.hi, a.hi_closed)):
        try:
            parts.append(Interval(lo, hi, lc, hc))
        except ValueError:
            pass
    return tuple(parts)


def _box_isect(a, b):
    out = []
    for ia, ib in zip(a, b):
        iv = isect_iv(ia, ib)
        if iv is None:
            return None
        out.append(iv)
    return tuple(out)


def _box_subset(a, b) -> bool:
    return all(_skey(ib) <= _skey(ia) and _ekey(ia) <= _ekey(ib)
               for ia, ib in zip(a, b))


def box_minus_box(a, b) -> list:
    ib = _box_isect(a, b)
    if ib is None:
        return [a]
    out = []
    cur = list(a)
    for k in range(len(a)):
        for part in _diff_iv(cur[k], ib[k]):
            out.append(tuple(cur[:k]) + (part,) + tuple(a[k + 1:]))
        cur[k] = ib[k]
    return out


def _reduce(boxes: tuple) -> tuple:
    """Absorb contained boxes and merge axis-adjacent twins, restarting after
    every merge."""
    items = list(boxes)
    changed = True
    while changed:
        changed = False
        pruned = []
        for i, b in enumerate(items):
            contained = False
            for j, o in enumerate(items):
                if i == j or not _box_subset(b, o):
                    continue
                # drop duplicates once, keep the earlier copy
                if _box_subset(o, b) and j > i:
                    continue
                contained = True
                break
            if not contained:
                pruned.append(b)
        if len(pruned) < len(items):
            items = pruned
            changed = True
            continue
        merged = None
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                m = _try_merge(items[i], items[j])
                if m is not None:
                    merged = (i, j, m)
                    break
            if merged:
                break
        if merged:
            i, j, m = merged
            items = [b for k, b in enumerate(items) if k not in (i, j)] + [m]
            changed = True
    return tuple(items)


def _try_merge(a, b):
    diff_axis = None
    for k in range(len(a)):
        if a[k] != b[k]:
            if diff_axis is not None:
                return None
            diff_axis = k
    if diff_axis is None:
        return a
    u = _oracle_union_1d([a[diff_axis], b[diff_axis]])
    if len(u) != 1:
        return None
    return a[:diff_axis] + (u[0],) + a[diff_axis + 1:]


class PairwiseBoxSet:
    """A box set as a free list of boxes: union concatenates and reduces,
    intersection and difference work box by box, set equality is two
    differences and the interior is complement, closure, complement."""

    def __init__(self, dimension: int, boxes):
        bs = tuple(tuple(b) for b in boxes)
        self.dimension = dimension
        if dimension == 1:
            self.boxes = tuple((iv,) for iv in _oracle_union_1d(b[0] for b in bs))
        else:
            self.boxes = _reduce(bs)

    @property
    def is_empty(self) -> bool:
        return not self.boxes

    @property
    def is_bounded(self) -> bool:
        return all(iv.is_bounded for b in self.boxes for iv in b)

    def union(self, other):
        return PairwiseBoxSet(self.dimension, self.boxes + other.boxes)

    def intersect(self, other):
        return PairwiseBoxSet(self.dimension, [
            ib for a in self.boxes for b in other.boxes
            if (ib := _box_isect(a, b)) is not None])

    def difference(self, other):
        pieces = list(self.boxes)
        for b in other.boxes:
            pieces = [p for a in pieces for p in box_minus_box(a, b)]
        return PairwiseBoxSet(self.dimension, pieces)

    def complement(self):
        full = tuple(Interval.line() for _ in range(self.dimension))
        return PairwiseBoxSet(self.dimension, [full]).difference(self)

    def subset_of(self, other) -> bool:
        return self.difference(other).is_empty

    def set_eq(self, other) -> bool:
        return self.subset_of(other) and other.subset_of(self)

    def closure(self):
        return PairwiseBoxSet(self.dimension, [tuple(iv.closure() for iv in b)
                                               for b in self.boxes])

    def interior(self):
        return self.complement().closure().complement()

    def interior_in(self, ambient):
        return ambient.difference(ambient.difference(self).closure())

    def is_closed(self) -> bool:
        return self.closure().subset_of(self)

    def is_open(self) -> bool:
        return self.set_eq(self.interior())

    def is_compact(self) -> bool:
        return self.is_bounded and self.is_closed()

    def is_open_in(self, ambient) -> bool:
        return self.intersect(ambient.difference(self).closure()).is_empty

    def is_locally_compact(self) -> bool:
        return self.closure().difference(self).is_closed()


# ---------------------------------------------------------------------------
# box-by-box affine set maps and the piece-list map, kept as the
# differential oracles of the node walk and the canonical maps of `affine`

def _oracle_image_interval(r: AffineRule, iv: Interval) -> Interval:
    if r.slope == 0:
        return Interval.point(r.intercept)

    def moved(c: Cut) -> Cut:
        if c.sign:
            return c if r.slope > 0 else -c
        return Cut(0, r.slope * c.value + r.intercept)

    lo, hi = moved(iv.lo), moved(iv.hi)
    if r.slope > 0:
        return Interval(lo, hi, iv.lo_closed, iv.hi_closed)
    return Interval(hi, lo, iv.hi_closed, iv.lo_closed)


def _oracle_preimage_interval(r: AffineRule, iv: Interval) -> Interval | None:
    """The full line when a constant rule hits iv, None when it misses."""
    if r.slope == 0:
        return Interval.line() if iv.contains(r.intercept) else None
    inverse = AffineRule(1 / r.slope, -r.intercept / r.slope)
    return _oracle_image_interval(inverse, iv)


def oracle_rules_image(rules, a: BoxSet) -> BoxSet:
    return BoxSet.of(a.dimension, [
        tuple(_oracle_image_interval(r, iv) for r, iv in zip(rules, b))
        for b in a.boxes])


def oracle_rules_preimage(rules, a: BoxSet) -> BoxSet:
    boxes = []
    for b in a.boxes:
        pre = [_oracle_preimage_interval(r, iv) for r, iv in zip(rules, b)]
        if None not in pre:
            boxes.append(tuple(pre))
    return BoxSet.of(a.dimension, boxes)


def oracle_rules_agree_on(r1, r2, region: BoxSet) -> bool:
    """Axis by axis: equal rules, or the region lies in the slab where two
    rules of different slopes cross."""
    if region.is_empty:
        return True
    for k, (a, b) in enumerate(zip(r1, r2)):
        dm = a.slope - b.slope
        dq = a.intercept - b.intercept
        if dm == 0 and dq == 0:
            continue
        if dm == 0:
            return False
        slab = BoxSet.of(region.dimension, [tuple(
            Interval.point(-dq / dm) if i == k else Interval.line()
            for i in range(region.dimension))])
        if not region.subset_of(slab):
            return False
    return True


def rules_agree_on(r1, r2, region: BoxSet) -> bool:
    """Whether two componentwise rules coincide on a box set: whether the
    region lies in the zero set of their difference, one preimage under
    the node walk of `affine`."""
    d = region.dimension
    diff = tuple(AffineRule(a.slope - b.slope, a.intercept - b.intercept)
                 for a, b in zip(r1, r2))
    return region.is_empty or region.subset_of(
        af.rules_preimage(diff, BoxSet.points([(0,) * d], d)))


class PieceListMap:
    """The piece-list map that the canonical form of `affine` replaced, kept
    as its oracle: the pieces as written, overlap checked against a running
    union, continuity and equality decided on every pair of pieces, set
    maps box by box, and composites that pair the pieces of both maps."""

    def __init__(self, dimension: int, pieces):
        self.dimension = dimension
        self.pieces = tuple(p for p in pieces if not p.domain.is_empty)

    @staticmethod
    def of(dimension: int, pieces) -> "PieceListMap":
        out = PieceListMap(dimension, pieces)
        seen = BoxSet.empty(dimension)
        for p in out.pieces:
            if p.domain.dimension != dimension:
                raise ValueError("piece dimension mismatch")
            if not seen.intersect(p.domain).is_empty:
                raise ValueError("piece domains overlap")
            seen = seen.union(p.domain)
        closures = [p.domain.closure() for p in out.pieces]
        for (p, cp), (q, cq) in itertools.combinations(
                zip(out.pieces, closures), 2):
            touch = cp.intersect(cq)
            if not touch.is_empty and not rules_agree_on(
                    p.rules, q.rules, touch.intersect(p.domain.union(q.domain))):
                raise ValueError("map is discontinuous across piece boundary")
        return out

    @property
    def domain(self) -> BoxSet:
        return BoxSet.union_all(self.dimension, (p.domain for p in self.pieces))

    def restrict(self, s: BoxSet) -> "PieceListMap":
        return PieceListMap(self.dimension, [
            Piece(p.domain.intersect(s), p.rules) for p in self.pieces])

    def image(self, a: BoxSet) -> BoxSet:
        return BoxSet.union_all(self.dimension, (
            oracle_rules_image(p.rules, a.intersect(p.domain))
            for p in self.pieces))

    def preimage(self, a: BoxSet) -> BoxSet:
        return BoxSet.union_all(self.dimension, (
            oracle_rules_preimage(p.rules, a).intersect(p.domain)
            for p in self.pieces))

    def maps_equal(self, other: "PieceListMap") -> bool:
        """Same domain, and the rules of every two pieces agree where their
        domains meet."""
        if self.domain != other.domain:
            return False
        return all(rules_agree_on(p.rules, q.rules, p.domain.intersect(q.domain))
                   for p in self.pieces for q in other.pieces)

    def compose(self, f: "PieceListMap") -> "PieceListMap":
        """self after f."""
        return PieceListMap(self.dimension, [
            Piece(pf.domain.intersect(oracle_rules_preimage(pf.rules, pg.domain)),
                  tuple(rg.compose(rf) for rg, rf in zip(pg.rules, pf.rules)))
            for pf in f.pieces for pg in self.pieces])
