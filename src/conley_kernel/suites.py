"""Reproducible verification suites behind `conley-kernel verify`.

Each suite is deterministic given its seed and returns a result object with
one line per group of checks; any counterexample fails the suite.  The same
functions back the pytest acceptance tests.

The brute-force oracles that the suites run live here and nowhere in the
kernel: the largest invariant subset by subset enumeration
(`brute_invariant_part`); preperiod and period by stepping the powers
(`brute_preperiod_period`); the Szymczak-category decisions by
enumerating every candidate table (`brute_sz_is_iso`, with
`is_shift_witness` checking the kernel's witnesses) and class equality by
trying every exponent up to preperiod plus period of the stepped power
sequence (`oracle_sz_equal`), which the polynomial deciders are checked
against; the pairwise box-list algebra (`PairwiseBoxSet`), which the
canonical box sets of `boxes` are checked against; the box-by-box affine
images, preimages and rule agreement (`oracle_rules_image`,
`oracle_rules_preimage`, `oracle_rules_agree_on`), which the node walk of
`affine` is checked against; the piece-list map (`PieceListMap`, with
pairwise overlap, continuity and equality by `rules_agree_on`), which the
canonical maps of `affine` are checked against; and the fixed-cap
invariant-part loop (`fixed_cap_invariant_part`), which the early exit of
`dynamics.invariant_part_exact` is checked against.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import affine as af
from . import conley as co
from . import dynamics as dyn
from . import finite as fin
from . import semiflow as sf
from . import szymczak as sz
from .affine import AffineRule, Piece, PiecewiseAffineMap
from .boxes import (
    BoxSet, Cut, Interval, NEG_INF, POS_INF, _ekey, _skey, isect_iv,
)


@dataclass
class SuiteResult:
    name: str
    passed: bool = True
    lines: list = field(default_factory=list)

    def note(self, line: str):
        self.lines.append(line)

    def fail(self, line: str):
        self.passed = False
        self.lines.append("COUNTEREXAMPLE: " + line)

    def check(self, ok: bool, line: str):
        if ok:
            self.note(line)
        else:
            self.fail(line)
        return ok


# ---------------------------------------------------------------------------
# generators

def random_finite_system(rng: random.Random, max_points: int = 8):
    n = rng.randint(1, max_points)
    space = fin.FiniteSpace.of(str(i) for i in range(1, n + 1))
    table = {}
    for p in space.points:
        if rng.randint(1, 10) <= 8:
            table[p] = rng.choice(space.points)
    return fin.FinitePartialMap.of(space, table)


def random_subset(rng: random.Random, space: fin.FiniteSpace) -> fin.FiniteSubset:
    return fin.FiniteSubset.of(
        space, (p for p in space.points if rng.randint(1, 10) <= 6))


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


def doubling_map() -> PiecewiseAffineMap:
    return PiecewiseAffineMap.affine_1d(2, 0)


def contraction_map() -> PiecewiseAffineMap:
    return PiecewiseAffineMap.affine_1d(Fraction(1, 2), 0)


def clamp_map() -> PiecewiseAffineMap:
    """x -> max(x - 1, 0) as a two-piece map on the line."""
    return PiecewiseAffineMap.of(1, [
        Piece(BoxSet.interval("-inf", False, 1, False), (AffineRule.of(0, 0),)),
        Piece(BoxSet.interval(1, True, "inf", False), (AffineRule.of(1, -1),)),
    ])


def shift2d_map() -> PiecewiseAffineMap:
    return PiecewiseAffineMap.single((AffineRule.of(1, 0), AffineRule.of(1, 1)))


def step_region(left_height, right_height) -> BoxSet:
    """{(x, y) : y < h(x)} for the step function h (split at x = 0)."""
    return BoxSet.of(2, [
        (Interval(NEG_INF, Cut.finite(0), False, False),
         Interval(NEG_INF, Cut.finite(Fraction(left_height)), False, False)),
        (Interval(Cut.finite(0), POS_INF, True, False),
         Interval(NEG_INF, Cut.finite(Fraction(right_height)), False, False)),
    ])


def interval_law_instances():
    """Curated (map, subsets) families: doubling, shift, clamped."""
    dbl = doubling_map()
    yield dbl, [BoxSet.interval(-1, True, 1, True),
                BoxSet.interval(-1, False, 1, False),
                BoxSet.interval("-1/2", False, "1/2", False),
                BoxSet.interval(0, True, 0, True)]
    sh = shift2d_map()
    yield sh, [step_region(3, -3), step_region(0, 0), step_region(1, 1)]
    cl = clamp_map()
    yield cl, [BoxSet.interval(0, True, 2, True),
               BoxSet.interval(0, True, 1, True),
               BoxSet.interval(0, True, "1/2", True)]


def clamp_flow() -> sf.ExactSemiflow:
    return sf.ExactSemiflow.of([sf.AxisRule.floor(1, 0)])


def translation_flow() -> sf.ExactSemiflow:
    return sf.ExactSemiflow.of([sf.AxisRule.translation(1)])


def flow_law_instances():
    fl = clamp_flow()
    yield fl, [BoxSet.interval(0, True, 1, True),
               BoxSet.interval(0, True, "1/2", True),
               BoxSet.interval(0, True, "1/4", True)]
    tr = translation_flow()
    yield tr, [BoxSet.interval(0, True, 1, True),
               BoxSet.interval(2, True, 3, True),
               BoxSet.interval("-1/2", True, "7/2", True)]


# ---------------------------------------------------------------------------
# brute-force oracles

def brute_invariant_part(f: fin.FinitePartialMap,
                         e: fin.FiniteSubset) -> fin.FiniteSubset:
    """Union of all invariant subsets of E, by subset enumeration."""
    members = e.ordered()
    best: set = set()
    for mask in range(1 << len(members)):
        cand = {members[i] for i in range(len(members)) if mask >> i & 1}
        if not cand <= set(f.table):
            continue
        if {f.table[x] for x in cand} == cand:
            best |= cand
    return fin.FiniteSubset.of(f.space, best)


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


def brute_preperiod_period(f: fin.FinitePartialMap) -> tuple[int, int]:
    seq = [fin.identity_map(f.space)]
    while True:
        nxt = fin.compose(f, seq[-1])
        for i, old in enumerate(seq):
            if old == nxt:
                return i, len(seq) - i
        seq.append(nxt)


def all_partial_maps(n: int):
    space = fin.FiniteSpace.of(str(i) for i in range(1, n + 1))
    choices = list(space.points) + [None]
    for combo in itertools.product(choices, repeat=n):
        table = {p: c for p, c in zip(space.points, combo) if c is not None}
        yield fin.FinitePartialMap.of(space, table)


def all_subsets(space: fin.FiniteSpace):
    for mask in range(1 << len(space.points)):
        yield fin.FiniteSubset.of(
            space, (p for i, p in enumerate(space.points) if mask >> i & 1))


def enumerate_based_endos(n_free: int):
    """All based endos with n_free non-basepoint points (named a1..ak)."""
    pts = [sz.BASEPOINT] + [f"a{i+1}" for i in range(n_free)]
    free = pts[1:]
    for choice in itertools.product(pts, repeat=n_free):
        table = dict(zip(free, choice))
        table[sz.BASEPOINT] = sz.BASEPOINT
        yield sz.BasedEndo.of(pts, table)


def enumerate_equivariant_maps(source: sz.BasedEndo, target: sz.BasedEndo):
    """All equivariant maps source -> target, lexicographic in the tables
    (target points in their order, on the non-base points in theirs).

    phi f = g phi fixes phi along f once it is chosen on one point of each
    cycle of f, where it must take a value t with g^L(t) = t for a cycle of
    length L, and on each point outside f's image.  Only those values are
    chosen; each is carried along f until it meets a point already set,
    and a choice that meets a different value there is dropped."""
    f, g = source.apply, target.apply
    n = len(source.points)
    gens, on_cycle = [], {source.base}
    for x in source.points:
        c = x
        for _ in range(n):
            c = f(c)              # c lies on the cycle that x runs into
        if c not in on_cycle:
            cycle = [c]
            while f(cycle[-1]) != c:
                cycle.append(f(cycle[-1]))
            on_cycle.update(cycle)
            values = []
            for t in target.points:
                u = t
                for _ in cycle:
                    u = g(u)
                if u == t:
                    values.append(t)
            gens.append((c, values))
    image = {f(x) for x in source.points}
    gens += [(x, target.points) for x in source.points if x not in image]
    table = {source.base: target.base}

    def carry(x, t) -> list | None:
        path = []
        while x not in table:
            table[x] = t
            path.append(x)
            x, t = f(x), g(t)
        if table[x] == t:
            return path
        for p in path:
            del table[p]
        return None

    def extend(i: int):
        if i == len(gens):
            yield dict(table)
            return
        x, values = gens[i]
        for t in values:
            path = carry(x, t)
            if path is not None:
                yield from extend(i + 1)
                for p in path:
                    del table[p]

    rank = {p: i for i, p in enumerate(target.points)}
    free = [p for p in source.points if p != source.base]
    for t in sorted(extend(0), key=lambda t: [rank[t[x]] for x in free]):
        yield sz.EquivariantMap.of(source, target, t)


@functools.lru_cache(maxsize=1024)
def brute_power_sequence(f: sz.BasedEndo) -> tuple[tuple[dict, ...], int, int]:
    """(tables, p, q): the tables of f^0, f^1, ..., f^(p+q-1), stepped from
    f's table until the first repeat f^(p+q) = f^p.  Cached: the tables are
    shared, and read only."""
    seq, seen = [{x: x for x in f.points}], {}
    while tuple(seq[-1].values()) not in seen:
        seen[tuple(seq[-1].values())] = len(seq) - 1
        seq.append({x: f.apply(v) for x, v in seq[-1].items()})
    p = seen[tuple(seq.pop().values())]
    return tuple(seq), p, len(seq) - p


def _reduced(n: int, p: int, q: int) -> int:
    """The least m with f^m = f^n, for f of preperiod p and period q."""
    return n if n < p else p + (n - p) % q


def brute_power(f: sz.BasedEndo, n: int) -> dict:
    """The table of f^n, read off :func:`brute_power_sequence`."""
    seq, p, q = brute_power_sequence(f)
    return seq[_reduced(n, p, q)]


def brute_shift_bound(f: sz.BasedEndo, g: sz.BasedEndo) -> int:
    """max(p_f, p_g) + lcm(q_f, q_g): a complete bound on the least
    shift-equivalence exponent and on the shift of an inverse class."""
    _, pf, qf = brute_power_sequence(f)
    _, pg, qg = brute_power_sequence(g)
    return max(pf, pg) + math.lcm(qf, qg)


def oracle_sz_equal(m: sz.SzMorphism, m2: sz.SzMorphism) -> bool:
    """(phi, k) ~ (phi', k') by trying every n <= p + q for a witness
    phi f^(k'+n) = phi' f^(k+n).  Witnesses propagate upward and reduce
    modulo the period q, so the bound is complete."""
    if m.source != m2.source or m.target != m2.target:
        raise ValueError("morphisms must be parallel")
    f = m.source
    seq, p, q = brute_power_sequence(f)
    phi, phi2 = m.phi.table, m2.phi.table
    for n in range(p + q + 1):
        left = seq[_reduced(m2.shift + n, p, q)]
        right = seq[_reduced(m.shift + n, p, q)]
        if all(phi[left[x]] == phi2[right[x]] for x in f.points):
            return True
    return False


def is_shift_witness(phi: sz.EquivariantMap, psi: sz.EquivariantMap,
                     a: int) -> bool:
    """psi: g -> f with psi phi = f^a and phi psi = g^a."""
    f, g = phi.source, phi.target
    fa, ga = brute_power(f, a), brute_power(g, a)
    return psi.source == g and psi.target == f and \
        all(psi.table[phi.table[x]] == fa[x] for x in f.points) and \
        all(phi.table[psi.table[y]] == ga[y] for y in g.points)


def brute_sz_is_iso(m: sz.SzMorphism):
    """An inverse class of m, by trying every (psi, l) and testing both
    composites with oracle_sz_equal; None if there is none.  An
    independent decision path from the shift-equivalence rule."""
    f, g = m.source, m.target
    id_f, id_g = sz.identity_morphism(f), sz.identity_morphism(g)
    # the composites (psi phi, k + l) and (phi psi, l + k) depend on l only
    # through the shift: psi phi is built once per psi, and phi psi once,
    # when psi phi first passes
    partners = [(psi, m.phi.then(psi))
                for psi in enumerate_equivariant_maps(g, f)]
    phi_psi = {}
    for ell in range(brute_shift_bound(f, g) + 1):
        for i, (psi, psi_phi) in enumerate(partners):
            if oracle_sz_equal(sz.SzMorphism(psi_phi, m.shift + ell), id_f):
                if i not in phi_psi:
                    phi_psi[i] = psi.then(m.phi)
                if oracle_sz_equal(sz.SzMorphism(phi_psi[i], ell + m.shift), id_g):
                    return sz.SzMorphism(psi, ell)
    return None


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
# box-by-box affine set maps, kept as the differential oracle of the node
# walk in `affine`

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


def _built(build, dimension: int, pieces):
    """The map build(dimension, pieces), or the message it raised."""
    try:
        return build(dimension, pieces)
    except ValueError as exc:
        return str(exc)


def _piece_list_mismatch(written: list, other: PiecewiseAffineMap,
                         sets: list, dimension: int):
    """(accepted, the first operation on which the map written as the piece
    list `written` disagrees with its piece-list oracle, or None): the
    accept or reject verdict of `of`, its images and preimages of `sets`,
    its restrictions to them, its composites with `other` both ways, and
    equality with `other` and with each restriction."""
    f = _built(PiecewiseAffineMap.of, dimension, written)
    fo = _built(PieceListMap.of, dimension, written)
    if isinstance(f, str) or isinstance(fo, str):
        return False, None if f == fo else f"verdict {f!r}, oracle {fo!r}"
    return True, _accepted_mismatch(f, fo, other, sets, dimension)


def _accepted_mismatch(f, fo, other, sets, dimension):
    """The first operation on which the accepted map f and its oracle fo
    disagree, or None; results compare as piece lists by the oracle."""
    go = PieceListMap(dimension, other.pieces)

    def same(got: PiecewiseAffineMap, want: PieceListMap) -> bool:
        return PieceListMap(dimension, got.pieces).maps_equal(want)

    if f.domain != fo.domain or not same(f, fo):
        return "the canonical pieces"
    if (f == other) != fo.maps_equal(go):
        return "maps_equal with the other map"
    if not same(af.compose(other, f), go.compose(fo)) or \
            not same(af.compose(f, other), fo.compose(go)):
        return "compose"
    for a in sets:
        if f.image(a) != fo.image(a):
            return f"image of {a}"
        if f.preimage(a) != fo.preimage(a):
            return f"preimage of {a}"
        r, ro = f.restrict(a), fo.restrict(a)
        if not same(r, ro):
            return f"restrict to {a}"
        if (r == f) != ro.maps_equal(fo):
            return f"maps_equal with the restriction to {a}"
    return None


ORACLE_SLOPES = tuple(Fraction(m) for m in
                      (0, 1, -1, 2, -2, Fraction(1, 3), Fraction(-1, 3),
                       Fraction(-1, 2)))


def random_rules(rng: random.Random, dimension: int) -> tuple:
    """One rule per axis: a slope from ORACLE_SLOPES and a half-integer
    intercept in [-1, 1]."""
    return tuple(AffineRule(rng.choice(ORACLE_SLOPES),
                            Fraction(rng.randint(-2, 2), 2))
                 for _ in range(dimension))


def _affine_mismatch(rng: random.Random, dimension: int):
    """The first set map on which the node walk and the box-by-box oracle
    disagree for random rules and a random_box_list set, or None.  The
    preimage is also checked by membership, x in f^-1(A) iff f(x) in A, at
    every breakpoint of either result and between and beyond them."""
    rules = random_rules(rng, dimension)
    a = BoxSet.of(dimension, random_box_list(rng, dimension))
    pre = af.rules_preimage(rules, a)
    if pre != oracle_rules_preimage(rules, a):
        return f"preimage under {rules} of {a}"
    if af.rules_image(rules, a) != oracle_rules_image(rules, a):
        return f"image under {rules} of {a}"
    if dimension < 3:
        axes = []
        for k in range(dimension):
            ends = sorted({c.value for b in pre.boxes + a.boxes
                           for c in (b[k].lo, b[k].hi) if c.is_finite})
            ends = [ends[0] - 1] + ends + [ends[-1] + 1] if ends else [0]
            axes.append(ends + [(x + y) / 2 for x, y in zip(ends, ends[1:])])
        for x in itertools.product(*axes):
            if pre.contains_point(x) != a.contains_point(
                    [r.apply(v) for r, v in zip(rules, x)]):
                return f"preimage membership at {list(x)} under {rules} of {a}"
    # a second rule equal to the first, shifted in the intercept, or
    # crossing it at a half-integer c, on each axis; the region is pinned
    # to c on some crossing axes, so both answers occur
    r2, boxes = [], random_box_list(rng, dimension, 2)
    for k, r in enumerate(rules):
        kind = rng.choice(("same", "same", "shift", "cross"))
        c = Fraction(rng.randint(-2, 4), 2)
        if kind == "same":
            r2.append(r)
        elif kind == "shift":
            r2.append(AffineRule(r.slope, r.intercept + Fraction(1, 2)))
        else:
            m = rng.choice([s for s in ORACLE_SLOPES if s != r.slope])
            r2.append(AffineRule(m, r.apply(c) - m * c))
            if rng.randint(0, 2):
                boxes = [b[:k] + (Interval.point(c),) + b[k + 1:] for b in boxes]
    region = BoxSet.of(dimension, boxes)
    if rules_agree_on(rules, tuple(r2), region) != \
            oracle_rules_agree_on(rules, r2, region):
        return f"rules_agree_on {rules}, {tuple(r2)} on {region}"
    return None


# ---------------------------------------------------------------------------
# suites

def suite_finite_algebra(trials=200, seed=7) -> SuiteResult:
    res = SuiteResult("finite-algebra")
    rng = random.Random(seed)
    for _ in range(trials):
        f = random_finite_system(rng, 6)
        g = random_finite_system(rng, 1)
        g = fin.FinitePartialMap.of(f.space, {
            p: rng.choice(f.space.points) for p in f.space.points
            if rng.randint(1, 10) <= 8})
        h = fin.FinitePartialMap.of(f.space, {
            p: rng.choice(f.space.points) for p in f.space.points
            if rng.randint(1, 10) <= 8})
        if fin.compose(fin.compose(h, g), f) != fin.compose(h, fin.compose(g, f)):
            res.fail(f"associativity: {f}, {g}, {h}")
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        if fin.power(f, m + n) != fin.compose(fin.power(f, m), fin.power(f, n)):
            res.fail(f"power law: {f}, m={m}, n={n}")
        e = random_subset(rng, f.space)
        if dyn.preimage_n(f, e, m + n) != \
                dyn.preimage_n(f, dyn.preimage_n(f, e, n), m):
            res.fail(f"preimage law: {f}, m={m}, n={n}")
    res.note(f"associativity, power and preimage laws on {trials} random systems")
    for _ in range(60):
        f = random_finite_system(rng, 6)
        if f.power_bounds != brute_preperiod_period(f):
            res.fail(f"preperiod/period mismatch for {f}")
    res.note("preperiod/period finder agrees with brute force (60 systems)")
    return res


def _grid_points(step=Fraction(1, 64), lo=-2, hi=2):
    n = int((hi - lo) / step)
    return [Fraction(lo) + step * k for k in range(n + 1)]


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


def _raster_mismatch(a: BoxSet, b: BoxSet):
    """The first operation whose result disagrees with membership on the
    quarter grid over [-5/4, 9/4]^n, or None.

    Endpoints are half-integers in [-1, 2], so every grid point stands for
    one cell (a half-integer point or an open half-unit interval per axis);
    a point is in the closure (interior) of A iff some (every) grid point of
    its cell's closure star is in A."""
    coord = [Fraction(k - 6, 4) for k in range(17)]     # -3/2 .. 5/2
    memo = {}

    def member(s, p):
        key = (id(s), p)
        if key not in memo:
            memo[key] = s.contains_point([coord[k] for k in p])
        return memo[key]

    def star(p):
        return itertools.product(*[(k - 1, k, k + 1) if k % 2 == 0 else (k,)
                                   for k in p])

    results = {"union": a.union(b), "intersect": a.intersect(b),
               "difference": a.difference(b), "complement": a.complement(),
               "closure": a.closure(), "interior": a.interior()}
    for p in itertools.product(range(1, 16), repeat=a.dimension):
        ina, inb = member(a, p), member(b, p)
        want = {"union": ina or inb, "intersect": ina and inb,
                "difference": ina and not inb, "complement": not ina,
                "closure": any(member(a, q) for q in star(p)),
                "interior": all(member(a, q) for q in star(p))}
        for name, got in results.items():
            if member(got, p) != want[name]:
                return f"{name} at {[coord[k] for k in p]}"
    return None


def _oracle_mismatch(ra: list, rb: list, dimension: int):
    """The first operation or predicate on which the canonical form and the
    pairwise oracle disagree, or None."""
    a, b = BoxSet.of(dimension, ra), BoxSet.of(dimension, rb)
    oa, ob = PairwiseBoxSet(dimension, ra), PairwiseBoxSet(dimension, rb)
    sets = [("union", a.union(b), oa.union(ob)),
            ("intersect", a.intersect(b), oa.intersect(ob)),
            ("difference", a.difference(b), oa.difference(ob)),
            ("complement", a.complement(), oa.complement()),
            ("closure", a.closure(), oa.closure()),
            ("interior", a.interior(), oa.interior()),
            ("interior_in", a.intersect(b).interior_in(b),
             oa.intersect(ob).interior_in(ob))]
    for name, got, want in sets:
        if BoxSet.of(dimension, want.boxes) != got or \
                not want.set_eq(PairwiseBoxSet(dimension, got.boxes)):
            return name
    ab, oab = a.intersect(b), oa.intersect(ob)
    preds = [("is_closed", a.is_closed(), oa.is_closed()),
             ("is_open", a.is_open(), oa.is_open()),
             ("is_compact", a.is_compact(), oa.is_compact()),
             ("is_locally_compact", a.is_locally_compact(), oa.is_locally_compact()),
             ("is_open_in", ab.is_open_in(b), oab.is_open_in(ob)),
             ("subset_of", a.subset_of(b), oa.subset_of(ob)),
             ("==", a == b, oa.set_eq(ob))]
    for name, got, want in preds:
        if got != want:
            return name
    return None


def suite_box_algebra(trials=120, seed=11) -> SuiteResult:
    res = SuiteResult("box-algebra")
    rng = random.Random(seed)
    for _ in range(trials):
        a = random_interval_set(rng)
        b = random_interval_set(rng)
        c = random_interval_set(rng)
        lhs = a.intersect(b.union(c))
        rhs = a.intersect(b).union(a.intersect(c))
        if lhs != rhs:
            res.fail(f"distributivity: {a}, {b}, {c}")
        if a.difference(b) != a.intersect(b.complement()):
            res.fail(f"difference law: {a}, {b}")
        if a.union(b).difference(b) != a.difference(b):
            res.fail(f"union/difference: {a}, {b}")
        if a.closure().closure() != a.closure():
            res.fail(f"closure idempotent: {a}")
        if a.interior().interior() != a.interior():
            res.fail(f"interior idempotent: {a}")
        if not a.interior().subset_of(a) or not a.subset_of(a.closure()):
            res.fail(f"interior <= A <= closure: {a}")
        if a.is_bounded and a.is_closed() != a.is_compact():
            res.fail(f"compact <=> closed and bounded: {a}")
        if a.interior() == a and not a.is_locally_compact():
            res.fail(f"open set not locally compact: {a}")
        if a.is_compact() and not a.is_locally_compact():
            res.fail(f"compact set not locally compact: {a}")
        if a.is_locally_compact() and b.is_locally_compact() and \
           not a.intersect(b).is_locally_compact():
            res.fail(f"locally compact intersection: {a}, {b}")
    res.note(f"boolean and topology laws on {trials} random 1-D sets")
    grid = _grid_points()
    for _ in range(30):
        a = random_interval_set(rng)
        b = random_interval_set(rng)
        inter, union, diff = a.intersect(b), a.union(b), a.difference(b)
        for x in grid:
            ina, inb = a.contains_point([x]), b.contains_point([x])
            if inter.contains_point([x]) != (ina and inb) or \
               union.contains_point([x]) != (ina or inb) or \
               diff.contains_point([x]) != (ina and not inb):
                res.fail(f"raster oracle at {x}: {a}, {b}")
                break
    res.note("rasterized membership oracle at resolution 1/64 (30 pairs)")
    for dimension, pairs in ((2, 40), (3, 12)):
        for _ in range(pairs):
            ra = random_box_list(rng, dimension)
            rb = random_box_list(rng, dimension)
            bad = _raster_mismatch(BoxSet.of(dimension, ra),
                                   BoxSet.of(dimension, rb)) or \
                _oracle_mismatch(ra, rb, dimension)
            if bad:
                res.fail(f"{dimension}-D {bad}: {ra}, {rb}")
        res.note(f"raster membership at resolution 1/4 and the pairwise oracle "
                 f"on {pairs} pairs of random {dimension}-D sets")
    for dimension, count in ((1, 80), (2, 60), (3, 30)):
        for _ in range(count):
            bad = _affine_mismatch(rng, dimension)
            if bad:
                res.fail(f"{dimension}-D {bad}")
        res.note(f"affine image, preimage and rule agreement equal the "
                 f"box-by-box oracle on {count} random {dimension}-D sets")
    for dimension, count in ((1, 40), (2, 30), (3, 10)):
        accepted = 0
        for _ in range(count):
            written = random_piece_list(rng, dimension)
            other = PiecewiseAffineMap.single(
                random_rules(rng, dimension),
                BoxSet.of(dimension, random_box_list(rng, dimension)))
            sets = [BoxSet.of(dimension, random_box_list(rng, dimension))]
            ok, bad = _piece_list_mismatch(written, other, sets, dimension)
            accepted += ok
            if bad:
                res.fail(f"{dimension}-D {bad} differs from the piece-list "
                         f"oracle: {written}")
        res.note(f"the verdict of of, image, preimage, restrict, compose and "
                 f"maps_equal equal the piece-list oracle on {count} random "
                 f"{dimension}-D piece lists ({accepted} accepted)")
    return res


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


def suite_pam_laws(trials=80, seed=13) -> SuiteResult:
    res = SuiteResult("pam-laws")
    rng = random.Random(seed)
    maps = [doubling_map(), contraction_map(), clamp_map(),
            PiecewiseAffineMap.affine_1d(-1, 0),
            PiecewiseAffineMap.affine_1d(1, 1)]
    for _ in range(trials):
        f = rng.choice(maps)
        g = rng.choice(maps)
        a = random_interval_set(rng)
        lhs = af.compose(g, f).preimage(a)
        rhs = f.preimage(g.preimage(a))
        if lhs != rhs:
            res.fail(f"preimage of composite: {a}")
        d = random_interval_set(rng).intersect(
            BoxSet.interval(-4, True, 4, True)).closure()
        d = d.intersect(f.domain)
        if not d.is_empty and not f.is_proper_on(d, f.image(d)):
            res.fail(f"compact domain not proper: {d}")
    res.note(f"composite-preimage and compact-properness laws ({trials} trials)")
    exact = nonempty = 0
    for k in range(trials // 2):
        dimension = 1 + k % 2
        f = random_product_map(rng, dimension)
        e = random_core_set(rng, dimension) if k % 4 < 2 else \
            BoxSet.of(dimension, random_box_list(rng, dimension))
        try:
            got = dyn.invariant_part_exact(f, e)
        except sf.Undecided as exc:
            got = (exc.reason, exc.bound, exc.outer)
        # a fresh copy of f, so that no set-map memo is shared
        fresh = PiecewiseAffineMap.of(dimension, f.pieces)
        if got != fixed_cap_invariant_part(fresh, e):
            res.fail(f"invariant part differs from the fixed-cap loop: "
                     f"{f}, E={e}")
        exact += isinstance(got, BoxSet)
        nonempty += isinstance(got, BoxSet) and not got.is_empty
    res.note(f"early-exit invariant part equals the fixed-cap loop on "
             f"{trials // 2} 1-D and 2-D product maps ({exact} exact, "
             f"{nonempty} of them nonempty)")
    for k in range(trials):
        f = random_product_map(rng, 1 + k % 3) if k % 4 else clamp_map()
        dimension = f.dimension
        a = BoxSet.of(dimension, random_box_list(rng, dimension))
        fo = PieceListMap(dimension, f.pieces)
        if f.preimage(a) != fo.preimage(a):
            res.fail(f"preimage differs from the box-by-box oracle: {f}, {a}")
        if f.image(a) != fo.image(a):
            res.fail(f"image differs from the box-by-box oracle: {f}, {a}")
        for p in f.pieces:
            for q in f.pieces:
                meet = p.domain.closure().intersect(q.domain.closure())
                if rules_agree_on(p.rules, q.rules, meet) != \
                        oracle_rules_agree_on(p.rules, q.rules, meet):
                    res.fail(f"rules_agree_on differs from the oracle: "
                             f"{p.rules}, {q.rules} on {meet}")
    res.note(f"piecewise image, preimage and rule agreement on piece "
             f"boundaries equal the box-by-box oracle ({trials} 1-D to 3-D "
             f"maps)")
    accepted = 0
    for k in range(trials // 2):
        dimension = 1 + k % 2
        f = random_product_map(rng, dimension) if k % 4 else clamp_map()
        other = f if rng.randint(0, 1) else random_product_map(rng, dimension)
        sets = [BoxSet.of(dimension, random_box_list(rng, dimension))
                for _ in range(2)]
        ok, bad = _piece_list_mismatch(rewritten_pieces(rng, f), other, sets,
                                       dimension)
        accepted += ok
        if bad:
            res.fail(f"{bad} differs from the piece-list oracle: {f}")
    res.note(f"rewritten piece lists of {trials // 2} 1-D and 2-D product "
             f"maps ({accepted} accepted): the verdict of of, the canonical "
             f"pieces, image, preimage, restrict, compose and maps_equal "
             f"equal the piece-list oracle")
    return res


def _laws_for_pair(res, f, e, e2, t):
    """The identity/power form on the diagonal, and equivariance at times 1
    and c: the cross map intertwines f_E^s and f_E'^s."""
    ca = dyn.carrier_for(f)
    cm = dyn.cross_map(f, e, e2, t)
    if e == e2 and not cm.realized.maps_equal(dyn.induced_power(f, e, t.c)):
        res.fail(f"diagonal cross map is not the induced power: {t}")
    for s in {1, t.c}:
        lhs = ca.compose(cm.realized, dyn.induced_power(f, e, s))
        rhs = ca.compose(dyn.induced_power(f, e2, s), cm.realized)
        if not lhs.maps_equal(rhs):
            res.fail(f"equivariance at time {s} fails for {t}")


def _composition_laws(res, f, e, e2, e3, t, t2):
    ca = dyn.carrier_for(f)
    if not dyn.triple_sum_law_check(f, e, e2, e3, t, t2):
        res.fail(f"sum triple not admissible: {t}, {t2}")
        return
    m1 = dyn.cross_map(f, e, e2, t)
    m2 = dyn.cross_map(f, e2, e3, t2)
    msum = dyn.cross_map(f, e, e3, t + t2)
    if not ca.compose(m2.realized, m1.realized).maps_equal(msum.realized):
        res.fail(f"composition identity fails: {t}, {t2}")


def _interchange_law(res, f, e, e2, t, t2):
    # callers pass c-inflated copies of admissible triples, which stay
    # admissible (the second inclusion is monotone in its depth)
    ca = dyn.carrier_for(f)
    if not dyn.is_admissible(f, e, e2, t2):
        res.fail(f"inflated triple not admissible: {t2}")
        return
    m1 = dyn.cross_map(f, e, e2, t)
    m2 = dyn.cross_map(f, e, e2, t2)
    lhs = ca.compose(m1.realized, dyn.induced_power(f, e, t2.c))
    rhs = ca.compose(m2.realized, dyn.induced_power(f, e, t.c))
    if not lhs.maps_equal(rhs):
        res.fail(f"interchange fails: {t}, {t2}")


def _identities_on(res, f, subsets):
    """The four identities on every pair and chain of subsets of one system,
    map or flow, that a search within bound 6 finds admissible."""
    for e in subsets:
        _laws_for_pair(res, f, e, e, dyn.AdmissibleTriple(0, 1, 2))
        for e2 in subsets:
            s1 = dyn.find_admissible(f, e, e2, bound=6)
            if not s1.found:
                continue
            _laws_for_pair(res, f, e, e2, s1.triple)
            _interchange_law(res, f, e, e2, s1.triple,
                             s1.triple + dyn.AdmissibleTriple(0, 0, 1))
            for e3 in subsets:
                s2 = dyn.find_admissible(f, e2, e3, bound=6)
                if s2.found:
                    _composition_laws(res, f, e, e2, e3, s1.triple, s2.triple)


def suite_thm_composition(trials=500, seed=7) -> SuiteResult:
    res = SuiteResult("thm-4-composition")
    rng = random.Random(seed)
    diag = pairs = chains = 0
    for _ in range(trials):
        f = random_finite_system(rng, 8)
        e = random_subset(rng, f.space)
        a = rng.randint(0, 2)
        b = a + rng.randint(0, 2)
        c = b + rng.randint(0, 2)
        t_diag = dyn.AdmissibleTriple(a, b, c)
        _laws_for_pair(res, f, e, e, t_diag)
        diag += 1
        e2 = random_subset(rng, f.space)
        s1 = dyn.find_admissible(f, e, e2)
        if not s1.found:
            continue
        _laws_for_pair(res, f, e, e2, s1.triple)
        pairs += 1
        _interchange_law(res, f, e, e2, s1.triple,
                         s1.triple + dyn.AdmissibleTriple(0, 0, 1))
        _interchange_law(res, f, e, e2, s1.triple,
                         s1.triple + dyn.AdmissibleTriple(0, 0, 2))
        e3 = random_subset(rng, f.space)
        s2 = dyn.find_admissible(f, e2, e3)
        if s2.found:
            _composition_laws(res, f, e, e2, e3, s1.triple, s2.triple)
            chains += 1
    res.note(f"finite systems: {diag} diagonal, {pairs} cross, {chains} chained "
             f"instances of the four identities")
    for f, subsets in interval_law_instances():
        _identities_on(res, f, subsets)
    res.note("curated interval families (doubling, shift, clamped)")
    return res


def _properness_for_pair(res, f, e, e2, bound=None) -> bool:
    """Whether E and E' are weakly compactifiable with an admissible triple
    found within bound; if so, check that f^c maps the cross map's domain
    into E' properly and that the domain is open in E."""
    if not (dyn.is_weakly_compactifiable(f, e)
            and dyn.is_weakly_compactifiable(f, e2)):
        return False
    s = dyn.find_admissible(f, e, e2, bound=bound)
    if not s.found:
        return False
    ca = dyn.carrier_for(f)
    cm = dyn.cross_map(f, e, e2, s.triple)
    fc, d = ca.time_map(f, s.triple.c), cm.domain
    if not (d.subset_of(fc.domain) and fc.image(d).subset_of(e2)
            and fc.is_proper_on(d, e2)):
        res.fail(f"{ca.name} cross map not proper: {f}, {e}, {e2}, {s.triple}")
    if not d.is_open_in(e):
        res.fail(f"{ca.name} cross map not openly defined: {f}, {e}, {e2}, "
                 f"{s.triple}")
    return True


def suite_thm_properness(trials=300, seed=19) -> SuiteResult:
    res = SuiteResult("thm-4-properness")
    rng = random.Random(seed)
    count = 0
    for _ in range(trials):
        f = random_finite_system(rng, 8)
        e = random_subset(rng, f.space)
        e2 = random_subset(rng, f.space)
        count += _properness_for_pair(res, f, e, e2)
    res.note(f"finite carrier: {count} weakly compactifiable pairs checked")
    for instances in (interval_law_instances, flow_law_instances):
        count = 0
        for f, subsets in instances():
            count += sum(_properness_for_pair(res, f, e, e2, bound=6)
                         for e in subsets for e2 in subsets)
        res.note(f"{dyn.carrier_for(f).name} carrier: {count} weakly "
                 f"compactifiable pairs checked")
    return res


def suite_szymczak_oracle(max_points: int = 3) -> SuiteResult:
    """Exhaustive localization oracle over based endos with <= max_points+1
    points (basepoint included): the eventual-image decider says shift
    equivalence iff the brute-force search finds the Q-image invertible."""
    res = SuiteResult("szymczak-oracle")
    endos = [e for k in range(max_points + 1)
             for e in enumerate_based_endos(k)]
    checked = 0
    invariant_violations = 0
    for f in endos:
        fh = sz.EquivariantMap.endo_as_self_map(f)
        if brute_sz_is_iso(sz.Q(fh)) is None:
            res.fail(f"Q(f-hat) not invertible for {f}")
    res.note(f"Q(f-hat) invertible for all {len(endos)} endos")
    for f in endos:
        for g in endos:
            for phi in enumerate_equivariant_maps(f, g):
                wit = sz.is_shift_equivalence(phi)
                inv = brute_sz_is_iso(sz.Q(phi))
                if (wit is None) != (inv is None):
                    res.fail(f"oracle mismatch for {phi} between {f} and {g}")
                if wit is not None and \
                        not is_shift_witness(phi, wit.psi, wit.exponent):
                    res.fail(f"witness {wit} fails for {phi}")
                if wit is not None and \
                        sz.canonical_invariant(f) != sz.canonical_invariant(g):
                    invariant_violations += 1
                    res.fail(f"canonical invariant differs on shift-equivalent "
                             f"{f} and {g}")
                checked += 1
    res.note(f"shift-equivalence vs Q-iso agreement on {checked} equivariant maps")
    res.note(f"canonical-invariant consistency: {invariant_violations} violations")
    return res


def suite_invariant_part_oracle(trials=60, seed=23) -> SuiteResult:
    res = SuiteResult("invariant-part-oracle")
    checked = 0
    for n in range(1, 5):
        for f in all_partial_maps(n):
            for e in all_subsets(f.space):
                got = dyn.invariant_part(f, e)
                want = brute_invariant_part(f, e)
                if got.members != want.members:
                    res.fail(f"invariant part mismatch: {f}, E={e}")
                if f.image(got) != got:
                    res.fail(f"invariant part not invariant: {f}, E={e}")
                checked += 1
    res.note(f"exhaustive agreement on {checked} instances with |X| <= 4")
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.choice((5, 6))
        space = fin.FiniteSpace.of(str(i) for i in range(1, n + 1))
        table = {p: rng.choice(space.points) for p in space.points
                 if rng.randint(1, 20) <= 17}
        f = fin.FinitePartialMap.of(space, table)
        e = random_subset(rng, space)
        if dyn.invariant_part(f, e).members != brute_invariant_part(f, e).members:
            res.fail(f"random mismatch at |X|={n}: {f}, E={e}")
    res.note(f"random agreement at |X| in (5, 6): {trials} instances")
    return res


def suite_simple_system() -> SuiteResult:
    res = SuiteResult("simple-system")
    space = fin.FiniteSpace.of(["s", "a"])
    f = fin.FinitePartialMap.of(space, {"s": "s", "a": "s"})
    s_set = fin.FiniteSubset.of(space, ["s"])
    nbhds = [fin.FiniteSubset.of(space, ["s"]), fin.FiniteSubset.of(space, ["s", "a"])]
    rep = co.verify_simple_system(f, s_set, nbhds)
    res.check(isinstance(rep, co.ConleyIndexReport) and rep.ok,
              "finite attractor model: all laws and invertibility verified")
    if isinstance(rep, co.ConleyIndexReport):
        invs = {n.canonical_invariant for n in rep.neighbourhoods}
        res.check(invs == {(2, (1, 1))},
                  f"attractor canonical invariants agree: {sorted(invs)}")
    dbl = doubling_map()
    s0 = BoxSet.interval(0, True, 0, True)
    rep2 = co.verify_simple_system(
        dbl, s0, [BoxSet.interval("-1/2", False, "1/2", False),
                  BoxSet.interval("-1/4", False, "1/4", False)], bound=8)
    res.check(isinstance(rep2, co.ConleyIndexReport) and rep2.ok,
              "interval repeller model: all laws and invertibility verified")
    return res


def suite_cont_laws() -> SuiteResult:
    res = SuiteResult("cont-laws")
    for flow, subsets in flow_law_instances():
        for t, u in ((Fraction(1), Fraction(2)), (Fraction(1, 2), Fraction(1, 3))):
            lhs = af.compose(sf.time_map(flow, t), sf.time_map(flow, u))
            if not lhs.maps_equal(sf.time_map(flow, t + u)):
                res.fail(f"semigroup: t={t}, u={u}")
        for e in subsets:
            for tt in (Fraction(1, 2), Fraction(2)):
                d1 = sf.dom_interval(flow, e, tt)
                d2 = sf.dom_interval(flow, e, 2 * tt)
                if not d2.subset_of(d1):
                    res.fail(f"swept domain not decreasing: {e}, t={tt}")
                sampled = e
                for k in range(1, 65):
                    sampled = sampled.intersect(
                        sf.time_map(flow, tt * k / 64).preimage(e))
                if not d1.subset_of(sampled):
                    res.fail(f"swept domain not inside sampled bound: {e}")
        _identities_on(res, flow, subsets)
    res.note("semigroup, swept-domain, equivariance and composition identities "
             "on the clamped and translation fixtures")
    return res


def suite_cont_discriminator() -> SuiteResult:
    res = SuiteResult("cont-discriminator")
    flow = clamp_flow()
    e_good = BoxSet.interval(0, True, 1, True)
    e_bad = BoxSet.interval(0, True, 1, False)
    s0 = BoxSet.interval(0, True, 0, True)
    cert = co.is_index_nbhd(flow, e_good, s0)
    res.check(isinstance(cert, co.Certificate),
              "[0,1] certified as a continuous index neighbourhood of {0}")
    res.check(sf.is_finite_time_proper(flow, e_bad) is False,
              "[0,1) fails finite-time properness")
    res.check(sf.is_openly_defined_cont(flow, e_bad) is True,
              "[0,1) is openly defined (failure is properness alone)")
    rej = co.is_index_nbhd(flow, e_bad, s0)
    res.check(isinstance(rej, co.Failure) and "finite-time proper" in rej.reason,
              f"[0,1) rejected specifically for finite-time properness")
    inv = sf.invariant_part_F(flow, e_good)
    res.check(inv == s0, f"invariant part of [0,1] is {{0}}: {inv!r}")
    sampled = dyn.invariant_part_exact(sf.time_map(flow, Fraction(1, 2)), e_good)
    res.check(sampled == inv,
              "sampled-time oracle agrees with the closed form")
    return res


def suite_worked_models() -> SuiteResult:
    res = SuiteResult("worked-models")
    dbl = doubling_map()
    e0 = BoxSet.interval(0, True, 0, True)
    e1 = BoxSet.interval(-1, True, 1, True)
    s0 = e0
    res.check(dyn.is_compactifiable(dbl, e0), "doubling: {0} compactifiable")
    res.check(not dyn.is_weakly_compactifiable(dbl, e1),
              "doubling: [-1,1] rejected (induced domain not open)")
    built = co.construct_index_nbhd(dbl, s0, e1, bound=8)
    ok = isinstance(built, co.ConstructedNbhd) and \
        built.subset == BoxSet.interval("-1/2", False, "1/2", False) and \
        built.triple == dyn.AdmissibleTriple(0, 1, 1)
    res.check(ok, f"doubling: constructed index nbhd "
                  f"{getattr(built, 'subset', built)!r} with triple "
                  f"{getattr(built, 'triple', None)}")
    if ok:
        res.check(isinstance(co.is_index_nbhd(dbl, built.subset, s0),
                             co.Certificate),
                  "doubling: constructed set certified as an index nbhd of {0}")
        sim = dyn.sim_f(dbl, built.subset, built.compact_seed, bound=8)
        res.check(sim.is_equivalent,
                  f"doubling: constructed set equivalent to seed "
                  f"(witnesses {sim.forward}, {sim.backward})")
    search = dyn.find_admissible(dbl, e0, e1, bound=16)
    res.check(not search.found and not search.complete,
              "doubling: {0} to [-1,1] search exhausts its bound 16 undecided")
    shift = shift2d_map()
    e_phi = step_region(3, -3)
    e_psi = step_region(0, 0)
    sim = dyn.sim_f(shift, e_phi, e_psi, bound=6)
    res.check(sim.is_equivalent and sim.forward[1] - sim.forward[0] == 3
              and sim.backward[1] - sim.backward[0] == 3,
              f"shift: step regions equivalent with witnesses {sim.forward}, "
              f"{sim.backward} (bounded difference 3)")
    res.check(dyn.is_compactifiable(shift, e_phi),
              "shift: step region compactifiable")
    res.check(not e_phi.closure().is_compact()
              and not e_psi.closure().is_compact(),
              "shift: no step region is relatively compact")
    return res


SUITES = {
    "finite-algebra": suite_finite_algebra,
    "box-algebra": suite_box_algebra,
    "pam-laws": suite_pam_laws,
    "thm-4-composition": suite_thm_composition,
    "thm-4-properness": suite_thm_properness,
    "szymczak-oracle": suite_szymczak_oracle,
    "invariant-part-oracle": suite_invariant_part_oracle,
    "simple-system": suite_simple_system,
    "cont-laws": suite_cont_laws,
    "cont-discriminator": suite_cont_discriminator,
    "worked-models": suite_worked_models,
}


# the suites that take ``trials`` and ``seed``; the others take neither
SEEDED = frozenset({"finite-algebra", "box-algebra", "pam-laws",
                    "thm-4-composition", "thm-4-properness",
                    "invariant-part-oracle"})


def check_trials(trials) -> None:
    """Raise ValueError unless ``trials`` is None (each suite's default) or
    at least 1: a group run on 0 trials checks nothing, so it is an input
    error, not a pass."""
    if trials is not None and trials < 1:
        raise ValueError("--trials must not be negative" if trials < 0 else
                         "--trials must be at least 1: 0 trials check nothing")


def check_request(name: str, trials=None, seed=None) -> None:
    """Raise ValueError unless ``name`` is a suite, :func:`check_trials`
    passes, and the suite reads each option given (not None), which
    ``verify`` would otherwise echo as if it had been used: the one check of
    what ``verify`` takes."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    check_trials(trials)
    for option, value in (("trials", trials), ("seed", seed)):
        if value is not None and name not in SEEDED:
            raise ValueError(f"suite {name!r} reads no --{option}")


def run_suite(name: str, trials=None, seed=None) -> SuiteResult:
    check_request(name, trials, seed)
    kwargs = {}
    if trials is not None:
        kwargs["trials"] = trials
    if seed is not None:
        kwargs["seed"] = seed
    return SUITES[name](**kwargs)
