"""Isolating and index neighbourhoods, and the Conley functor.

Written once for every carrier and both time domains: the finite and
interval carriers (times in N) and the semiflow carrier (times in R>=0)
differ only through their set types and their systems, each its own time
domain (:mod:`conley_kernel.carriers`).

A certificate records each named check, its outcome and a printable
``repr`` of its inputs, not the inputs, so it cannot yet be re-run without
the tool.  The functor laws are written once and decided by the carrier's
law set: Szymczak classes between explicit one-point endos on the finite
carrier; on the box carriers the cross maps themselves, with the index
object kept as (E, f_E) and each law an exact partial-map identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .dynamics import (
    AdmissibleTriple, CrossMap, compactifiability_checks, cross_domain,
    cross_map, find_admissible, induced_power, is_weakly_compactifiable,
    one_point_endo,
)
from .errors import Undecided

if TYPE_CHECKING:       # annotations only: the finite law set imports it
    from . import szymczak as sz


@dataclass(frozen=True)
class Check:
    name: str
    detail: str
    ok: bool

    def __repr__(self):
        mark = "ok" if self.ok else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


@dataclass(frozen=True)
class Failure:
    reason: str
    checks: tuple[Check, ...] = ()

    def __bool__(self):
        return False


@dataclass(frozen=True)
class Certificate:
    """E certified for S: every check it passed, in the order made."""
    subset: object
    invariant_set: object
    checks: tuple[Check, ...]


def is_isolating(f, e, s, cap: int | None = None):
    """A Certificate or a named Failure; on box carriers raises
    Undecided when S's invariance or the invariant part is undecided."""
    f.check_invariant(s)
    f.check_set(e)

    checks = []
    nbhd = s.subset_of(f.interior_of(e))
    checks.append(Check("neighbourhood", f"S contained in interior of E={e!r}", nbhd))
    if not nbhd:
        return Failure("E is not a neighbourhood of S", tuple(checks))

    clo = e.closure()
    relcpt = clo.is_compact()
    checks.append(Check("relatively compact", f"closure(E)={clo!r} compact", relcpt))
    if not relcpt:
        return Failure("E is not relatively compact", tuple(checks))

    in_dom = clo.subset_of(f.domain)
    checks.append(Check("closure in domain", "closure(E) contained in Dom f", in_dom))
    if not in_dom:
        return Failure("closure(E) is not contained in Dom f", tuple(checks))

    inv = f.invariant_part(clo, cap)
    isolate = inv == s
    checks.append(Check("invariant part", f"I(closure(E))={inv!r} equals S={s!r}",
                        isolate))
    if not isolate:
        return Failure("invariant part of closure(E) differs from S", tuple(checks))

    checks.append(Check("S compact", f"S={s!r} compact", s.is_compact()))
    return Certificate(e, s, tuple(checks))


def is_index_nbhd(f, e, s, cap: int | None = None):
    """A Certificate with the isolating checks, then the compactifiability
    checks, or a named Failure."""
    iso = is_isolating(f, e, s, cap)
    if not iso:
        return iso
    raw = compactifiability_checks(f, e)
    checks = iso.checks + tuple(Check(name, f"E={e!r}", ok) for name, ok in raw)
    if not all(ok for _, ok in raw):
        bad = ", ".join(name for name, ok in raw if not ok)
        return Failure(f"E is not compactifiable: {bad}", checks)
    return Certificate(e, s, checks)


# ---------------------------------------------------------------------------
# construction of index neighbourhoods (following the existence proof)

@dataclass(frozen=True)
class ConstructedNbhd:
    subset: object
    certificate: Certificate
    triple: AdmissibleTriple
    compact_seed: object
    checks: tuple[Check, ...]


SEED_HALVINGS = 24


def _compact_isolating_seed(f, s, n):
    """A compact neighbourhood of S inside N (N assumed isolating for S).

    N itself when closed; otherwise the closed inflation of S by 1, 1/2,
    1/4, ... that first fits in N, clipped to the flow's carrier for a
    semiflow; raises Undecided after SEED_HALVINGS tries."""
    if n.is_closed():
        return n
    clip = f.carrier_name == "semiflow"
    delta = Fraction(1)
    for _ in range(SEED_HALVINGS):
        cand = s.inflate(delta)
        if clip:
            cand = cand.intersect(f.carrier)
        if cand.is_compact() and cand.subset_of(n):
            return cand
        delta /= 2
    raise Undecided("no compact box neighbourhood of S inside N found",
                    bound=SEED_HALVINGS)


def construct_index_nbhd(f, s, n, bound=None):
    """Build a certified index neighbourhood inside N.

    Follows the existence proof: pick a compact isolating K <= N, set
    U = interior(K), take any admissible triple for (K, U), and cut out
    E'' as the connecting-map domain.  Also verifies E'' ~ K by its
    explicit absorption witnesses.
    """
    iso = is_isolating(f, n, s)
    if not iso:
        return iso

    k = _compact_isolating_seed(f, s, n)
    u = f.interior_of(k)

    search = find_admissible(f, k, u, bound)
    if not search.found:
        if search.complete:
            return Failure("no admissible triple for (K, interior K); "
                           "N cannot be isolating")
        raise Undecided("admissible-triple search exhausted", bound=search.bound)
    t = search.triple

    e2 = cross_domain(f, k, u, t)
    cert = is_index_nbhd(f, e2, s)
    if not cert:
        return cert

    checks = [Check("E'' inside seed", f"E''={e2!r} contained in K={k!r}",
                    e2.subset_of(k))]
    depth = t.b + t.c - t.a
    checks.append(Check("seed absorbed into E''",
                        f"D_{depth}(K) contained in E''",
                        f.dom(k, depth).subset_of(e2)))
    if not all(c.ok for c in checks):
        return Failure("constructed set fails its absorption witnesses",
                       tuple(checks))
    return ConstructedNbhd(e2, cert, t, k, tuple(checks))


# ---------------------------------------------------------------------------
# simple-system verification and index reports

@dataclass(frozen=True)
class MorphismReport:
    source: str
    target: str
    triple: AdmissibleTriple
    shift: object
    invertible: bool
    witness: str
    checks: tuple[Check, ...]


@dataclass(frozen=True)
class NbhdReport:
    label: str
    object_repr: str
    canonical_invariant: Optional[tuple]


@dataclass(frozen=True)
class ConleyIndexReport:
    carrier: str
    invariant_set: str
    neighbourhoods: tuple[NbhdReport, ...]
    morphisms: tuple[MorphismReport, ...]
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks) and \
            all(m.invertible and all(c.ok for c in m.checks) for m in self.morphisms)


# ---------------------------------------------------------------------------
# the functor laws of each carrier

def _laws(f, subsets):
    """The law set of f's carrier over the neighbourhoods.  It answers: the
    report of a neighbourhood, the morphism of a cross map, whether two
    parallel morphisms are one class, the identity check, whether m2 o m
    equals m3, and the invertibility evidence of m given the morphism back:
    invertible, witness and checks."""
    if f.carrier_name == "finite":
        return _SzClassLaws(f, subsets)
    return _PartialMapLaws(f)


class _SzClassLaws:
    """Finite carrier: Szymczak classes between the one-point endos of the
    neighbourhoods, decided exactly.  Every subset of a discrete space is
    compactifiable, so the endos are built without the check.
    :mod:`conley_kernel.szymczak`, which only this carrier loads, is
    ``self.sz``, its names looked up at call time."""

    def __init__(self, f, subsets):
        from . import szymczak
        self.sz = szymczak
        self.endos = {e: one_point_endo(f, e) for e in subsets}

    def report(self, e) -> NbhdReport:
        endo = self.endos[e]
        return NbhdReport(repr(e), repr(endo),
                          self.sz.canonical_invariant(endo))

    def morphism(self, cm: CrossMap) -> sz.SzMorphism:
        sz, src, tgt = self.sz, self.endos[cm.source], self.endos[cm.target]
        table = {x: cm.realized.table.get(x, tgt.base)
                 for x in cm.source.ordered()} | {src.base: tgt.base}
        return sz.SzMorphism(sz.EquivariantMap.of(src, tgt, table), cm.triple.c)

    def same(self, m, m2) -> bool:
        return self.sz.sz_equal(m, m2)

    def identity(self, m: sz.SzMorphism, i) -> Check:
        sz = self.sz
        return Check("identity law", f"phi_EE = id for E#{i}",
                     sz.sz_equal(m, sz.identity_morphism(m.source)))

    def composes(self, m, m2, m3) -> bool:
        return self.sz.sz_equal(self.sz.sz_compose(m, m2), m3)

    def invertibility(self, m: sz.SzMorphism, back: sz.SzMorphism, i, j):
        """The witness is the inverse [psi, (a - k) mod lcm(q_f, q_g)] of
        m = [phi, k] from a shift equivalence (psi, a) of phi, kept only once
        sz_equal shows that both composites are identity classes."""
        sz, f, g = self.sz, m.source, m.target
        inv, wit = None, sz.is_shift_equivalence(m.phi)
        if wit is not None:
            period = math.lcm(f.power_bounds[1], g.power_bounds[1])
            inv = sz.SzMorphism(wit.psi, (wit.exponent - m.shift) % period)
            if not (sz.sz_equal(sz.sz_compose(m, inv), sz.identity_morphism(f))
                    and sz.sz_equal(sz.sz_compose(inv, m), sz.identity_morphism(g))):
                inv = None
        comp = sz.sz_compose(m, back)
        total = m.shift + back.shift
        power_class = sz.SzMorphism(sz.endo_shift_morphism(f, total).phi, total)
        checks = (
            Check("composite is power class",
                  f"phi({j}->{i}) o phi({i}->{j}) ~ (f_E^{total}, {total})",
                  sz.sz_equal(comp, power_class)),
            Check("composite is identity class",
                  "the power class is the identity in Sz",
                  sz.sz_equal(comp, sz.identity_morphism(f))),
        )
        return inv is not None, repr(inv), checks


class _PartialMapLaws:
    """Box carriers: a morphism is the cross map itself, standing for the
    class (phi, c) with c its shift, and each law is an exact partial-map
    identity; no one-point compactification is built."""

    def __init__(self, f):
        self.f = f

    def report(self, e) -> NbhdReport:
        return NbhdReport(repr(e), f"(E={e!r}, f_E)", None)

    def morphism(self, cm: CrossMap) -> CrossMap:
        return cm

    def same(self, m: CrossMap, m2: CrossMap) -> bool:
        """The interchange identity m o f_E^{c2} = m2 o f_E^{c}, witness n = 0."""
        e = m.source
        lhs = m.realized.after(induced_power(self.f, e, m2.shift))
        rhs = m2.realized.after(induced_power(self.f, e, m.shift))
        return lhs.maps_equal(rhs)

    def identity(self, m: CrossMap, i) -> Check:
        return Check("identity/power law", f"phi_EE realizes f_E^c for E#{i}",
                     m.realized.maps_equal(induced_power(self.f, m.source, m.shift)))

    def _composite(self, m: CrossMap, m2: CrossMap):
        """m2 o m, and the cross map of the sum triple: the composition
        identity says that they are equal."""
        comp = m2.realized.after(m.realized)
        return comp, cross_map(self.f, m.source, m2.target, m.triple + m2.triple)

    def composes(self, m, m2, m3) -> bool:
        """The composition identity, then class equality of the sum-triple
        map with m3 by the interchange identity."""
        comp, summed = self._composite(m, m2)
        return comp.maps_equal(summed.realized) and self.same(summed, m3)

    def invertibility(self, m: CrossMap, back: CrossMap, i, j):
        """"composite is power class" is the composition identity, and
        "composite is identity class" that the sum-triple map realizes
        f_E^c, whose class (f_E^c, c) is the identity."""
        comp, summed = self._composite(m, back)
        c = summed.shift
        ok1 = comp.maps_equal(summed.realized)
        ok2 = summed.realized.maps_equal(induced_power(self.f, m.source, c))
        checks = (
            Check("composite is power class",
                  f"phi({j}->{i}) o phi({i}->{j}) realizes f_E^{c}", ok1),
            Check("composite is identity class",
                  f"(f_E^{c}, {c}) ~ (id, 0) with witness n=0", ok2),
        )
        return ok1 and ok2, f"inverse class (phi({j}->{i}), {back.shift})", checks


# ---------------------------------------------------------------------------
# connecting morphisms and simple systems

def connecting_morphism(f, e, e2, bound=None):
    """The canonical morphism from f_E to f_E' in the Szymczak category.

    Finite carrier: an explicit based-endo morphism class.  Box carriers:
    the cross map, whose shift is the triple's c.  A Failure, a complete
    negative, when E or E' is not weakly compactifiable (decided exactly)
    or when a complete search shows E and E' are not related; raises
    Undecided when a bounded search is exhausted."""
    for which, sub in (("E", e), ("E'", e2)):
        if not is_weakly_compactifiable(f, sub):
            return Failure(f"{which} is not weakly compactifiable")
    search = find_admissible(f, e, e2, bound)
    if not search.found:
        if search.complete:
            return Failure("E and E' are not related: no admissible triple")
        raise Undecided("admissible-triple search exhausted", bound=search.bound)
    return _laws(f, (e, e2)).morphism(cross_map(f, e, e2, search.triple))


def same_class(f, e, e2, t: AdmissibleTriple, t2: AdmissibleTriple) -> bool:
    """Do the connecting maps of two admissible triples for (E, E') give one
    Szymczak class?  Representative independence says they must."""
    m1, m2 = cross_map(f, e, e2, t), cross_map(f, e, e2, t2)
    laws = _laws(f, (e, e2))
    return laws.same(laws.morphism(m1), laws.morphism(m2))


def verify_simple_system(f, s, subsets: Sequence, bound=None):
    """Check functor laws and invertibility over index neighbourhoods of S.

    Every subset must certify as an index neighbourhood of the same S.  The
    report carries, for each ordered pair, the connecting morphism with an
    invertibility witness and the composite-equals-power-class evidence.
    A failed law is reported (checks with ok=False), not raised; an
    exhausted triple search raises Undecided with its bound.
    """
    for e in subsets:
        cert = is_index_nbhd(f, e, s)
        if not cert:
            return cert

    laws = _laws(f, subsets)
    nbhds = tuple(laws.report(e) for e in subsets)
    n = range(len(subsets))
    triples: dict[tuple[int, int], AdmissibleTriple] = {}
    for i in n:
        for j in n:
            search = find_admissible(f, subsets[i], subsets[j], bound)
            if not search.found:
                raise Undecided("connecting-triple search exhausted",
                                bound=search.bound)
            triples[(i, j)] = search.triple
    ms = {(i, j): laws.morphism(cross_map(f, subsets[i], subsets[j], t))
          for (i, j), t in triples.items()}

    checks = [laws.identity(ms[(i, i)], i) for i in n]
    checks += [Check("composition law",
                     f"phi({j}->{k}) o phi({i}->{j}) = phi({i}->{k})",
                     laws.composes(ms[(i, j)], ms[(j, k)], ms[(i, k)]))
               for i in n for j in n for k in n]
    morphisms = tuple(
        MorphismReport(nbhds[i].label, nbhds[j].label, triples[(i, j)], m.shift,
                       *laws.invertibility(m, ms[(j, i)], i, j))
        for (i, j), m in ms.items() if i != j)
    return ConleyIndexReport(f.carrier_name, repr(s), nbhds, morphisms,
                             tuple(checks))


def conley_index(f, s, e, bound=None):
    """The Conley index datum of S read off one index neighbourhood E."""
    return verify_simple_system(f, s, [e], bound)
