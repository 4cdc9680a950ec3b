"""Isolating and index neighbourhoods, and the Conley functor.

Written once for every carrier and both time domains: the finite and
interval carriers (times in N) and the semiflow carrier (times in R>=0)
differ only through their set and map types and the time domain of
:mod:`conley_kernel.carriers`.

Certificates are replayable: each records the named checks with their inputs
in printable form, so a third party can re-run every condition without
trusting the tool.  On the box carriers, index objects stay symbolic as
pairs (E, f_E); morphism-level laws are verified as exact partial-map
identities, never by materializing one-point compactifications.  On the
finite carrier they are explicit based endos in the Szymczak category.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import szymczak as sz
from .carriers import carrier_for
from .dynamics import (
    AdmissibleTriple, CrossMap, compactifiability_checks, cross_domain,
    cross_map, find_admissible, induced_power, is_weakly_compactifiable,
    one_point,
)
from .semiflow import Undecided


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
class IsolatingCertificate:
    subset: object
    invariant_set: object
    checks: tuple[Check, ...]

    def __bool__(self):
        return True


@dataclass(frozen=True)
class IndexNbhdCertificate:
    isolating: IsolatingCertificate
    compactifiability: tuple[Check, ...]

    @property
    def subset(self):
        return self.isolating.subset

    @property
    def invariant_set(self):
        return self.isolating.invariant_set

    @property
    def checks(self) -> tuple[Check, ...]:
        return self.isolating.checks + self.compactifiability

    def __bool__(self):
        return True


def is_isolating(f, e, s, cap: int | None = None):
    """IsolatingCertificate or a named Failure; on box carriers raises
    Undecided when S's invariance or the invariant part is undecided."""
    ca = carrier_for(f)
    ca.check_invariant(f, s)
    f.check_set(e)

    checks = []
    nbhd = s.subset_of(ca.interior(f, e))
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

    inv = ca.invariant_part(f, clo, cap)
    isolate = inv == s
    checks.append(Check("invariant part", f"I(closure(E))={inv!r} equals S={s!r}",
                        isolate))
    if not isolate:
        return Failure("invariant part of closure(E) differs from S", tuple(checks))

    checks.append(Check("S compact", f"S={s!r} compact", s.is_compact()))
    return IsolatingCertificate(e, s, tuple(checks))


def is_index_nbhd(f, e, s, cap: int | None = None):
    iso = is_isolating(f, e, s, cap)
    if not isinstance(iso, IsolatingCertificate):
        return iso
    raw = compactifiability_checks(f, e)
    cchecks = tuple(Check(name, f"E={e!r}", ok) for name, ok in raw)
    if not all(c.ok for c in cchecks):
        bad = ", ".join(c.name for c in cchecks if not c.ok)
        return Failure(f"E is not compactifiable: {bad}", iso.checks + cchecks)
    return IndexNbhdCertificate(iso, cchecks)


# ---------------------------------------------------------------------------
# construction of index neighbourhoods (following the existence proof)

@dataclass(frozen=True)
class ConstructedNbhd:
    subset: object
    certificate: IndexNbhdCertificate
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
    clip = carrier_for(f).name == "semiflow"
    delta = Fraction(1)
    for _ in range(SEED_HALVINGS):
        cand = s.inflate(delta, closed=True)
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
    ca = carrier_for(f)
    iso = is_isolating(f, n, s)
    if not isinstance(iso, IsolatingCertificate):
        return iso

    k = _compact_isolating_seed(f, s, n)
    u = ca.interior(f, k)

    search = find_admissible(f, k, u, bound)
    if not search.found:
        if search.complete:
            return Failure("no admissible triple for (K, interior K); "
                           "N cannot be isolating")
        raise Undecided("admissible-triple search exhausted", bound=search.bound)
    t = search.triple

    e2 = cross_domain(f, k, u, t)
    cert = is_index_nbhd(f, e2, s)
    if not isinstance(cert, IndexNbhdCertificate):
        return cert

    checks = [Check("E'' inside seed", f"E''={e2!r} contained in K={k!r}",
                    e2.subset_of(k))]
    depth = t.b + t.c - t.a
    checks.append(Check("seed absorbed into E''",
                        f"D_{depth}(K) contained in E''",
                        ca.dom(f, k, depth).subset_of(e2)))
    if not all(c.ok for c in checks):
        return Failure("constructed set fails its absorption witnesses",
                       tuple(checks))
    return ConstructedNbhd(e2, cert, t, k, tuple(checks))


# ---------------------------------------------------------------------------
# connecting morphisms

@dataclass(frozen=True)
class SymbolicSzMorphism:
    """Interval-carrier morphism datum: a connecting map plus its shift."""

    cross: CrossMap
    shift: object

    @property
    def source(self):
        return self.cross.source

    @property
    def target(self):
        return self.cross.target


def connecting_morphism(f, e, e2, bound=None):
    """The canonical morphism from f_E to f_E' in the Szymczak category.

    Finite carrier: an explicit based-endo morphism class.  Box carriers:
    the symbolic pair (connecting map, shift).  A Failure, a complete
    negative, when E or E' is not weakly compactifiable (decided exactly)
    or when a complete search shows E and E' are not related; raises
    Undecided when a bounded search is exhausted."""
    ca = carrier_for(f)
    for which, sub in (("E", e), ("E'", e2)):
        if not is_weakly_compactifiable(f, sub):
            return Failure(f"{which} is not weakly compactifiable")
    search = find_admissible(f, e, e2, bound)
    if not search.found:
        if search.complete:
            return Failure("E and E' are not related: no admissible triple")
        raise Undecided("admissible-triple search exhausted", bound=search.bound)
    cm = cross_map(f, e, e2, search.triple)
    if ca.name == "finite":
        return _finite_sz_morphism(cm, one_point(f, e), one_point(f, e2))
    return SymbolicSzMorphism(cm, search.triple.c)


def same_class(f, e, e2, t: AdmissibleTriple, t2: AdmissibleTriple) -> bool:
    """Do the connecting maps of two admissible triples for (E, E') give one
    Szymczak class?  Representative independence says they must."""
    m1, m2 = cross_map(f, e, e2, t), cross_map(f, e, e2, t2)
    if carrier_for(f).name == "finite":
        src, tgt = one_point(f, e), one_point(f, e2)
        return sz.sz_equal(_finite_sz_morphism(m1, src, tgt),
                           _finite_sz_morphism(m2, src, tgt))
    return _interchange_ok(f, e, m1, m2)


def _interchange_ok(f, e, m1: CrossMap, m2: CrossMap) -> bool:
    """Class equality of two connecting maps from E by the interchange
    identity m1 o f_E^{c2} = m2 o f_E^{c1} (witness n = 0), exactly."""
    ca = carrier_for(f)
    lhs = ca.compose(m1.realized, induced_power(f, e, m2.triple.c))
    rhs = ca.compose(m2.realized, induced_power(f, e, m1.triple.c))
    return lhs.maps_equal(rhs)


def _finite_sz_morphism(cm: CrossMap, src: sz.BasedEndo,
                        tgt: sz.BasedEndo) -> sz.SzMorphism:
    """The class of cm between the one-point endos of its source and target."""
    table = {}
    for x in cm.source.ordered():
        y = cm.realized.table.get(x)
        table[x] = y if y is not None else tgt.base
    table[src.base] = tgt.base
    phi = sz.EquivariantMap.of(src, tgt, table)
    return sz.SzMorphism(phi, cm.triple.c)


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


def _report_nbhd(e, endo: sz.BasedEndo | None) -> NbhdReport:
    """The report of E, with its one-point endo on the finite carrier."""
    if endo is not None:
        return NbhdReport(repr(e), repr(endo), sz.canonical_invariant(endo))
    return NbhdReport(repr(e), f"(E={e!r}, f_E)", None)


def verify_simple_system(f, s, subsets: Sequence, bound=None):
    """Check functor laws and invertibility over index neighbourhoods of S.

    Every subset must certify as an index neighbourhood of the same S.  The
    report carries, for each ordered pair, the connecting morphism with an
    invertibility witness and the composite-equals-power-class evidence.
    A failed law is reported (checks with ok=False), not raised; an
    exhausted triple search raises Undecided with its bound.
    """
    ca = carrier_for(f)
    for e in subsets:
        cert = is_index_nbhd(f, e, s)
        if not isinstance(cert, IndexNbhdCertificate):
            return cert

    finite = ca.name == "finite"
    endos = [one_point(f, e) if finite else None for e in subsets]
    nbhds = tuple(_report_nbhd(e, endo) for e, endo in zip(subsets, endos))
    global_checks: list[Check] = []
    morphisms: list[MorphismReport] = []

    triples: dict[tuple[int, int], AdmissibleTriple] = {}
    for i, e in enumerate(subsets):
        for j, e2 in enumerate(subsets):
            search = find_admissible(f, e, e2, bound)
            if not search.found:
                raise Undecided("connecting-triple search exhausted",
                                bound=search.bound)
            triples[(i, j)] = search.triple

    if finite:
        ms = {(i, j): _finite_sz_morphism(
                  cross_map(f, subsets[i], subsets[j], triples[(i, j)]),
                  endos[i], endos[j])
              for i in range(len(subsets)) for j in range(len(subsets))}
        for i in range(len(subsets)):
            ok = sz.sz_equal(ms[(i, i)], sz.identity_morphism(endos[i]))
            global_checks.append(Check("identity law",
                                       f"phi_EE = id for E#{i}", ok))
        for i in range(len(subsets)):
            for j in range(len(subsets)):
                for k in range(len(subsets)):
                    ok = sz.sz_equal(sz.sz_compose(ms[(i, j)], ms[(j, k)]),
                                     ms[(i, k)])
                    global_checks.append(Check(
                        "composition law", f"phi({j}->{k}) o phi({i}->{j}) "
                        f"= phi({i}->{k})", ok))
        for i in range(len(subsets)):
            for j in range(len(subsets)):
                if i == j:
                    continue
                m, back = ms[(i, j)], ms[(j, i)]
                inv = _inverse_class(m)
                comp = sz.sz_compose(m, back)
                total = m.shift + back.shift
                power_class = sz.SzMorphism(
                    sz.endo_shift_morphism(endos[i], total).phi, total)
                checks = (
                    Check("composite is power class",
                          f"phi({j}->{i}) o phi({i}->{j}) ~ (f_E^{total}, {total})",
                          sz.sz_equal(comp, power_class)),
                    Check("composite is identity class",
                          "the power class is the identity in Sz",
                          sz.sz_equal(comp, sz.identity_morphism(endos[i]))),
                )
                morphisms.append(MorphismReport(
                    nbhds[i].label, nbhds[j].label, triples[(i, j)], m.shift,
                    inv is not None, repr(inv), checks))
    else:
        crosses = {(i, j): cross_map(f, subsets[i], subsets[j], triples[(i, j)])
                   for i in range(len(subsets)) for j in range(len(subsets))}
        for i, e in enumerate(subsets):
            ok = crosses[(i, i)].realized.maps_equal(
                induced_power(f, e, triples[(i, i)].c))
            global_checks.append(Check("identity/power law",
                                       f"phi_EE realizes f_E^c for E#{i}", ok))
        for i in range(len(subsets)):
            for j in range(len(subsets)):
                for k in range(len(subsets)):
                    ok = _symbolic_composition_ok(
                        f, subsets, crosses, triples, i, j, k)
                    global_checks.append(Check(
                        "composition law", f"phi({j}->{k}) o phi({i}->{j}) "
                        f"= phi({i}->{k})", ok))
        for i in range(len(subsets)):
            for j in range(len(subsets)):
                if i == j:
                    continue
                checks, invertible, witness = _symbolic_invertibility(
                    f, subsets, crosses, triples, i, j)
                morphisms.append(MorphismReport(
                    nbhds[i].label, nbhds[j].label, triples[(i, j)],
                    triples[(i, j)].c, invertible, witness, checks))

    return ConleyIndexReport(ca.name, repr(s), nbhds, tuple(morphisms),
                             tuple(global_checks))


def _inverse_class(m: sz.SzMorphism) -> sz.SzMorphism | None:
    """The inverse of m = [phi, k] from a shift equivalence (psi, a) of phi:
    [psi, l] with l = (a - k) mod lcm(q_f, q_g), kept only after sz_equal
    confirms that both composites are identity classes."""
    wit = sz.is_shift_equivalence(m.phi)
    if wit is None:
        return None
    f, g = m.source, m.target
    period = math.lcm(f.power_bounds[1], g.power_bounds[1])
    inv = sz.SzMorphism(wit.psi, (wit.exponent - m.shift) % period)
    if sz.sz_equal(sz.sz_compose(m, inv), sz.identity_morphism(f)) and \
            sz.sz_equal(sz.sz_compose(inv, m), sz.identity_morphism(g)):
        return inv
    return None


def _symbolic_composition_ok(f, subsets, crosses, triples, i, j, k) -> bool:
    """phi(j->k) o phi(i->j) = phi(i->k) as Szymczak classes, exactly.

    First the composite is identified with the sum-triple connecting map
    (the composition identity), then the class equality against the found
    (i->k) triple is certified by the interchange identity with witness
    n = 0; both are exact partial-map comparisons."""
    ca = carrier_for(f)
    comp = ca.compose(crosses[(j, k)].realized, crosses[(i, j)].realized)
    t_sum = triples[(i, j)] + triples[(j, k)]
    summed = cross_map(f, subsets[i], subsets[k], t_sum)
    return comp.maps_equal(summed.realized) and \
        _interchange_ok(f, subsets[i], summed, crosses[(i, k)])


def _symbolic_invertibility(f, subsets, crosses, triples, i, j):
    """Invertibility of phi(i->j) via the power-class composite identity.

    Each check reports its own evidence: "composite is power class" the
    composition identity (the composite equals the connecting map of the
    sum triple), "composite is identity class" that this map realizes
    f_E^c, whose class (f_E^c, c) is the identity."""
    ca = carrier_for(f)
    comp = ca.compose(crosses[(j, i)].realized, crosses[(i, j)].realized)
    t_sum = triples[(i, j)] + triples[(j, i)]
    summed = cross_map(f, subsets[i], subsets[i], t_sum)
    ok1 = comp.maps_equal(summed.realized)
    power_map = induced_power(f, subsets[i], t_sum.c)
    ok2 = summed.realized.maps_equal(power_map)
    checks = (
        Check("composite is power class",
              f"phi({j}->{i}) o phi({i}->{j}) realizes f_E^{t_sum.c}", ok1),
        Check("composite is identity class",
              f"(f_E^{t_sum.c}, {t_sum.c}) ~ (id, 0) with witness n=0", ok2),
    )
    witness = f"inverse class (phi({j}->{i}), {triples[(j, i)].c})"
    return checks, ok1 and ok2, witness


def conley_index(f, s, e, bound=None):
    """The Conley index datum of S read off one index neighbourhood E."""
    return verify_simple_system(f, s, [e], bound)
