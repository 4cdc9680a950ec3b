"""Reproducible verification suites behind `conley-kernel verify`.

Each suite is deterministic given its seed and returns a result object with
one line per group of checks; any counterexample fails the suite.  The same
functions back the pytest acceptance tests.

The brute-force oracles that the suites run live here and nowhere in the
kernel: the largest invariant subset by subset enumeration
(`brute_invariant_part`), which `dynamics.invariant_part_exact` is
checked against; and the Szymczak-category decisions by enumerating every
candidate table (`enumerate_equivariant_maps` walks all tables on the
non-base points and keeps the equivariant ones; `brute_sz_is_iso` tries
them as inverses, and `is_shift_witness` checks the kernel's witnesses)
and class equality by trying every exponent up to preperiod plus period of
the stepped power sequence (`oracle_sz_equal`), which the polynomial
deciders are checked against.  The oracles of the kernel's own algebra
(box sets, affine and finite maps, searches), the slower paths that its
canonical forms and walks replaced, are test code: they live in
`tests/kernel_oracles.py`, and the unit tests run them.
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
from .boxes import BoxSet, Cut, Interval, NEG_INF, POS_INF


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


def doubling_map() -> PiecewiseAffineMap:
    return PiecewiseAffineMap.affine_1d(2, 0)


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


@functools.lru_cache(maxsize=8192)
def enumerate_equivariant_maps(source: sz.BasedEndo, target: sz.BasedEndo
                               ) -> tuple[sz.EquivariantMap, ...]:
    """All equivariant maps source -> target: every table on the non-base
    points, in lexicographic order (target points in their order, on the
    non-base points in theirs), with the basepoint sent to the basepoint,
    kept when phi f = g phi.  Cached per ordered pair, which holds every
    pair of the exhaustive Szymczak sweep: the maps are shared."""
    f, g = source.apply, target.apply
    free = [p for p in source.points if p != source.base]
    maps = []
    for choice in itertools.product(target.points, repeat=len(free)):
        table = dict(zip(free, choice))
        table[source.base] = target.base
        if all(table[f(x)] == g(table[x]) for x in source.points):
            maps.append(sz.EquivariantMap.of(source, target, table))
    return tuple(maps)


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
# suites

def _laws_for_pair(res, f, e, e2, t):
    """The identity/power form on the diagonal, and equivariance at times 1
    and c: the cross map intertwines f_E^s and f_E'^s."""
    cm = dyn.cross_map(f, e, e2, t)
    if e == e2 and not cm.realized.maps_equal(dyn.induced_power(f, e, t.c)):
        res.fail(f"diagonal cross map is not the induced power: {t}")
    for s in {1, t.c}:
        lhs = cm.realized.after(dyn.induced_power(f, e, s))
        rhs = dyn.induced_power(f, e2, s).after(cm.realized)
        if not lhs.maps_equal(rhs):
            res.fail(f"equivariance at time {s} fails for {t}")


def _composition_laws(res, f, e, e2, e3, t, t2):
    if not dyn.triple_sum_law_check(f, e, e2, e3, t, t2):
        res.fail(f"sum triple not admissible: {t}, {t2}")
        return
    m1 = dyn.cross_map(f, e, e2, t)
    m2 = dyn.cross_map(f, e2, e3, t2)
    msum = dyn.cross_map(f, e, e3, t + t2)
    if not m2.realized.after(m1.realized).maps_equal(msum.realized):
        res.fail(f"composition identity fails: {t}, {t2}")


def _interchange_law(res, f, e, e2, t, t2):
    # callers pass c-inflated copies of admissible triples, which stay
    # admissible (the second inclusion is monotone in its depth)
    if not dyn.is_admissible(f, e, e2, t2):
        res.fail(f"inflated triple not admissible: {t2}")
        return
    m1 = dyn.cross_map(f, e, e2, t)
    m2 = dyn.cross_map(f, e, e2, t2)
    lhs = m1.realized.after(dyn.induced_power(f, e, t2.c))
    rhs = m2.realized.after(dyn.induced_power(f, e, t.c))
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
    cm = dyn.cross_map(f, e, e2, s.triple)
    fc, d = f.time_map(s.triple.c), cm.domain
    if not (d.subset_of(fc.domain) and fc.image(d).subset_of(e2)
            and fc.is_proper_on(d, e2)):
        res.fail(f"{f.carrier_name} cross map not proper: {f}, {e}, {e2}, {s.triple}")
    if not d.is_open_in(e):
        res.fail(f"{f.carrier_name} cross map not openly defined: {f}, {e}, {e2}, "
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
        res.note(f"{f.carrier_name} carrier: {count} weakly "
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
                got = dyn.invariant_part_exact(f, e)
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
        if dyn.invariant_part_exact(f, e) != brute_invariant_part(f, e):
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
SEEDED = frozenset({"thm-4-composition", "thm-4-properness",
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
