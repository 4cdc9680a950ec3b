"""The endomorphism category and Szymczak category over finite based endos.

Objects are total self-maps of finite based sets fixing the basepoint.
Morphism equality, composition, the localizing functor Q, and shift
equivalence are all decided exactly, from the orbit structure of each endo
(its tails and cycles, found in one walk), so negative answers are
complete, not timeouts.  The bounds come from the preperiod p, at most the
number of points: class equality is one comparison at n = p, and f^n for
n > p is f^p moved along the cycles.  The period (the lcm of the cycle
lengths, which can be exponential) bounds no loop and sizes no table.

Shift equivalence is decided in polynomial time by the eventual-image
rule: phi is a shift equivalence iff it maps the eventual image of f
bijectively onto that of g.  The brute-force searches over all candidate
tables live in :mod:`conley_kernel.suites` as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .finite import orbits, preperiod_period

BASEPOINT = "*"


@dataclass(frozen=True)
class BasedEndo:
    """A total self-map on a finite based set, fixing the basepoint."""

    points: tuple[str, ...]
    base: str
    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        pts = set(self.points)
        if len(pts) != len(self.points):
            raise ValueError("duplicate points")
        if self.base not in pts:
            raise ValueError("basepoint missing")
        if {x for x, _ in self.pairs} != pts:
            raise ValueError("map must be total")
        if any(y not in pts for _, y in self.pairs):
            raise ValueError("value outside the space")
        if dict(self.pairs)[self.base] != self.base:
            raise ValueError("basepoint must be fixed")

    @staticmethod
    def of(points: Iterable[str], table: Mapping[str, str],
           base: str = BASEPOINT) -> "BasedEndo":
        pts = tuple(str(p) for p in points)
        pairs = tuple((p, str(table[p])) for p in pts)
        return BasedEndo(pts, base, pairs)

    @cached_property
    def table(self) -> dict:
        return dict(self.pairs)

    def apply(self, x: str) -> str:
        return self.table[x]

    @cached_property
    def _orbits(self) -> tuple[list[int], list[tuple[int, ...]]]:
        """:func:`conley_kernel.finite.orbits` of f on point indices."""
        index = {p: i for i, p in enumerate(self.points)}
        return orbits([index[self.table[x]] for x in self.points])

    @cached_property
    def cycles(self) -> tuple[tuple[str, ...], ...]:
        """The cycles of f, each in f order; they partition the eventual image.
        The order of the cycles and the first point of each are left free."""
        return tuple(tuple(self.points[i] for i in c) for c in self._orbits[1])

    @cached_property
    def eventual_image(self) -> tuple[str, ...]:
        """The points on cycles (step count 0; f is total), in `points` order."""
        return tuple(p for p, k in zip(self.points, self._orbits[0]) if k == 0)

    @cached_property
    def power_bounds(self) -> tuple[int, int]:
        """(preperiod, period) of the power sequence id, f, f^2, ...: the
        least p and q >= 1 with f^p = f^(p+q), read off the orbit walk by
        :func:`conley_kernel.finite.preperiod_period`."""
        return preperiod_period(*self._orbits)

    @cached_property
    def _tables(self) -> dict:
        """The memo of :meth:`_power`, keyed by the reduced exponent, with
        f^0..f^p built by steps: p is at most |X|."""
        tables = {0: {x: x for x in self.points}}
        for k in range(1, self.power_bounds[0] + 1):
            tables[k] = {x: self.table[v] for x, v in tables[k - 1].items()}
        return tables

    def _power(self, n: int) -> dict:
        """The shared table of f^n, with n > p reduced to p + (n - p) mod q.

        f^p maps X onto the eventual image, whose cycles f turns, so f^n is
        f^p moved n - p places along the cycle each point lands on: no
        table is built per unit of the period q."""
        p, q = self.power_bounds
        if n > p:
            n = p + (n - p) % q
        tables = self._tables
        if n not in tables:
            d = n - p
            moved = {y: c[(i + d) % len(c)]
                     for c in self.cycles for i, y in enumerate(c)}
            tables[n] = {x: moved[v] for x, v in tables[p].items()}
        return tables[n]

    def power_table(self, n: int) -> dict:
        if n < 0:
            raise ValueError("negative power")
        return dict(self._power(n))

    def __repr__(self):
        return "Endo{" + ", ".join(f"{x}->{y}" for x, y in self.pairs) + "}"


@dataclass(frozen=True)
class EquivariantMap:
    """A based map phi with phi f = g phi, as a morphism f -> g."""

    source: BasedEndo
    target: BasedEndo
    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        t = dict(self.pairs)
        if set(t) != set(self.source.points):
            raise ValueError("map must be total on the source")
        if any(v not in set(self.target.points) for v in t.values()):
            raise ValueError("value outside the target")
        if t[self.source.base] != self.target.base:
            raise ValueError("basepoint must map to basepoint")
        for x in self.source.points:
            if t[self.source.apply(x)] != self.target.apply(t[x]):
                raise ValueError("map is not equivariant")

    @staticmethod
    def of(source: BasedEndo, target: BasedEndo,
           table: Mapping[str, str]) -> "EquivariantMap":
        pairs = tuple((p, str(table[p])) for p in source.points)
        return EquivariantMap(source, target, pairs)

    @staticmethod
    def identity(e: BasedEndo) -> "EquivariantMap":
        return EquivariantMap.of(e, e, e._power(0))

    @staticmethod
    def endo_as_self_map(e: BasedEndo) -> "EquivariantMap":
        return EquivariantMap.of(e, e, e.table)

    @cached_property
    def table(self) -> dict:
        return dict(self.pairs)

    def then(self, other: "EquivariantMap") -> "EquivariantMap":
        if self.target != other.source:
            raise ValueError("maps are not composable")
        return EquivariantMap.of(
            self.source, other.target,
            {x: other.table[self.table[x]] for x in self.source.points})

    def __repr__(self):
        body = ", ".join(f"{x}->{y}" for x, y in self.pairs if x != self.source.base)
        return "Equiv{" + body + "}"


@dataclass(frozen=True)
class SzMorphism:
    """A morphism of the Szymczak category: the class of (phi, k).

    The stored pair is one representative; equality of morphisms is decided
    by :func:`sz_equal`, never by comparing representatives.
    """

    phi: EquivariantMap
    shift: int

    def __post_init__(self):
        if self.shift < 0:
            raise ValueError("shift must be a natural number")

    @property
    def source(self) -> BasedEndo:
        return self.phi.source

    @property
    def target(self) -> BasedEndo:
        return self.phi.target

    def __repr__(self):
        return f"[{self.phi!r}, {self.shift}]"


def Q(phi: EquivariantMap) -> SzMorphism:
    return SzMorphism(phi, 0)


def identity_morphism(e: BasedEndo) -> SzMorphism:
    return Q(EquivariantMap.identity(e))


def endo_shift_morphism(e: BasedEndo, n: int = 1) -> SzMorphism:
    """The class of (f^n, 0), i.e. Q(f-hat)^n."""
    return Q(EquivariantMap.of(e, e, e._power(n)))


def sz_equal(m: SzMorphism, m2: SzMorphism) -> bool:
    """Decide (phi, k) ~ (phi', k'): some n with phi f^(k'+n) = phi' f^(k+n).

    One comparison, at n = p, the preperiod of f, decides.  A witness n is
    a witness for n + 1 (compose both sides with f on the right), so a
    witness exists iff one exists at some n >= p.  From p on the test does
    not depend on n: f^p maps X onto the eventual image Y, on which f is a
    bijection s, so f^(k+n) = s^(k+n-p) f^p, and the test reads
    phi s^(k'+n-p) = phi' s^(k+n-p) on Y; as s^(n-p) is onto Y, that is
    phi s^k' = phi' s^k on Y, whatever n >= p.
    """
    if m.source != m2.source or m.target != m2.target:
        raise ValueError("morphisms must be parallel")
    f = m.source
    p = f.power_bounds[0]
    left, right = f._power(m2.shift + p), f._power(m.shift + p)
    phi, phi2 = m.phi.table, m2.phi.table
    return all(phi[left[x]] == phi2[right[x]] for x in f.points)


def sz_compose(m: SzMorphism, m2: SzMorphism) -> SzMorphism:
    """m2 after m: class of (psi phi, k + l)."""
    if m.target != m2.source:
        raise ValueError("morphisms are not composable")
    return SzMorphism(m.phi.then(m2.phi), m.shift + m2.shift)


@dataclass(frozen=True)
class ShiftEquivalenceWitness:
    psi: EquivariantMap
    exponent: int


def is_shift_equivalence(phi: EquivariantMap) -> ShiftEquivalenceWitness | None:
    """The least exponent a, with the least table psi: g -> f, such that
    psi phi = f^a and phi psi = g^a; None if there is none.

    "Least psi" is lexicographic in the values on `g.points`, each ordered
    as in `f.points`: the first table an enumeration of all tables meets.

    Rule (Franks-Richeson 2000; Szymczak 1995): phi is a shift equivalence
    iff it maps the eventual image of f bijectively onto that of g.

    Proof sketch.  Equivariance gives phi(Im f^n) <= Im g^n, so phi maps
    Im-inf f into Im-inf g, and psi maps back likewise.  If (psi, a) is a
    witness, f^a = psi phi is bijective on Im-inf f, so phi is injective
    there, and g^a = phi psi is onto Im-inf g with psi(Im-inf g) <= Im-inf f,
    so phi is onto: the "only if" is complete.  Conversely, let a be the
    larger index at which the images of f^n and g^n stop shrinking and set
    psi = (phi restricted to Im-inf f)^-1 g^a.  Then phi psi = g^a; psi phi
    = f^a because f^a(x) lies in Im-inf f and phi f^a = g^a phi; psi is
    equivariant because f maps Im-inf f into itself and phi f = g phi.
    Images stop shrinking by the preperiod, so a <= max(p_f, p_g), and the
    loop below always succeeds by then.  It therefore runs at most
    max(|f|, |g|) rounds, each polynomial in the point counts; nothing
    here walks the power sequence, whose period (the lcm of the cycle
    lengths) can be exponential.

    For each a the witness conditions are a constraint problem on psi:
    unary lists D(y) (phi psi y = g^a y; psi(phi x) = f^a x; the basepoint
    to the basepoint; on a g-cycle of length k only x with f^k x = x) and
    psi(g y) = f(psi y) along every edge y -> g y.  The edges form the
    functional graph of g, so once the lists are arc consistent and
    non-empty any entry extends to a full psi: follow g forward from it to
    a cycle, which the f^k x = x filter closes up, then fill the trees
    hanging off each cycle backward.  Fixing psi greedily in `g.points`
    order, re-pruning after each choice, gives the least table.
    """
    f, g = phi.source, phi.target
    src = f.eventual_image
    if len(src) != len(g.eventual_image) or \
            {phi.table[x] for x in src} != set(g.eventual_image):
        return None
    for a in range(max(f.power_bounds[0], g.power_bounds[0]) + 1):
        psi = _least_partner(phi, f._power(a), g._power(a))
        if psi is not None:
            return ShiftEquivalenceWitness(EquivariantMap.of(g, f, psi), a)
    return None


def _least_partner(phi: EquivariantMap, fa: dict, ga: dict) -> dict | None:
    """The least psi table of a witness at the exponent a of the tables
    fa = f^a and ga = g^a, or None."""
    f, g = phi.source, phi.target
    lists = {y: {x for x in f.points if phi.table[x] == ga[y]}
             for y in g.points}
    forced: dict[str, str] = {g.base: f.base}
    for x in f.points:
        if forced.setdefault(phi.table[x], fa[x]) != fa[x]:
            return None
    for y, x in forced.items():
        lists[y] &= {x}
    # f^k x = x iff x lies on an f-cycle whose length divides k
    period = {x: len(c) for c in f.cycles for x in c}
    for cycle in g.cycles:
        for y in cycle:
            lists[y] = {x for x in lists[y]
                        if x in period and len(cycle) % period[x] == 0}
    if not _prune(f, g, lists):
        return None
    rank = {x: i for i, x in enumerate(f.points)}
    for y in g.points:
        if len(lists[y]) > 1:
            lists[y] = {min(lists[y], key=rank.__getitem__)}
            _prune(f, g, lists)
    return {y: next(iter(lists[y])) for y in g.points}


def _prune(f: BasedEndo, g: BasedEndo, lists: dict) -> bool:
    """Make the lists arc consistent for psi(g y) = f(psi y), in place:
    every entry at y has its f-image at g y, and every entry at g y is the
    f-image of some entry at y.  False if a list becomes empty."""
    changed = True
    while changed:
        changed = False
        for y in g.points:
            z = g.table[y]
            here = {x for x in lists[y] if f.table[x] in lists[z]}
            if here != lists[y]:
                lists[y] = here
                changed = True
            there = lists[z] & {f.table[x] for x in here}
            if there != lists[z]:
                lists[z] = there
                changed = True
            if not here or not there:
                return False
    return True


def canonical_invariant(e: BasedEndo) -> tuple[int, tuple[int, ...]]:
    """(eventual image size, sorted cycle lengths of the induced bijection).

    A complete invariant of the shift-equivalence class, hence of the
    isomorphism class in the Szymczak category.  A shift equivalence maps
    the eventual images bijectively and conjugates the two bijections (see
    :func:`is_shift_equivalence`), so shift-equivalent endos agree.  If two
    endos agree, a conjugacy h of the bijections, basepoint to basepoint,
    gives phi = h f^p with p the preperiod of f: phi is equivariant and
    bijective on eventual images, hence a shift equivalence.
    """
    return len(e.eventual_image), tuple(sorted(len(c) for c in e.cycles))
