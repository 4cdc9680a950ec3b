"""The endomorphism category and Szymczak category over finite based endos.

Objects are total self-maps of finite based sets fixing the basepoint, held
as the one finite map of :mod:`conley_kernel.finite`: a based endo is a
total FinitePartialMap with the index of its basepoint, an equivariant map
the tuple of its target indices per source point.  Morphism equality,
composition, the localizing functor Q, and shift equivalence are decided
exactly on these index tuples and the map's cached orbit walk (tails and
cycles), so negative answers are complete, not timeouts; names
(``points``, ``base``, ``table``, ``cycles``, ``power_table``, the reprs)
are views for output and the oracles.  The bounds come from the preperiod
p, at most the number of points: class equality is one comparison at
n = p, and f^n, inherited from the finite map, is f^p moved along the
cycles past p.  The period (the lcm of the cycle lengths, which can be
exponential) bounds no loop and sizes no table.

Shift equivalence is decided in polynomial time by the eventual-image
rule: phi is a shift equivalence iff it maps the eventual image of f
bijectively onto that of g.  The brute-force searches over all candidate
tables live in :mod:`conley_kernel.suites` as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .finite import FinitePartialMap, FiniteSpace

BASEPOINT = "*"


@dataclass(frozen=True)
class BasedEndo(FinitePartialMap):
    """A total self-map on a finite based set, fixing the basepoint: a total
    :class:`~conley_kernel.finite.FinitePartialMap` and the index of its
    basepoint.  It never equals a plain map with the same targets."""

    base_index: int

    def __post_init__(self):
        n = len(self.space.points)
        if not 0 <= self.base_index < n:
            raise ValueError("basepoint missing")
        if len(self.targets) != n or not 0 <= min(self.targets) <= \
                max(self.targets) < n:
            raise ValueError("map must be total, with values in the space")
        if self.targets[self.base_index] != self.base_index:
            raise ValueError("basepoint must be fixed")

    @staticmethod
    def of(points: Iterable[str], table: Mapping[str, str],
           base: str = BASEPOINT) -> "BasedEndo":
        space = FiniteSpace.of(points)
        return BasedEndo(space, FinitePartialMap.of(space, table).targets,
                         space.index.get(base, -1))

    @property
    def points(self) -> tuple[str, ...]:
        return self.space.points

    @property
    def base(self) -> str:
        return self.space.points[self.base_index]

    @cached_property
    def cycles(self) -> tuple[tuple[str, ...], ...]:
        """The cycles of f, each in f order; they partition the eventual image.
        The order of the cycles and the first point of each are left free."""
        pts = self.points
        return tuple(tuple(pts[i] for i in c) for c in self._orbits[1])

    @cached_property
    def eventual_image(self) -> tuple[str, ...]:
        """The points on cycles (step count 0; f is total), in `points` order."""
        return tuple(p for p, k in zip(self.points, self._orbits[0]) if k == 0)

    def power_table(self, n: int) -> dict:
        if n < 0:
            raise ValueError("negative power")
        pts = self.points
        return dict(zip(pts, map(pts.__getitem__, self._power(n))))

    def __repr__(self):
        return "Endo" + super().__repr__()


@dataclass(frozen=True)
class EquivariantMap:
    """A based map phi with phi f = g phi, as a morphism f -> g: the index
    in ``target.points`` of phi(x), per point index x of the source."""

    source: BasedEndo
    target: BasedEndo
    values: tuple[int, ...]

    def __post_init__(self):
        phi, f, g = self.values, self.source, self.target
        if len(phi) != len(f.targets) or min(phi) < 0 or \
                max(phi) >= len(g.targets):
            raise ValueError("map must send every source point into the target")
        if phi[f.base_index] != g.base_index:
            raise ValueError("basepoint must map to basepoint")
        if tuple(map(phi.__getitem__, f.targets)) != \
                tuple(map(g.targets.__getitem__, phi)):
            raise ValueError("map is not equivariant")

    @staticmethod
    def of(source: BasedEndo, target: BasedEndo,
           table: Mapping[str, str]) -> "EquivariantMap":
        index = target.space.index
        try:
            values = tuple(index[table[p]] for p in source.points)
        except (KeyError, TypeError):      # missing, unknown or unhashable
            raise ValueError(
                "map must send every source point into the target") from None
        return EquivariantMap(source, target, values)

    @staticmethod
    def identity(e: BasedEndo) -> "EquivariantMap":
        return EquivariantMap(e, e, e._power(0))

    @staticmethod
    def endo_as_self_map(e: BasedEndo) -> "EquivariantMap":
        return EquivariantMap(e, e, e.targets)

    @cached_property
    def table(self) -> dict:
        return dict(zip(self.source.points,
                        map(self.target.points.__getitem__, self.values)))

    def then(self, other: "EquivariantMap") -> "EquivariantMap":
        if self.target != other.source:
            raise ValueError("maps are not composable")
        return EquivariantMap(self.source, other.target,
                              tuple(map(other.values.__getitem__, self.values)))

    def __repr__(self):
        base = self.source.base
        return "Equiv{" + ", ".join(
            f"{x}->{y}" for x, y in self.table.items() if x != base) + "}"


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
    return Q(EquivariantMap(e, e, e._power(n)))


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
    return tuple(map(m.phi.values.__getitem__, left)) == \
        tuple(map(m2.phi.values.__getitem__, right))


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
    as in `f.points` (by index): the first table an enumeration of all
    tables meets.

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
    src = [x for c in f._orbits[1] for x in c]
    dst = {y for c in g._orbits[1] for y in c}
    if len(src) != len(dst) or {phi.values[x] for x in src} != dst:
        return None
    for a in range(max(f.power_bounds[0], g.power_bounds[0]) + 1):
        psi = _least_partner(phi, f._power(a), g._power(a))
        if psi is not None:
            return ShiftEquivalenceWitness(EquivariantMap(g, f, psi), a)
    return None


def _least_partner(phi: EquivariantMap, fa: tuple, ga: tuple) -> tuple | None:
    """The least psi (its values) of a witness at the exponent a of the
    targets fa of f^a and ga of g^a, or None."""
    f, g = phi.source, phi.target
    lists = [{x for x, v in enumerate(phi.values) if v == t} for t in ga]
    forced = {g.base_index: f.base_index}
    for v, t in zip(phi.values, fa):
        if forced.setdefault(v, t) != t:
            return None
    for y, x in forced.items():
        lists[y] &= {x}
    # f^k x = x iff x lies on an f-cycle whose length divides k
    period = {x: len(c) for c in f._orbits[1] for x in c}
    for cycle in g._orbits[1]:
        for y in cycle:
            lists[y] = {x for x in lists[y]
                        if x in period and len(cycle) % period[x] == 0}
    if not _prune(f.targets, g.targets, lists):
        return None
    for y in range(len(lists)):
        if len(lists[y]) > 1:
            lists[y] = {min(lists[y])}
            _prune(f.targets, g.targets, lists)
    return tuple(next(iter(xs)) for xs in lists)


def _prune(f: tuple, g: tuple, lists: list) -> bool:
    """Make the lists arc consistent for psi(g y) = f(psi y), in place, f
    and g given by their targets: every entry at y has its f-image at g y,
    and every entry at g y is the f-image of some entry at y.  False if a
    list becomes empty."""
    changed = True
    while changed:
        changed = False
        for y, z in enumerate(g):
            here = {x for x in lists[y] if f[x] in lists[z]}
            if here != lists[y]:
                lists[y] = here
                changed = True
            there = lists[z] & {f[x] for x in here}
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
    steps, cycles = e._orbits
    return steps.count(0), tuple(sorted(map(len, cycles)))
