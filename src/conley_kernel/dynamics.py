"""Carrier-generic dynamics in discrete and continuous time.

Induced partial maps, iterated-domain sets, admissible triples and their
connecting maps, the absorption relation between subsets, compactifiability
predicates, invariant parts, and one-point compactification.  Sets and maps
carry their own algebra, and each system is its own time domain (see
:mod:`conley_kernel.carriers`), so the finite and interval carriers (times
in N) and the semiflow carrier (times in R>=0) share one code path: a
search runs over the times of the system's ``search_context``, and
``f.dom(E, t)``, ``f.preimage_n(A, t)`` and ``f.time_map(t)`` are D_t(E),
f^-t(A) and f^t, memoized on the system.

On the finite carrier every negative search answer is complete: the bounds
come from eventual periodicity of the power sequence and stabilization of
the iterated-domain sets.  On the interval and semiflow carriers exhausted
searches are reported as undecided, never as negatives.

On the finite carrier two subset tests decide whether a triple exists.
Let p be the preperiod of f (f^p = f^(p+q)) and s the stabilization index
of D_n(E).  Then D_s(E) is the set of points whose whole forward orbit
stays in E, and for n >= p, f^n maps it onto Inv(E), the cycles of f
inside E: each such orbit has run into its cycle by step p, that cycle
lies in the orbit and so in E, and f^n maps every cycle onto itself.  So
for a >= max(p, s) and b >= a the test D_b(E) <= f^-a(E') reads Inv(E) <=
E', whatever a and b are, and the same holds for the second test of a
triple past the preperiod and D(E')'s stabilization.  Hence a triple
exists iff Inv(E) <= E' and Inv(E') <= E, and a forward (backward) pair of
:func:`sim_f` exists iff the first (second) of them holds.  Necessity:
Inv(E) lies in every D_b(E) and f^a maps it onto itself, so D_b(E) <=
f^-a(E') gives Inv(E) = f^a(Inv(E)) <= E'.  Sufficiency: with s1, s2 the
stabilization indices of D(E) and D(E'), (max(p, s1), max(p, s1)) is a
forward pair, (max(p, s2), max(p, s2)) a backward one, and (a, a + d, a +
d) with a = max(p, s1), d = max(p, s2) is a triple whose c lies within
the derived bound.

A complete search context reads the two tests off the map's
``invariant_part`` as ``possible`` and then only looks for the least
witness, with the loop of a bounded search.  D_b(E) does not change past s1
(D_gamma(E') past s2), so a gallop over b (gamma) ends at ``last``, one
past max(i, s1) (max(i, s2)) for a range that starts at index i.  The least a with a b is at most
max(p, s1), since the test passes at (a, a) there, and for that a the least
delta = b - a with a gamma is at most max(delta0, p, s2), delta0 the
offset of the least b: every time tested is at most max(p, s1, s2), which
is at most the number of points, and the period q bounds no loop.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

from .errors import Undecided


@dataclass(frozen=True)
class AdmissibleTriple:
    """A triple (a, b, c) with 0 <= a <= b <= c (naturals or rationals)."""

    a: object
    b: object
    c: object

    def __post_init__(self):
        if not (0 <= self.a <= self.b <= self.c):
            raise ValueError("need 0 <= a <= b <= c")

    def __add__(self, other: "AdmissibleTriple") -> "AdmissibleTriple":
        return AdmissibleTriple(self.a + other.a, self.b + other.b,
                                self.c + other.c)

    def as_tuple(self):
        return (self.a, self.b, self.c)

    def __repr__(self):
        return f"({self.a}, {self.b}, {self.c})"


@dataclass(frozen=True)
class InducedMap:
    """The induced partial self-map f_E with Dom f_E = D_1(E); for a map
    D_1(E) = E n f^-1(E), for a semiflow the points whose orbit over [0, 1]
    stays in E."""

    ambient: object
    subset: object
    realized: object

    @property
    def domain(self):
        return self.realized.domain


@dataclass(frozen=True)
class CrossMap:
    """The connecting map from E to E' attached to an admissible triple.

    The realized partial map acts by f^c on the prescribed domain."""

    ambient: object
    source: object
    target: object
    triple: AdmissibleTriple
    realized: object

    @property
    def shift(self):
        return self.triple.c

    @property
    def domain(self):
        return self.realized.domain


@dataclass(frozen=True)
class TripleSearch:
    triple: Optional[AdmissibleTriple]
    complete: bool
    bound: object

    @property
    def found(self) -> bool:
        return self.triple is not None


@dataclass(frozen=True)
class SimResult:
    status: str                       # equivalent | not_equivalent | unknown
    forward: Optional[tuple] = None   # (a, b): D_b(E) <= f^-a(E')
    backward: Optional[tuple] = None
    bound: object = None

    @property
    def is_equivalent(self) -> bool:
        return self.status == "equivalent"


# ---------------------------------------------------------------------------
# basic constructions

def induced(f, e) -> InducedMap:
    """f_E: the time-1 map on D_1(E) (for a map, E n f^-1(E))."""
    f.check_set(e)
    return InducedMap(f, e, induced_power(f, e, 1))


def induced_power(f, e, t):
    """Realized f_E^t: the time-t map on the swept domain D_t(E)."""
    return f.time_map(t).restrict(f.dom(e, t))


# ---------------------------------------------------------------------------
# admissibility

class _SearchContext:
    """Search state over times in N: the absorption tests of a pair,
    cached.  D_n and f^-n come from the map, which memoizes them.

    Without a bound (finite carrier) the search is complete: f^-a(E') is
    eventually periodic in a (f^p = f^(p+q), from ``f.power_bounds``) and
    D_b(E) stabilizes in b at ``_stab[1]``, D_gamma(E') in gamma at
    ``_stab[2]``, and the derived bound 2(p + q) + s1 + s2 + 2 covers both
    and is what a complete search reports.  ``possible[1]`` (``[2]``),
    Inv(E) <= E' (Inv(E') <= E), is whether a forward (backward) pair
    exists, always true on a bounded search, and :meth:`last` ends each
    gallop (see the module docstring)."""

    def __init__(self, f, e, e2, bound=None):
        self.f, self.e, self.e2 = f, e, e2
        self._cond1: dict = {}
        self._cond2: dict = {}
        self.complete = bound is None
        self.possible = {1: True, 2: True}
        if self.complete:
            p, q = f.power_bounds
            n = len(f.space.points)
            self._stab = {1: f.stab(e, n + 1), 2: f.stab(e2, n + 1)}
            bound = 2 * (p + q) + self._stab[1] + self._stab[2] + 2
            self.possible = {1: f.invariant_part(e).subset_of(e2),
                             2: f.invariant_part(e2).subset_of(e)}
        self.bound = bound
        self.times = range(bound + 1)

    def _absorbed(self, tests, e, e2, a, b) -> bool:
        """D_b(e) <= f^-a(e2), cached in ``tests`` by (a, b)."""
        hit = tests.get((a, b))
        if hit is None:
            f = self.f
            hit = tests[a, b] = f.dom(e, b).subset_of(f.preimage_n(e2, a))
        return hit

    def cond1(self, a, b) -> bool:
        return self._absorbed(self._cond1, self.e, self.e2, a, b)

    def cond2(self, delta, gamma) -> bool:
        return self._absorbed(self._cond2, self.e2, self.e, delta, gamma)

    def last(self, which, i):
        """The end of the index range of a gallop of test ``which`` that
        starts at index i: past it the tested domain sets do not change."""
        if self.complete:
            return max(i, self._stab[which]) + 1
        return len(self.times)


def is_admissible(f, e, e2, t: AdmissibleTriple) -> bool:
    """Exact check of both absorption inclusions for the triple."""
    return f.dom(e, t.b).subset_of(f.preimage_n(e2, t.a)) and \
        f.dom(e2, t.c - t.a).subset_of(f.preimage_n(e, t.b - t.a))


def triple_sum_law_check(f, e, e2, e3, t: AdmissibleTriple,
                         t2: AdmissibleTriple) -> bool:
    """Check the componentwise sum of admissible triples is again admissible."""
    if not is_admissible(f, e, e2, t):
        raise ValueError("t is not (E, E')-admissible")
    if not is_admissible(f, e2, e3, t2):
        raise ValueError("t' is not (E', E'')-admissible")
    return is_admissible(f, e, e3, t + t2)


def _checkpoints(lo, hi):
    """The absolute indices 2^k - 1 in [lo, hi), then hi - 1, as a list: a
    suspended generator left by a test that exhausts memory fails to close
    and prints ``Exception ignored in:`` on standard error."""
    out, i = [], 0
    while i < hi - 1:
        if i >= lo:
            out.append(i)
        i = 2 * i + 1
    out.append(hi - 1)
    return out


def _least(test, times, lo, hi):
    """The least index i in [lo, hi) with test(times[i]), else None, for a
    test that is false and then true along ``times``.

    Gallops over :func:`_checkpoints`, then bisects between the last false
    checkpoint and the first true one.  The checkpoints are absolute
    indices, so searches that start at different lo test the same times
    and share the sets the system memoizes for them.  Galloping can test a
    time that a linear scan never reaches; if that raises Undecided, the
    linear scan over [lo, hi) decides instead, so the search raises only
    where the scan itself raises."""
    if lo >= hi:
        return None
    try:
        below = lo - 1
        for above in _checkpoints(lo, hi):
            if test(times[above]):
                break
            below = above
        else:
            return None
        while above - below > 1:
            mid = (below + above) // 2
            if test(times[mid]):
                above = mid
            else:
                below = mid
        return above
    except Undecided:
        return next((i for i in range(lo, hi) if test(times[i])), None)


def _least_pair(test, ctx, which):
    """The lexicographically least pair (a, b) with test(a, b), else None."""
    if ctx.possible[which]:
        for i, a in enumerate(ctx.times):
            j = _least(lambda b: test(a, b), ctx.times, i, ctx.last(which, i))
            if j is not None:
                return a, ctx.times[j]
    return None


def sim_f(f, e, e2, bound=None) -> SimResult:
    """Decide E ~_f E' by searching absorption witnesses both ways.

    Finite carrier: complete decision (bounds from eventual periodicity and
    domain stabilization).  Interval and semiflow carriers: unknown when the
    bounded search is exhausted.  For each a the least b is found by
    :func:`_least`, since D_b(E) <= f^-a(E') is false and then true in b
    (see :func:`find_admissible`); the same holds for D_b(E') <= f^-a(E).
    """
    ctx = f.search_context(e, e2, bound)
    fwd = _least_pair(ctx.cond1, ctx, 1)
    bwd = _least_pair(ctx.cond2, ctx, 2)
    if fwd and bwd:
        status = "equivalent"
    else:
        status = "not_equivalent" if ctx.complete else "unknown"
    return SimResult(status, fwd, bwd, bound=ctx.bound)


def find_admissible(f, e, e2, bound=None) -> TripleSearch:
    """Lexicographically-least admissible triple among the search times.

    Finite carrier with bound=None: a complete decision (NotFound means the
    triple set is empty); whether a triple exists is read off the cycles of
    f, and the search only looks for the least one (see the module
    docstring).  Otherwise NotFound means undecided within the bound.

    Both conditions are monotone in their second time, because the swept
    domain D_t(E) shrinks as t grows.  In discrete time D_1 = E n f^-1(E)
    <= E = D_0, and D_n <= D_{n-1} gives D_{n+1} = E n f^-1(D_n) <= E n
    f^-1(D_{n-1}) = D_n.  For a semiflow, the orbit segment over [0, t']
    contains the one over [0, t] when t <= t', so a point whose longer
    segment stays in E has a shorter one that does too.  Hence for fixed a
    the test D_b(E) <= f^-a(E') is false and then true along the sorted
    times, and so is D_gamma(E') <= f^-(b-a)(E) in gamma for fixed b - a.
    So :func:`_least` finds the least b for each a, every later b passes
    too and is not tested again, and for each b the least gamma in
    [b - a, bound - a] gives the least c = a + gamma: the triple of a
    lexicographic scan, with fewer tests.
    """
    ctx = f.search_context(e, e2, bound)
    times = ctx.times
    if ctx.possible[1] and ctx.possible[2]:
        for i, a in enumerate(times):
            j = _least(lambda b: ctx.cond1(a, b), times, i, ctx.last(1, i))
            if j is None:
                continue
            for b in times[j:]:
                lo = bisect_left(times, b - a)
                k = _least(lambda gamma: ctx.cond2(b - a, gamma), times, lo,
                           min(ctx.last(2, lo),
                               bisect_right(times, ctx.bound - a)))
                if k is not None:
                    return TripleSearch(AdmissibleTriple(a, b, a + times[k]),
                                        ctx.complete, ctx.bound)
    return TripleSearch(None, ctx.complete, ctx.bound)


def cross_domain(f, e, e2, t: AdmissibleTriple):
    """Domain of the connecting map of t: D_b(E) n f^-a(D_{c-a}(E'))."""
    return f.dom(e, t.b).intersect(f.preimage_n(f.dom(e2, t.c - t.a), t.a))


def cross_map(f, e, e2, t: AdmissibleTriple) -> CrossMap:
    """Realize the connecting map f^{(a,b,c)} from E to E' on its exact domain."""
    if not is_admissible(f, e, e2, t):
        raise ValueError(f"triple {t} is not admissible for (E, E')")
    realized = f.time_map(t.c).restrict(cross_domain(f, e, e2, t))
    return CrossMap(f, e, e2, t, realized)


# ---------------------------------------------------------------------------
# compactifiability

def weak_compactifiability_checks(f, e) -> list[tuple[str, bool]]:
    """The system's checks that the induced system on E is proper and
    openly defined (for a semiflow: finite-time proper; may raise
    Undecided)."""
    f.check_set(e)
    return f.weak_compactifiability_checks(e)


def is_weakly_compactifiable(f, e) -> bool:
    return all(ok for _, ok in weak_compactifiability_checks(f, e))


def compactifiability_checks(f, e) -> list[tuple[str, bool]]:
    checks = weak_compactifiability_checks(f, e)
    checks.append(("E locally compact", e.is_locally_compact()))
    return checks


def is_compactifiable(f, e) -> bool:
    return all(ok for _, ok in compactifiability_checks(f, e))


def one_point(f, e):
    """One-point compactification of f_E; E must be compactifiable.

    Finite carrier: the based endo of :func:`one_point_endo`.  Box carriers:
    the induced map f_E itself, which stands for the pair (E, f_E)."""
    if not is_compactifiable(f, e):
        raise ValueError("E is not compactifiable; the based map would be discontinuous")
    if f.carrier_name == "finite":
        return one_point_endo(f, e)
    return induced(f, e)


def one_point_endo(f, e) -> BasedEndo:
    """The based endo of f_E on the finite carrier, undefined points sent
    to the basepoint: f_E made total on E plus one added point, held like
    every finite map on point indices (E's order, the basepoint last).  No
    check is needed: in a discrete space every partial map is proper and
    every subset is open and locally compact."""
    from .szymczak import BASEPOINT, BasedEndo
    realized = induced(f, e).realized
    base, index = BASEPOINT, e.space.index
    while base in index and e.mask >> index[base] & 1:
        base += BASEPOINT
    table = {x: realized.table.get(x, base) for x in e.ordered()} | {base: base}
    return BasedEndo.of(e.ordered() + (base,), table, base=base)


# ---------------------------------------------------------------------------
# invariant parts

def invariant_part_outer(f, e, t):
    """The outer approximant f^t(D_t(E)); decreasing in t and contains I_f(E)."""
    return f.time_map(t).image(f.dom(e, t))


# The most boxes an iterate of invariant_part_exact may hold.  A folding map
# multiplies them at every step: x -> -2x on [-1, 1], 3x - 5 beyond 1 and
# 3x + 5 below -1 takes E = [-1, 4] to 4,180 intervals at n = 16 and
# 196,417 at n = 24, and its invariant part is a Cantor set, which no
# iterate reaches.  The fixtures and the benchmark stay below 20 boxes.
ITERATE_BOX_BUDGET = 4096


def invariant_part_exact(f, e, cap: int | None = None):
    """Finite carrier: the invariant part, the cycles of f inside E.  A
    finite S with f(S) = S is a union of cycles (f maps S onto S, so
    bijectively), and every cycle inside E is invariant.

    Interval carrier: exact invariant part, else raise Undecided with the
    cap and the last iterate as outer bound.  An iterate of more than
    ITERATE_BOX_BUDGET boxes raises Undecided at once, with the step n of
    that iterate (D_n(E), or f^n(D) in the image loop) as its bound and no
    outer bound: printing thousands of boxes would help no reader.

    Iterates D_n(E), read from the map (so a later search on E reuses
    them), for up to cap steps (the map's ``default_bound`` when cap is
    None) and, once they stabilize, the forward images
    f^k(D) for up to cap more.  Exact when the images
    stabilize too, or as soon as an iterate is bounded and lies in the
    closure of one affine piece with no axis of slope -1: then the
    fixed-set closed form is I_f(E).  Proof sketch: I_f(E) lies in Dom f
    and in every iterate, and the iterates decrease, so every full orbit in
    I_f(E) stays in a bounded set on which that piece's rule holds (on Dom
    f the rule of a piece extends continuously to its closure); under a
    componentwise affine rule that forces each axis with |slope| != 1 onto
    the rule's fixed point.  Later iterates lie in the same closure, so
    stopping early gives the answer the whole cap would.
    """
    f.check_set(e)
    if f.carrier_name == "finite":
        return type(e)(e.space,
                       sum(c for c in f._cycle_masks if not c & ~e.mask))

    cap = f.default_bound if cap is None else cap
    current = e
    for step in (lambda n, d: f.dom(e, n), lambda n, d: f.image(d)):
        for n in range(1, cap + 1):
            exact = _fixed_set_closed_form(f, e, current)
            if isinstance(exact, type(e)):      # a box set, not a reason
                return exact
            following = step(n, current)
            if following == current:
                break
            current = following
            if len(current.boxes) > ITERATE_BOX_BUDGET:
                raise Undecided(f"an iterate exceeded {ITERATE_BOX_BUDGET} "
                                f"boxes", bound=n)
        else:
            break               # the cap ran out before stabilization
    else:
        return current          # the images stabilized: current is invariant
    last = _fixed_set_closed_form(f, e, current)
    if isinstance(last, type(e)):
        return last
    raise Undecided(last or "invariant part did not stabilize", bound=cap,
                    outer=current)


_REFLECTION = "reflection axis admits non-fixed invariant sets"


def _fixed_set_closed_form(f, e, outer):
    """I_f(E) from a bounded outer region inside the closure of one affine
    piece, else None.  By continuity the piece's rule holds on all of its
    closure that lies in Dom f, so on every iterate and on I_f(E).

    Invariance forces each axis with |slope| != 1 onto the rule's fixed
    point, axes that translate (slope 1, intercept != 0) kill everything,
    and slope 1 with intercept 0 leaves the axis free.  Slope -1 admits
    2-cycles and is left undecided: the result is then the reason
    _REFLECTION, which the caller raises only on its last iterate.
    """
    if not outer.is_bounded:
        return None
    piece = next((p for p in f.pieces if outer.subset_of(p.domain.closure())),
                 None)
    if piece is None:
        return None
    from .boxes import BoxSet, Interval
    axes = []
    for r in piece.rules:
        if r.slope == 1 and r.intercept != 0:
            return BoxSet.empty(f.dimension)
        if r.slope == -1:
            return _REFLECTION
        if r.slope == 1:
            axes.append(Interval.line())
        else:
            axes.append(Interval.point(r.intercept / (1 - r.slope)))
    fix = BoxSet.of(f.dimension, [tuple(axes)])
    return fix.intersect(piece.domain.closure()).intersect(f.domain).intersect(e)
