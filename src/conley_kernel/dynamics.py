"""Carrier-blind dynamics in discrete and continuous time.

Induced partial maps, iterated-domain sets, admissible triples and their
connecting maps, the absorption relation between subsets, compactifiability
predicates and the outer approximant of the invariant part.  Sets and maps
carry their own algebra, and each system is its own time domain: the map
and flow types answer ``carrier_name``, ``default_bound``,
``search_context`` (the times and bound of a search, and whether it is
complete), ``time_map`` f^t, ``dom`` D_t(E) (the points whose orbit segment
over [0, t] stays in E), ``preimage_n`` f^-t(A), ``interior_of`` (relative
to its carrier), ``invariant_part``, ``check_invariant`` (the precondition
on S) and the ``weak_compactifiability_checks`` of the induced system; a
realized map answers ``after``, g o f.  So the finite and interval carriers
(times in N) and the semiflow carrier (times in R>=0) share one code path:
a search runs over one :class:`_SearchContext` on the times the system's
``search_context`` supplies, and ``f.dom(E, t)``, ``f.preimage_n(A, t)``
and ``f.time_map(t)`` are D_t(E), f^-t(A) and f^t, memoized on f.  This
module reads no carrier: :class:`DiscreteTime`, the base of the finite and
piecewise-affine map types, builds their D_n(E) and f^-n(A), and each
system type computes its own invariant part.

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

The finite map's complete search context reads the two tests off its
``invariant_part`` as ``possible`` and then only looks for the least
witness, with the loop of a bounded search.  D_b(E) does not change past s1
(D_gamma(E') past s2), so a gallop over b (gamma) ends at ``last``, one
past max(i, s1) (max(i, s2)) for a range that starts at index i.  The
least a with a b is at most max(p, s1), since the test passes at (a, a)
there, and for that a the least delta = b - a with a gamma is at most
max(delta0, p, s2), delta0 the offset of the least b: every time tested
is at most max(p, s1, s2), which is at most the number of points, and the
period q bounds no loop.
"""

from __future__ import annotations

import threading
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
    """Search state over a system's times, for maps and flows alike: the
    absorption tests of a pair, cached.  D_t and f^-t come from the system,
    which memoizes them.  Its ``search_context`` supplies the sorted
    ``times`` and the ``bound`` a search reports and, for a complete search
    (the finite map's without a bound), ``stab``, where D_b(E) stabilizes
    in b (``stab[1]``) and D_gamma(E') in gamma (``stab[2]``), and
    ``possible``, whether a forward (backward) pair exists; :meth:`last`
    ends each gallop (see the module docstring)."""

    def __init__(self, f, e, e2, times, bound, stab=None, possible=None):
        self.f, self.e, self.e2 = f, e, e2
        self.times, self.bound = times, bound
        self._stab = stab
        self.complete = stab is not None
        self.possible = {1: True, 2: True} if possible is None else possible
        self._cond1: dict = {}
        self._cond2: dict = {}

    def _absorbed(self, tests, e, e2, a, b) -> bool:
        """D_b(e) <= f^-a(e2), cached in ``tests`` by the integer ratios of
        (a, b), which hash far faster than Fractions."""
        key = (a.as_integer_ratio(), b.as_integer_ratio())
        hit = tests.get(key)
        if hit is None:
            f = self.f
            hit = tests[key] = f.dom(e, b).subset_of(f.preimage_n(e2, a))
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
# time in N

class DiscreteTime:
    """Time in N, the base of :class:`~conley_kernel.finite.
    FinitePartialMap` and :class:`~conley_kernel.affine.PiecewiseAffineMap`,
    whose modules give ``time_map`` (their ``power``), ``after`` (their
    ``compose``) and ``invariant_part``: f^t is the t-th power, and a
    search tests 0..bound.  D_t(E) and f^-t(A) are built step by step by
    :meth:`_iterate` and kept in the map's ``_iterates``, so a smaller time
    costs a lookup and a larger one a step per missing time; a memo lives
    as long as its map and no two maps share one.  A sequence grows only
    under ``_grow``, one lock for both map types, taken only when the memo
    misses, so a memo hit costs no lock; without it two threads that both
    read length k would both append step k, and every later index would be
    off by one."""

    _grow = threading.Lock()

    def _iterate(self, a, kind, t):
        """The t-th set from A by the step of ``kind``, "dom" (D -> A n
        f^-1(D), ``dom_step``) or "preimage" (D -> f^-1(D)), memoized on the
        map; once a step returns its input, the sequence is frozen into a
        tuple."""
        if t < 0:
            raise ValueError("negative power")
        seq = self._iterates.get((a, kind))
        if seq is None:         # a set equal to a key has passed the check
            self.check_set(a)
            seq = self._iterates.setdefault((a, kind), [a])
        if len(seq) <= t and isinstance(seq, list):
            with self._grow:
                seq = self._iterates[a, kind]   # it may have become a tuple
                while len(seq) <= t and isinstance(seq, list):
                    nxt = self.dom_step(a, seq[-1]) if kind == "dom" else \
                        self.preimage(seq[-1])
                    if nxt == seq[-1]:
                        seq = self._iterates[a, kind] = tuple(seq)
                    else:
                        seq.append(nxt)
        return seq[min(t, len(seq) - 1)]

    def preimage_n(self, a, t):
        """f^-t(A), built as f^-1(f^-(t-1)(A))."""
        return self._iterate(a, "preimage", t)

    def dom(self, e, t):
        """D_t(E) = E n f^-1(D_{t-1}(E)), the meet of f^-i(E), i <= t."""
        return self._iterate(e, "dom", t)

    def stab(self, e, cap) -> int:
        """The first n < cap with D_{n+1}(E) = D_n(E), else cap."""
        self.dom(e, cap)
        seq = self._iterates[e, "dom"]
        return min(len(seq) - 1, cap) if isinstance(seq, tuple) else cap

    def interior_of(self, a):
        return a.interior()

    def search_context(self, e, e2, bound):
        bound = self.default_bound if bound is None else bound
        return _SearchContext(self, e, e2, range(bound + 1), bound)

    def check_invariant(self, s):
        self.check_set(s)
        if not s.subset_of(self.domain):
            raise ValueError("S is not invariant: S is not contained in Dom f")
        if self.image(s) != s:
            raise ValueError("S is not invariant: f(S) != S")

    def weak_compactifiability_checks(self, e):
        """Whether f_E is proper and openly defined; ``dom`` checks E."""
        dom = self.dom(e, 1)
        return [("induced map proper", self.is_proper_on(dom, e)),
                ("induced domain open in E", dom.is_open_in(e))]


# ---------------------------------------------------------------------------
# compactifiability

def is_weakly_compactifiable(f, e) -> bool:
    """Whether the induced system on E is proper and openly defined (for a
    semiflow: finite-time proper; may raise Undecided)."""
    return all(ok for _, ok in f.weak_compactifiability_checks(e))


def compactifiability_checks(f, e) -> list[tuple[str, bool]]:
    checks = f.weak_compactifiability_checks(e)
    checks.append(("E locally compact", e.is_locally_compact()))
    return checks


def is_compactifiable(f, e) -> bool:
    return all(ok for _, ok in compactifiability_checks(f, e))


# ---------------------------------------------------------------------------
# invariant parts

def invariant_part_outer(f, e, t):
    """The outer approximant f^t(D_t(E)); decreasing in t and contains I_f(E)."""
    return f.time_map(t).image(f.dom(e, t))
