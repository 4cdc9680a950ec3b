"""Exactly-representable semiflows: the continuous-time half of the carriers.

Supported per-axis rules: translation x - v*t, floor-clamped max(x - v*t, L),
ceiling-clamped min(x + v*t, U), and identity.  Base flows are total on their
carrier, so all partiality arises through induced restriction; every orbit
coordinate is monotone in time, which is what makes the sweep computations
exact.

A flow is its own time domain, times in R>=0 with search bound 8: the
methods of :class:`ExactSemiflow` (``time_map``, ``preimage_n``, ``dom``,
``search_context``, ``invariant_part``, ...) answer from this module's
exact time-t maps, time-t preimages F_t^-1(A), swept domains D_t(E), the
finite-time properness and open-definedness deciders, the rational
candidate times a search runs over, and the rest-point invariant part;
its realized maps are piecewise affine.  The theory itself (admissible
triples, cross maps, certificates, simple systems) is written once in
:mod:`conley_kernel.dynamics` and :mod:`conley_kernel.conley`.  Exhausted
semi-decisions raise :class:`Undecided`, never a fabricated negative; it is
defined in :mod:`conley_kernel.errors`, which finite-only processes load
too, and re-exported here.

Preimages and the swept domains of convex sets are read off the axes:
F_t is the product of monotone axis maps restricted to the carrier, so the
preimage of a box is the box of its axis preimages (one interval each,
:meth:`AxisRule.preimage`).  No time-t map is built for them; one is built
only where a realized map is needed (cross maps, induced powers, the
properness probes and the outer approximant of the invariant part).

Each flow memoizes its time-t maps by t, its preimages by (A, t) and its
swept domains by (E, t) in fields of the flow object, so those sets and
maps, with the maps' set-map memos (:mod:`conley_kernel.affine`), are
shared by every caller holding the flow and live as long as it does.
These memos and the search tests key each time by its integer ratio, a
pair of ints, which hashes far faster than a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .affine import AffineRule, PiecewiseAffineMap, product
from .boxes import (
    BoxSet, Cut, Interval, NEG_INF, POS_INF, _key, _mul_add, _sub_div,
    isect_iv, rat, RatLike,
)
from .errors import Undecided

SWEEP_CAP = 64      # the swept-domain refinement samples steps down to t/64


@dataclass(frozen=True)
class AxisRule:
    kind: str                 # translation | floor | ceil | identity
    velocity: Fraction = Fraction(0)
    clamp: Optional[Fraction] = None

    def __post_init__(self):
        if self.kind not in ("translation", "floor", "ceil", "identity"):
            raise ValueError(f"unknown axis rule {self.kind}")
        if self.kind in ("floor", "ceil") and self.velocity <= 0:
            raise ValueError("clamped rules need positive velocity")
        if self.kind in ("floor", "ceil") and self.clamp is None:
            raise ValueError("clamped rules need a clamp value")

    @staticmethod
    def translation(v: RatLike) -> "AxisRule":
        return AxisRule("translation", rat(v))

    @staticmethod
    def floor(v: RatLike, level: RatLike) -> "AxisRule":
        return AxisRule("floor", rat(v), rat(level))

    @staticmethod
    def ceil(v: RatLike, level: RatLike) -> "AxisRule":
        return AxisRule("ceil", rat(v), rat(level))

    @staticmethod
    def identity() -> "AxisRule":
        return AxisRule("identity")

    @property
    def natural_range(self) -> Interval:
        if self.kind == "floor":
            return Interval(Cut.finite(self.clamp), POS_INF, True, False)
        if self.kind == "ceil":
            return Interval(NEG_INF, Cut.finite(self.clamp), False, True)
        return Interval.line()

    def value(self, t: Fraction, x: Fraction) -> Fraction:
        if self.kind == "identity":
            return x
        if self.kind == "translation":
            return _mul_add(-self.velocity, t, x)
        if self.kind == "floor":
            return max(_mul_add(-self.velocity, t, x), self.clamp)
        return min(_mul_add(self.velocity, t, x), self.clamp)

    def time_factor(self, t: Fraction) -> PiecewiseAffineMap:
        """The time-t map of this axis, built in the canonical form that
        `PiecewiseAffineMap.of` gives for its interval pieces (the test
        oracle ``kernel_oracles.oracle_time_pieces`` under ``tests/``): the
        pieces are disjoint and continuous by construction, so neither is
        checked.
        A clamped axis has one breakpoint, just after its split, as both of
        its rules take the clamp value there."""
        v = self.velocity
        if self.kind in ("identity", "translation") or t == 0:
            return PiecewiseAffineMap(
                1, (AffineRule(Fraction(1), _mul_add(-v, t, 0)),))
        clamped = (AffineRule(Fraction(0), self.clamp),)
        if self.kind == "floor":
            node = ((_key(_mul_add(v, t, self.clamp), 1),),
                    (clamped, (AffineRule(Fraction(1), _mul_add(-v, t, 0)),)))
        else:
            node = ((_key(_mul_add(-v, t, self.clamp), 1),),
                    ((AffineRule(Fraction(1), _mul_add(v, t, 0)),), clamped))
        return PiecewiseAffineMap(1, node)

    def pullback(self, iv: Interval):
        """The ends of the time-t preimage of iv as affine functions of t,
        each (cut, closed, slope) for cut + slope*t, or None when it is
        empty.  They hold for t > 0, and at t = 0 too for x inside the
        rule's natural range, where every caller's x lies.

        Translation (and identity, of velocity 0) pulls iv back to iv
        shifted by v*t.  The floor value is max(x - v*t, L): when L is in iv
        every x <= hi + v*t qualifies, the clamped ones included; when iv
        lies below L none does; when it lies above L no clamped value is in
        it and the preimage is the shift.  The ceiling rule is the mirror."""
        v = self.velocity
        if self.kind == "floor":
            if iv.contains(self.clamp):
                return (NEG_INF, False, 0), (iv.hi, iv.hi_closed, v)
            if iv.hi <= Cut.finite(self.clamp):
                return None
        elif self.kind == "ceil":
            v = -v
            if iv.contains(self.clamp):
                return (iv.lo, iv.lo_closed, v), (POS_INF, False, 0)
            if Cut.finite(self.clamp) <= iv.lo:
                return None
        return (iv.lo, iv.lo_closed, v), (iv.hi, iv.hi_closed, v)

    def preimage(self, iv: Interval, t: Fraction) -> Interval | None:
        """The x whose time-t factor value (:meth:`time_factor`, the
        identity at t = 0) lies in iv, as one interval, or None when there
        is none: :meth:`pullback` at t."""
        if self.kind == "identity" or t == 0:
            return iv
        ends = self.pullback(iv)
        if ends is None:
            return None
        (lo, lo_closed, v_lo), (hi, hi_closed, v_hi) = ends
        return Interval(_shift(lo, v_lo, t), _shift(hi, v_hi, t), lo_closed,
                        hi_closed)

    def boundary_values(self) -> list[Fraction]:
        return [] if self.clamp is None else [self.clamp]


def _shift(c: Cut, v: Fraction, t: Fraction) -> Cut:
    """c + v*t; an infinite end stays where it is."""
    return Cut(0, _mul_add(v, t, c.value)) if c.sign == 0 else c


@dataclass(frozen=True)
class ExactSemiflow:
    """One rule per axis, on a carrier box set where the flow is total.

    The construction checks make f^0 = id and f^t f^u = f^(t+u) hold on the
    carrier, so neither is tested at run time.  Each rule kind is a
    semiflow on its natural range: identity and translation are groups,
    and for the floor rule max(max(x - v*u, L) - v*t, L) = max(x - v*(t+u),
    L) as v*t >= 0 (the ceiling rule is its mirror).  A product of
    semiflows is one, and so is its restriction to a forward-invariant set.
    :meth:`of`, the checked constructor, makes the checks: the carrier lies
    in the product of the natural ranges (the first) and is forward
    invariant (the second).  The plain constructor checks nothing; besides
    :meth:`of`, only the document builder calls it, with the axes and
    carrier of a flow that :meth:`of` made."""

    dimension: int
    axes: tuple[AxisRule, ...]
    carrier: BoxSet
    _time_maps: dict = field(default_factory=dict, init=False, compare=False,
                             hash=False, repr=False)
    _pulled: dict = field(default_factory=dict, init=False, compare=False,
                          hash=False, repr=False)
    _swept: dict = field(default_factory=dict, init=False, compare=False,
                         hash=False, repr=False)

    carrier_name = "semiflow"
    default_bound = 8

    @staticmethod
    def of(axes: Sequence[AxisRule], carrier: BoxSet | None = None) -> "ExactSemiflow":
        axes = tuple(axes)
        natural = BoxSet.of(len(axes), [tuple(r.natural_range for r in axes)])
        carrier = natural if carrier is None else carrier
        if not carrier.subset_of(natural):
            raise ValueError("carrier leaves the natural domain of the rules "
                             "(time-0 map would not be the identity)")
        if not _forward_invariant(axes, carrier):
            raise ValueError("carrier is not forward invariant; "
                             "the rules do not define a semiflow on it")
        return ExactSemiflow(len(axes), axes, carrier)

    @property
    def domain(self) -> BoxSet:
        """Dom F: the flow is total on its carrier."""
        return self.carrier

    def check_set(self, e: BoxSet):
        if e.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        if not e.subset_of(self.carrier):
            raise ValueError("set leaves the semiflow carrier")

    def fixed_set(self) -> BoxSet:
        """The set of rest points of the flow, as a box set."""
        axes = []
        for r in self.axes:
            if r.kind == "identity" or r.velocity == 0:
                axes.append(Interval.line())
            elif r.kind in ("floor", "ceil"):
                axes.append(Interval.point(r.clamp))
            else:
                return BoxSet.empty(self.dimension)
        return BoxSet.of(self.dimension, [tuple(axes)]).intersect(self.carrier)

    # -- time in R>=0: each answer calls a module function, looked up at
    # call time, so a wrapper installed on the module takes effect

    def time_map(self, t):
        return time_map(self, t)

    def preimage_n(self, a, t):
        return preimage(self, a, t)

    def dom(self, e, t):
        return dom_interval(self, e, t)

    def interior_of(self, a):
        return a.interior_in(self.carrier)

    def search_context(self, e, e2, bound):
        return _ContContext(
            self, e, e2, self.default_bound if bound is None else bound)

    def invariant_part(self, e, cap=None):
        return invariant_part_F(self, e)

    def check_invariant(self, s):
        """S must be a set of rest points; unbounded S is undecided."""
        self.check_set(s)
        if s.is_empty:
            return
        if not s.is_bounded and any(r.kind != "identity" and r.velocity != 0
                                    for r in self.axes):
            raise Undecided("invariance of an unbounded set is undecided")
        if not s.subset_of(self.fixed_set()):
            raise ValueError("S is not invariant under the semiflow")

    def weak_compactifiability_checks(self, e):
        return [("induced semiflow finite-time proper",
                 is_finite_time_proper(self, e)),
                ("induced semiflow openly defined",
                 is_openly_defined_cont(self, e))]


def time_map(flow: ExactSemiflow, t) -> PiecewiseAffineMap:
    """The exact time-t piecewise-affine map, total on the carrier: the
    product of the axes' time-t maps, restricted to the carrier; built once
    per flow and t."""
    t = rat(t)
    key = t.as_integer_ratio()
    tm = flow._time_maps.get(key)
    if tm is not None:
        return tm
    if t < 0:
        raise ValueError("negative time")
    factors = [r.time_factor(t) for r in flow.axes]
    flow._time_maps[key] = tm = product(factors).restrict(flow.carrier)
    return tm


def preimage(flow: ExactSemiflow, a: BoxSet, t) -> BoxSet:
    """F_t^-1(A): the points of the carrier whose time-t value lies in A;
    built once per flow, A and t.

    F_t is the product of the axis maps phi_k restricted to the carrier.
    Preimages commute with unions, so F_t^-1(A) is the union over the
    boxes B of A of the product of the phi_k^-1(B_k), cut to the carrier,
    and each phi_k is monotone, so each phi_k^-1(B_k) is one interval
    (:meth:`AxisRule.preimage`).  The set is canonical, so it is the one
    that pulling A back through ``time_map(flow, t)`` gives."""
    t = rat(t)
    key = (a, t.as_integer_ratio())
    p = flow._pulled.get(key)
    if p is not None:
        return p
    if t < 0:
        raise ValueError("negative time")
    if a.dimension != flow.dimension:
        raise ValueError("dimension mismatch")
    boxes = _pulled_boxes(flow.axes, a.boxes, t, False)
    flow._pulled[key] = p = BoxSet.of(flow.dimension, boxes).intersect(
        flow.carrier)
    return p


def _pulled_boxes(axes, boxes, t: Fraction, within: bool) -> list:
    """Per box B, the box of the axis preimages phi_k^-1(B_k), or with
    ``within`` of the B_k n phi_k^-1(B_k); the empty ones are left out."""
    out = []
    for box in boxes:
        pulled = []
        for r, iv in zip(axes, box):
            p = r.preimage(iv, t)
            if within and p is not None:
                p = isect_iv(iv, p)
            if p is None:
                break
            pulled.append(p)
        else:
            out.append(tuple(pulled))
    return out


# ---------------------------------------------------------------------------
# swept domains

def dom_interval(flow: ExactSemiflow, e: BoxSet, t) -> BoxSet:
    """The set of x whose whole orbit segment over [0, t] stays in E.

    Exact.  When E is convex per component (a 1-D set, whose canonical
    boxes are its connected components, or a single box) it is the union
    over the boxes B of E of B n F_t^-1(B): an orbit segment is connected,
    so it stays in E exactly when it stays in the box it starts in, and it
    is monotone on each axis, so it stays in that convex box exactly when
    its end does.  B lies in the carrier, where F_t is the product of the
    axis maps phi_k, so B n F_t^-1(B) is the box of the B_k n phi_k^-1(B_k),
    and no time map is built.  Multi-box sets in higher dimension refine a
    sampled outer bound until no box of it reaches E's complement within
    [0, t], which certifies it, at steps down to t/SWEEP_CAP; past that
    they raise Undecided with bound SWEEP_CAP.
    """
    t = rat(t)
    key = (e, t.as_integer_ratio())
    d = flow._swept.get(key)
    if d is not None:
        return d
    if t < 0:
        raise ValueError("negative time")
    flow.check_set(e)
    if t == 0:
        d = e
    elif flow.dimension == 1 or len(e.boxes) <= 1:
        d = BoxSet.of(flow.dimension,
                      _pulled_boxes(flow.axes, e.boxes, t, True))
    else:
        d = _dom_interval_sandwich(flow, e, t)
    flow._swept[key] = d
    return d


def _dom_interval_sandwich(flow: ExactSemiflow, e: BoxSet,
                           t: Fraction) -> BoxSet:
    """D_t(E) lies in the outer bound E n f^-s(E) over s = t*k/m; the bound is
    D_t(E) once none of its boxes reaches E's complement within [0, t].

    D_t(E) need not be a box set, and then Undecided is the exact answer:
    under floors (1, 0), (2, 0), the points of E = [0, 2]^2 minus (1, 1)
    whose orbit meets (1, 1) by time 1 form the segment (1 + s, 1 + 2s),
    s in [0, 1/2], and no finite union of boxes is E minus a segment."""
    outside = e.complement()
    window = Interval(Cut.finite(0), Cut.finite(t), True, True)
    outer, m = e, 1
    while m <= SWEEP_CAP:
        # the times t*k/m with k odd; the even ones were taken at m/2
        for k in range(1, m + 1, 2):
            outer = outer.intersect(preimage(flow, e, t * k / m))
        if not _reaches(flow.axes, outer, outside, window):
            return outer
        m *= 2
    raise Undecided("swept-domain refinement did not certify",
                    bound=SWEEP_CAP)


# ---------------------------------------------------------------------------
# finite-time properness and open definedness

def _forward_invariant(axes, e: BoxSet) -> bool:
    """Does no orbit leave E, i.e. is Dom F_E all of R>=0 x E?"""
    return not _reaches(axes, e, e.complement(), _tau_all())


def _reaches(axes, src: BoxSet, dst: BoxSet, horizon: Interval) -> bool:
    """Does the orbit of some point of src meet dst at a time in horizon?

    Exact: the time-tau image of a box is the box of its per-axis images,
    and per axis the tau at which the image of one interval meets another
    form one interval, so a pair of boxes meets at some tau iff the per-axis
    intervals and the horizon have a common point.  src lies in the
    product of the natural ranges, as :func:`_axis_escape_tau` needs: each
    caller passes a set in the carrier or the closure of one, and those
    ranges are closed."""
    for g in src.boxes:
        for c in dst.boxes:
            taus = horizon
            for rule, gi, ci in zip(axes, g, c):
                axis_taus = _axis_escape_tau(rule, gi, ci)
                taus = None if axis_taus is None else isect_iv(taus, axis_taus)
                if taus is None:
                    break
            if taus is not None:
                return True
    return False


def _axis_escape_tau(rule: AxisRule, g: Interval, e: Interval) -> Interval | None:
    """The tau >= 0 where the time-tau image of g meets e, as one interval,
    for g inside the rule's natural range.

    The time-tau preimage of e is one interval whose ends are affine in tau
    (:meth:`AxisRule.pullback`), so the overlap with g reduces to two
    one-variable affine key inequalities."""
    ends = rule.pullback(e)
    if ends is None:
        return None
    (lo, lo_closed, v_lo), (hi, hi_closed, v_hi) = ends
    return _solve_overlap(g, lo, lo_closed, v_lo, hi, hi_closed, v_hi)


def _solve_overlap(g: Interval, plo: Cut, plo_closed: bool, slope_lo: Fraction,
                   phi: Cut, phi_closed: bool, slope_hi: Fraction) -> Interval | None:
    """tau-interval where g meets [plo + slope_lo*tau, phi + slope_hi*tau].

    The two conditions are g.lo <= phi + slope_hi*tau and
    plo + slope_lo*tau <= g.hi; the second, with both sides negated, is
    -g.hi <= -plo - slope_lo*tau."""
    c1 = _solve_key_le((g.lo, 0 if g.lo_closed else 1),
                       (phi, 0 if phi_closed else -1), slope_hi)
    c2 = _solve_key_le((-g.hi, 0 if g.hi_closed else 1),
                       (-plo, 0 if plo_closed else -1), -slope_lo)
    out = _tau_all()
    for c in (c1, c2):
        if c is None:
            return None
        out = isect_iv(out, c)
        if out is None:
            return None
    return out


def _tau_all() -> Interval:
    return Interval(Cut.finite(0), POS_INF, True, False)


def _solve_key_le(const_key, aff_key, slope: Fraction) -> Interval | None:
    """{tau >= 0 : const + eps_c <= aff + slope*tau + eps_a} as an interval.
    The affine key, the upper end of a nonempty pulled-back interval or the
    negated lower end, is never -inf; the constant key, the lower end of a
    nonempty box interval or the negated upper end, is never +inf."""
    c, eps_c = const_key
    a, eps_a = aff_key
    if a.sign > 0 or c.sign < 0:
        return _tau_all()
    if slope == 0:
        return _tau_all() if (c.value, eps_c) <= (a.value, eps_a) else None
    star = _sub_div(c.value, a.value, slope)
    at_star_ok = eps_c <= eps_a
    sign = star.numerator
    if slope.numerator > 0:       # tau >= star
        if sign < 0:
            return _tau_all()
        return Interval(Cut(0, star), POS_INF, at_star_ok, False)
    if sign < 0 or sign == 0 and not at_star_ok:    # tau <= star
        return None
    return Interval(Cut.finite(0), Cut(0, star), True, at_star_ok)


def _escape_exists(flow: ExactSemiflow, e: BoxSet) -> bool:
    """Does some boundary point of E flow back into E within (0, 1]?"""
    return _reaches(flow.axes, e.closure().difference(e), e,
                    Interval(Cut.finite(0), Cut.finite(1), False, True))


_PROBE_TIMES = (Fraction(1, 2), Fraction(1), Fraction(2))


def is_finite_time_proper(flow: ExactSemiflow, e: BoxSet) -> bool:
    """Exactly decide finite-time properness of the induced semiflow F_E.

    Compact or closed sets are finite-time proper for these total flows.
    When the induced domain is full, failures are exactly the boundary
    points that flow back into E within a positive time window (any window
    is equivalent, by the short-time reduction).  Otherwise single-time
    failures are definitive; if none is found the question is undecided.
    """
    flow.check_set(e)
    if e.is_compact() or e.is_closed():
        return True
    if _forward_invariant(flow.axes, e):
        return not _escape_exists(flow, e)
    for t in _PROBE_TIMES:
        dom = dom_interval(flow, e, t)
        if not time_map(flow, t).is_proper_on(dom, e):
            return False
    raise Undecided("finite-time properness undecided for this set",
                    bound=max(_PROBE_TIMES))


def is_openly_defined_cont(flow: ExactSemiflow, e: BoxSet) -> bool:
    """Exactly decide whether Dom F_E is open in R>=0 x E where possible."""
    flow.check_set(e)
    if _forward_invariant(flow.axes, e):
        return True
    if e.is_open():
        return True
    for t in _PROBE_TIMES:
        dom = dom_interval(flow, e, t)
        if not dom.is_open_in(e):
            return False
    raise Undecided("open-definedness undecided for this set",
                    bound=max(_PROBE_TIMES))


# ---------------------------------------------------------------------------
# searches over rational time

def _candidate_times(flow: ExactSemiflow, sets: list[BoxSet],
                     bound) -> list[Fraction]:
    """The sorted candidate times in [0, bound]: 0, each gap |b1 - b2|/v
    between boundary values of the sets and clamps, over each speed v, the
    integers 1..4, the midpoint of each two consecutive ones, and the
    largest one plus 1.

    It runs on integer numerators over common denominators: the values
    over L, the lcm of their denominators, and the times over Q = 2*L*M,
    with M the lcm of the speeds' numerators, so that every gap over a
    speed and every midpoint is an integer over Q.  A Fraction is built
    only for each time kept (``kernel_oracles.oracle_candidate_times``
    under ``tests/`` is the Fraction version)."""
    ratios = {c.value.as_integer_ratio() for s in sets for b in s.boxes
              for iv in b for c in (iv.lo, iv.hi) if c.sign == 0}
    ratios.update(x.as_integer_ratio() for r in flow.axes
                  for x in r.boundary_values())
    speeds = {abs(r.velocity).as_integer_ratio() for r in flow.axes
              if r.velocity != 0}
    bn, bd = bound.as_integer_ratio()
    big_l = lcm(*(d for _, d in ratios))
    big_d = big_l * lcm(*(n for n, _ in speeds))
    big_q = 2 * big_d
    times = {0}
    if speeds:
        # the largest gap over L that a speed (n, d) turns into a time
        # <= bound is bn*L*n // (d*bd)
        limits = {(n, d): bn * big_l * n // (d * bd) for n, d in speeds}
        most = max(limits.values())
        nums = sorted({n * (big_l // d) for n, d in ratios})
        gaps = set()
        for i, x in enumerate(nums):
            for y in nums[i + 1:]:
                if y - x > most:
                    break
                gaps.add(y - x)
        for (n, d), limit in limits.items():
            scale = 2 * d * (big_d // (big_l * n))     # a gap over L -> Q
            times.update(g * scale for g in gaps if g <= limit)
    times.update(k * big_q for k in range(1, min(int(bound), 4) + 1))
    ordered = sorted(times)           # all even, so midpoints are integers
    kept = set(ordered)
    kept.update((x + y) // 2 for x, y in zip(ordered, ordered[1:]))
    top = ordered[-1] + big_q
    if top * bd <= bn * big_q:
        kept.add(top)
    return [Fraction(t, big_q) for t in sorted(kept) if t * bd <= bn * big_q]


class _ContContext:
    """Search state over times in R>=0: the absorption tests of a pair,
    cached per candidate time.  Swept domains and preimages are memoized
    on the flow; both are read off the axes, so a search builds no time
    map.

    The times are a finite rational candidate set, so a failed search is
    never complete, and either pair may exist."""

    complete = False

    def __init__(self, flow, e, e2, bound):
        self.flow, self.e, self.e2 = flow, e, e2
        self.possible = {1: True, 2: True}
        self.bound = rat(bound)
        self.times = _candidate_times(flow, [e, e2], self.bound)
        self._c1: dict = {}
        self._c2: dict = {}

    def _absorbed(self, tests, e, e2, a, b) -> bool:
        """D_b(e) <= F_a^-1(e2), cached in ``tests`` by the integer
        ratios of (a, b)."""
        key = (a.as_integer_ratio(), b.as_integer_ratio())
        hit = tests.get(key)
        if hit is None:
            hit = tests[key] = dom_interval(self.flow, e, b).subset_of(
                preimage(self.flow, e2, a))
        return hit

    def cond1(self, a, b) -> bool:
        return self._absorbed(self._c1, self.e, self.e2, a, b)

    def cond2(self, delta, gamma) -> bool:
        return self._absorbed(self._c2, self.e2, self.e, delta, gamma)

    def last(self, which, i):
        """The end of the index range of every gallop: the last time."""
        return len(self.times)


# ---------------------------------------------------------------------------
# invariant parts

def invariant_part_F(flow, e: BoxSet):
    """Exact invariant part via the rest-point closed form, else Undecided.

    For these monotone product flows every invariant set that is bounded
    along each moving axis must sit on the rest set; boundedness of E along
    the moving axes therefore gives I_F(E) = Fix(F) n E exactly; an
    unbounded moving axis raises Undecided with no bound."""
    flow.check_set(e)
    for k, r in enumerate(flow.axes):
        if r.kind == "identity" or r.velocity == 0:
            continue
        if r.kind == "translation" and not e.axis_bounded(k):
            reason = "translation axis unbounded in E"
        elif r.kind == "floor" and not all(b[k].hi.is_finite for b in e.boxes):
            reason = "floor axis unbounded above in E"
        elif r.kind == "ceil" and not all(b[k].lo.is_finite for b in e.boxes):
            reason = "ceil axis unbounded below in E"
        else:
            continue
        # F^1(D_1(E)): the outer approximant of dynamics.invariant_part_outer
        raise Undecided(reason, outer=time_map(flow, 1).image(
            dom_interval(flow, e, 1)))
    return flow.fixed_set().intersect(e)
