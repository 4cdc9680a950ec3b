"""Uniform carrier interface: one theory over three carriers, two time domains.

The theory in :mod:`conley_kernel.dynamics` and :mod:`conley_kernel.conley`
is written against this interface only, so one code path serves every
carrier.  A carrier supplies the set algebra and topology of its subsets,
the partial-map operations on realized maps, and the operations that depend
on the time domain:

- the default search bound and the search context over its times;
- the time-t map, the swept domain D_t(E) (the points whose orbit segment
  over [0, t] stays in E) and the time-t preimage;
- the invariant-part strategy and the invariance precondition on S;
- interior relative to the carrier and Dom f ("closure in domain");
- the weak-compactifiability checks of the induced system.

Time in N: the finite carrier (discrete topology, so closure and interior
are the identity, every subset is compact, every partial map is proper and
openly defined; searches derive a complete bound) and the interval carrier
(piecewise-affine maps on rational box sets).  Time in R>=0: the semiflow
carrier, which keeps the interval carrier's box-set operations and takes its
time maps, swept domains and candidate times from
:mod:`conley_kernel.semiflow`.
"""

from __future__ import annotations

from . import affine, finite
from . import semiflow as sf
from .affine import PiecewiseAffineMap
from .finite import FinitePartialMap
from .semiflow import ExactSemiflow

DEFAULT_INTERVAL_BOUND = 64


class _DiscreteTime:
    """Time in N: f^t is the t-th power and D_t(E) the t-fold iterated domain."""

    def time_map(self, f, t):
        return self.power(f, t)

    def preimage(self, f, a, t=1):
        for _ in range(t):
            a = self.preimage_step(f, a)
        return a

    def dom(self, f, e, t):
        """D_t(E): the intersection of f^-i(E) for i = 0..t."""
        if t < 0:
            raise ValueError("negative power")
        self.check_set(f, e)
        d = e
        for _ in range(t):
            d = self.intersect(e, self.preimage(f, d))
        return d

    # dynamics imports this module, so its names are imported at call time
    def search_context(self, f, e, e2, bound):
        from .dynamics import _SearchContext
        return _SearchContext(f, e, e2,
                              self.default_bound if bound is None else bound)

    def invariant_part(self, f, e, cap=None):
        from .dynamics import invariant_part_exact
        return invariant_part_exact(f, e,
                                    self.default_bound if cap is None else cap)

    def check_invariant(self, f, s):
        self.check_set(f, s)
        if not self.is_subset(s, self.map_domain(f)):
            raise ValueError("S is not invariant: S is not contained in Dom f")
        if not self.sets_equal(self.image(f, s), s):
            raise ValueError("S is not invariant: f(S) != S")

    def weak_compactifiability_checks(self, f, e):
        dom = self.dom(f, e, 1)
        return [("induced map proper", self.is_proper_on(f, dom, e)),
                ("induced domain open in E", self.is_open_in(dom, e))]


class FiniteCarrier(_DiscreteTime):
    name = "finite"
    default_bound = None      # searches derive a complete bound

    def check_set(self, f, e):
        if e.space != f.space:
            raise ValueError("carrier mismatch: subset lives on another space")

    def intersect(self, a, b):
        return finite.FiniteSubset(a.space, a.members & b.members)

    def is_subset(self, a, b) -> bool:
        return a.members <= b.members

    def sets_equal(self, a, b) -> bool:
        return a.members == b.members

    # topology (discrete, hence trivial)
    def closure(self, a):
        return a

    def interior(self, f, a):
        return a

    def is_closed(self, a) -> bool:
        return True

    def is_compact(self, a) -> bool:
        return True

    def is_open_in(self, a, b) -> bool:
        if not a.members <= b.members:
            raise ValueError("is_open_in requires a subset")
        return True

    def is_locally_compact(self, a) -> bool:
        return True

    # maps
    def map_domain(self, f):
        return f.domain

    def preimage_step(self, f, a):
        return finite.preimage_step(f, a)

    def image(self, f, a):
        return finite.image(f, a)

    def compose(self, g, f):
        return finite.compose(g, f)

    def power(self, f, n):
        return finite.power(f, n)

    def restrict(self, f, s):
        return finite.restrict(f, s)

    def maps_equal(self, m1, m2) -> bool:
        return m1 == m2

    def is_proper_on(self, f, d, y) -> bool:
        if not d.members <= f.domain.members:
            raise ValueError("d must be contained in Dom f")
        if not finite.image(f, d).members <= y.members:
            raise ValueError("f(d) must be contained in y")
        return True


class IntervalCarrier(_DiscreteTime):
    name = "interval"
    default_bound = DEFAULT_INTERVAL_BOUND

    def check_set(self, f, e):
        if e.dimension != f.dimension:
            raise ValueError("carrier mismatch: dimension differs")

    def intersect(self, a, b):
        return a.intersect(b)

    def is_subset(self, a, b) -> bool:
        return a.subset_of(b)

    def sets_equal(self, a, b) -> bool:
        return a == b

    def closure(self, a):
        return a.closure()

    def interior(self, f, a):
        return a.interior()

    def is_closed(self, a) -> bool:
        return a.is_closed()

    def is_compact(self, a) -> bool:
        return a.is_compact()

    def is_open_in(self, a, b) -> bool:
        return a.is_open_in(b)

    def is_locally_compact(self, a) -> bool:
        return a.is_locally_compact()

    def map_domain(self, f):
        return f.domain

    def preimage_step(self, f, a):
        return f.preimage(a)

    def image(self, f, a):
        return f.image(a)

    def compose(self, g, f):
        return affine.compose(g, f)

    def power(self, f, n):
        return affine.power(f, n)

    def restrict(self, f, s):
        return f.restrict(s)

    def maps_equal(self, m1, m2) -> bool:
        return m1.maps_equal(m2)

    def is_proper_on(self, f, d, y) -> bool:
        return affine.is_proper_on(f, d, y)


class SemiflowCarrier(IntervalCarrier):
    """Time in R>=0 on box sets inside the flow's carrier.

    Realized maps (time maps, cross maps) are piecewise affine, so the map
    operations are the interval carrier's."""

    name = "semiflow"
    default_bound = sf.DEFAULT_TIME_BOUND

    def check_set(self, f, e):
        f.check_set(e)

    def interior(self, f, a):
        return a.interior_in(f.carrier)

    def time_map(self, f, t):
        return sf.time_map(f, t)

    def dom(self, f, e, t):
        return sf.dom_interval(f, e, t)

    def preimage(self, f, a, t=1):
        return a if t == 0 else sf.time_map(f, t).preimage(a)

    def search_context(self, f, e, e2, bound):
        return sf._ContContext(f, e, e2,
                               self.default_bound if bound is None else bound)

    def invariant_part(self, f, e, cap=None):
        return sf.invariant_part_F(f, e)

    def check_invariant(self, f, s):
        """S must be a set of rest points; unbounded S is undecided."""
        f.check_set(s)
        if s.is_empty:
            return
        if not s.is_bounded and any(r.kind != "identity" and r.velocity != 0
                                    for r in f.axes):
            raise sf.Undecided("invariance of an unbounded set is undecided")
        if not s.subset_of(f.fixed_set()):
            raise ValueError("S is not invariant under the semiflow")

    def weak_compactifiability_checks(self, f, e):
        return [("induced semiflow finite-time proper",
                 sf.is_finite_time_proper(f, e)),
                ("induced semiflow openly defined",
                 sf.is_openly_defined_cont(f, e))]


FINITE = FiniteCarrier()
INTERVAL = IntervalCarrier()
SEMIFLOW = SemiflowCarrier()


def carrier_for(f):
    if isinstance(f, FinitePartialMap):
        return FINITE
    if isinstance(f, PiecewiseAffineMap):
        return INTERVAL
    if isinstance(f, ExactSemiflow):
        return SEMIFLOW
    raise TypeError(f"no carrier for {type(f).__name__}")
