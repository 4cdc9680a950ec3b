"""Time domains: one theory over discrete and continuous time.

A carrier is a time domain and nothing more.  The set algebra and topology
live on the set types (:class:`~conley_kernel.finite.FiniteSubset`,
:class:`~conley_kernel.boxes.BoxSet`: ``intersect``, ``subset_of``, ``==``,
``closure``, ``is_compact``, ``is_open_in``, ...) and the partial-map
operations on the map types (:class:`~conley_kernel.finite.FinitePartialMap`,
:class:`~conley_kernel.affine.PiecewiseAffineMap`: ``domain``, ``image``,
one-step ``preimage``, the swept-domain step ``dom_step`` (E n f^-1(D)),
``restrict``, ``is_proper_on``, ``check_set`` and
``maps_equal``, which is ``==`` on both, as each is held in a canonical
form; :class:`~conley_kernel.semiflow.ExactSemiflow` has ``domain`` and
``check_set``).  :mod:`conley_kernel.dynamics` and
:mod:`conley_kernel.conley` call those directly and ask the carrier only for
what depends on time:

- its name, default search bound and the search context over its times;
- composition of realized maps and the time-t map f^t, the swept domain
  D_t(E) (the points whose orbit segment over [0, t] stays in E) and the
  time-t preimage, each memoized on the system;
- the invariant-part strategy and the invariance precondition on S;
- interior relative to the carrier;
- the weak-compactifiability checks of the induced system.

Time in N: :class:`DiscreteTime`, with one instance for finite maps (searches
derive a complete bound) and one for piecewise-affine maps on rational box
sets.  Its f^t is the map type's ``power``; it is the one place where D_n(E)
and f^-n(A) are built: by one step routine that memoizes them in a field of
the map, so a memo lives as long as its map and no two maps share one.
Time in R>=0: :class:`SemiflowCarrier`, which takes its time maps,
preimages, swept domains and candidate times from
:mod:`conley_kernel.semiflow`, where the first three are memoized on the
flow; preimages and convex swept domains are read off the flow's axis
rules, box by box, and build no time map; its realized maps are piecewise
affine.

This module imports no carrier module, so a process loads only the
carriers its documents use.  Each map module enters its map type in the
carrier table with :func:`register` as it loads, so :func:`carrier_for` is
one lookup that imports nothing; a carrier imports the modules of its maps
and time functions on first use and keeps them, so that no import runs
on a request.
"""

from __future__ import annotations

import threading
from functools import cached_property
from importlib import import_module

from .errors import Undecided

DEFAULT_INTERVAL_BOUND = 64
DEFAULT_TIME_BOUND = 8


class DiscreteTime:
    """Time in N: f^t is the t-th power, the ``power`` of ``maps``, the
    module of the realized maps, named by ``module`` and imported on first
    use; its ``compose`` and ``power`` are looked up at call time, so
    wrappers installed on the module take effect.
    D_t(E) and f^-t(A) are built step by step by :meth:`_iterate` and kept
    in the map's ``_iterates``, so a smaller time costs a lookup and a
    larger one a step per missing time.  A sequence grows only under
    ``_grow``, taken only when the memo misses, so a memo hit costs no lock;
    without it two threads that both read length k would both append step
    k, and every later index would be off by one."""

    def __init__(self, name: str, default_bound, module: str):
        self.name, self.default_bound = name, default_bound
        self.module = module
        self._grow = threading.Lock()

    @cached_property
    def maps(self):
        return import_module(f"{__package__}.{self.module}")

    def compose(self, g, f):
        return self.maps.compose(g, f)

    def time_map(self, f, t):
        return self.maps.power(f, t)

    def _iterate(self, f, a, kind, t):
        """The t-th set from A by the step of ``kind``, "dom" (D -> A n
        f^-1(D), ``dom_step``) or "preimage" (D -> f^-1(D)), memoized on f;
        once a step returns its input, the sequence is frozen into a tuple."""
        if t < 0:
            raise ValueError("negative power")
        seq = f._iterates.get((a, kind))
        if seq is None:         # a set equal to a key has passed the check
            f.check_set(a)
            seq = f._iterates.setdefault((a, kind), [a])
        if len(seq) <= t and isinstance(seq, list):
            with self._grow:
                seq = f._iterates[a, kind]      # it may have become a tuple
                while len(seq) <= t and isinstance(seq, list):
                    nxt = f.dom_step(a, seq[-1]) if kind == "dom" else \
                        f.preimage(seq[-1])
                    if nxt == seq[-1]:
                        seq = f._iterates[a, kind] = tuple(seq)
                    else:
                        seq.append(nxt)
        return seq[min(t, len(seq) - 1)]

    def preimage(self, f, a, t=1):
        """f^-t(A), built as f^-1(f^-(t-1)(A))."""
        return self._iterate(f, a, "preimage", t)

    def dom(self, f, e, t):
        """D_t(E) = E n f^-1(D_{t-1}(E)), the meet of f^-i(E), i <= t."""
        return self._iterate(f, e, "dom", t)

    def stab(self, f, e, cap) -> int:
        """The first n < cap with D_{n+1}(E) = D_n(E), else cap."""
        self.dom(f, e, cap)
        seq = f._iterates[e, "dom"]
        return min(len(seq) - 1, cap) if isinstance(seq, tuple) else cap

    def interior(self, f, a):
        return a.interior()

    @cached_property
    def _dynamics(self):
        """dynamics, which imports this module, imported once, not per call."""
        from . import dynamics
        return dynamics

    def search_context(self, f, e, e2, bound):
        return self._dynamics._SearchContext(
            f, e, e2, self.default_bound if bound is None else bound)

    def invariant_part(self, f, e, cap=None):
        return self._dynamics.invariant_part_exact(
            f, e, self.default_bound if cap is None else cap)

    def check_invariant(self, f, s):
        f.check_set(s)
        if not s.subset_of(f.domain):
            raise ValueError("S is not invariant: S is not contained in Dom f")
        if f.image(s) != s:
            raise ValueError("S is not invariant: f(S) != S")

    def weak_compactifiability_checks(self, f, e):
        dom = self.dom(f, e, 1)
        return [("induced map proper", f.is_proper_on(dom, e)),
                ("induced domain open in E", dom.is_open_in(e))]


class SemiflowCarrier:
    """Time in R>=0 on box sets inside the flow's carrier.

    Realized maps (time maps, cross maps) are piecewise affine, those of
    ``maps``; the time-domain functions are those of ``sf``.  Both modules
    are imported on first use and looked up at call time."""

    name = "semiflow"
    default_bound = DEFAULT_TIME_BOUND

    @cached_property
    def maps(self):
        from . import affine
        return affine

    @cached_property
    def sf(self):
        from . import semiflow
        return semiflow

    def compose(self, g, f):
        return self.maps.compose(g, f)

    def time_map(self, f, t):
        return self.sf.time_map(f, t)

    def preimage(self, f, a, t=1):
        return self.sf.preimage(f, a, t)

    def dom(self, f, e, t):
        return self.sf.dom_interval(f, e, t)

    def interior(self, f, a):
        return a.interior_in(f.carrier)

    def search_context(self, f, e, e2, bound):
        return self.sf._ContContext(
            f, e, e2, self.default_bound if bound is None else bound)

    def invariant_part(self, f, e, cap=None):
        return self.sf.invariant_part_F(f, e)

    def check_invariant(self, f, s):
        """S must be a set of rest points; unbounded S is undecided."""
        f.check_set(s)
        if s.is_empty:
            return
        if not s.is_bounded and any(r.kind != "identity" and r.velocity != 0
                                    for r in f.axes):
            raise Undecided("invariance of an unbounded set is undecided")
        if not s.subset_of(f.fixed_set()):
            raise ValueError("S is not invariant under the semiflow")

    def weak_compactifiability_checks(self, f, e):
        return [("induced semiflow finite-time proper",
                 self.sf.is_finite_time_proper(f, e)),
                ("induced semiflow openly defined",
                 self.sf.is_openly_defined_cont(f, e))]


FINITE = DiscreteTime("finite", None, "finite")  # searches derive a complete bound
INTERVAL = DiscreteTime("interval", DEFAULT_INTERVAL_BOUND, "affine")
SEMIFLOW = SemiflowCarrier()

# map type -> carrier, entered by each map module as it loads, so that a
# lookup imports nothing
_CARRIER_OF: dict = {}


def register(map_type, carrier):
    _CARRIER_OF[map_type] = carrier


def carrier_for(f):
    try:
        return _CARRIER_OF[type(f)]
    except KeyError:
        raise TypeError(f"no carrier for {type(f).__name__}") from None
