"""Time in N: what the discrete map types answer as systems.

A system is its own time domain: the map and flow types answer what depends
on time, and :mod:`conley_kernel.dynamics` and :mod:`conley_kernel.conley`
call them directly.  Each answers ``carrier_name``, ``default_bound``,
``search_context`` (the times and bound of a search, and whether it is
complete), ``time_map`` f^t, ``dom`` D_t(E) (the points whose orbit segment over [0, t] stays in E),
``preimage_n`` f^-t(A), ``interior_of`` (relative to its carrier),
``invariant_part``, ``check_invariant`` (the precondition on S) and the
``weak_compactifiability_checks`` of the induced system; a realized map
answers ``after``, g o f.  Set algebra and one-step map operations
(``image``, ``preimage``, ``dom_step``, ``restrict``, ...) live on the set
and map types.

:class:`DiscreteTime` is the base of :class:`~conley_kernel.finite.
FinitePartialMap` and :class:`~conley_kernel.affine.PiecewiseAffineMap`,
whose modules give ``time_map`` (their ``power``) and ``after`` (their
``compose``).  It is the one place where D_n(E) and f^-n(A) are built, by
one step routine that memoizes them in a field of the map, so a memo lives
as long as its map and no two maps share one.  Time in R>=0 is
:class:`~conley_kernel.semiflow.ExactSemiflow`.
"""

from __future__ import annotations

import threading

from . import dynamics


class DiscreteTime:
    """Time in N: f^t is the t-th power, and a search tests 0..bound.
    D_t(E) and f^-t(A) are built step by step by :meth:`_iterate` and kept
    in the map's ``_iterates``, so a smaller time costs a lookup and a
    larger one a step per missing time.  A sequence grows only under
    ``_grow``, one lock for both map types, taken only when the memo
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
        return dynamics._SearchContext(self, e, e2, range(bound + 1), bound)

    def invariant_part(self, e, cap=None):
        return dynamics.invariant_part_exact(self, e, cap)

    def check_invariant(self, s):
        self.check_set(s)
        if not s.subset_of(self.domain):
            raise ValueError("S is not invariant: S is not contained in Dom f")
        if self.image(s) != s:
            raise ValueError("S is not invariant: f(S) != S")

    def weak_compactifiability_checks(self, e):
        dom = self.dom(e, 1)
        return [("induced map proper", self.is_proper_on(dom, e)),
                ("induced domain open in E", dom.is_open_in(e))]
