"""Piecewise-affine partial self-maps of R^n with exact rational arithmetic.

A map consists of finitely many pieces (box-set domain, componentwise affine
rule).  Piece domains are pairwise disjoint and the map is continuous on its
domain; both facts are checked exactly at construction.  Composites are built
with shrunken domains, so they stay continuous by construction and skip the
re-check.

Set maps relabel the canonical form of :mod:`conley_kernel.boxes` in one
node walk (`_map_node`): a nonzero slope moves the breakpoints of its axis
and keeps their values, a zero slope evaluates or projects its axis.

Each map memoizes its set images and preimages by argument set (box sets
hash and compare as sets), and the powers f^t, D_n(E) and f^-n(A) that
:class:`conley_kernel.carriers.DiscreteTime` builds, in fields of the map
object, so a memo lives as long as its map and no two maps or parsed
documents share one.  :func:`power` stays the from-scratch reference.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .boxes import BoxSet, _node, _union_all, rat, RatLike


@dataclass(frozen=True)
class AffineRule:
    """One axis of a componentwise affine rule: x -> slope*x + intercept."""

    slope: Fraction
    intercept: Fraction

    @staticmethod
    def of(slope: RatLike, intercept: RatLike) -> "AffineRule":
        return AffineRule(rat(slope), rat(intercept))

    def apply(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept

    def compose(self, inner: "AffineRule") -> "AffineRule":
        return AffineRule(self.slope * inner.slope,
                          self.slope * inner.intercept + self.intercept)


Rules = tuple[AffineRule, ...]


def _map_node(rules: Rules, node, depth: int, pre: bool):
    """The node of the preimage (pre) or image of node, a set over the axes
    from depth on, under rules.

    Before: along axis depth, node steps through breakpoints (v, e) with
    values over the deeper axes.  After: x -> m*x + q with m != 0 is a
    monotone bijection of the axis, so it carries the step past (v, e) to
    the step past (m*v + q, e) if m > 0 (its inverse to the step past
    ((v - q)/m, e)); if m < 0 the steps run backwards and "just before"
    swaps with "just after" (e -> 1 - e).  With m = 0
    every point goes to q: the preimage is the value at q on a free axis,
    the image the union of all values on the point q.  Breakpoints stay
    distinct, so the result is canonical once each breakpoint whose mapped
    value equals the one before it is dropped (a deeper zero slope can
    merge values)."""
    if node is True:
        if pre or depth == len(rules):
            return True
        node = ((), (True,))      # the image of the free axis at depth
    if node is False:
        return False
    keys, vals = node
    r = rules[depth]
    m, q = r.slope, r.intercept
    if m == 0:
        if pre:
            child = vals[bisect_right(keys, (q, 0))]
            return _node([], [_map_node(rules, child, depth + 1, pre)])
        child = _map_node(rules, _union_all(list(vals)), depth + 1, pre)
        return _node([(q, 0), (q, 1)], [False, child, False])
    mapped = [_map_node(rules, v, depth + 1, pre) for v in vals]
    move = (lambda v: (v - q) / m) if pre else (lambda v: m * v + q)
    if m > 0:
        steps = [(move(v), e) for v, e in keys]
    else:
        steps = [(move(v), 1 - e) for v, e in reversed(keys)]
        mapped.reverse()
    out_keys, out_vals = [], [mapped[0]]
    for k, v in zip(steps, mapped[1:]):
        if v != out_vals[-1]:
            out_keys.append(k)
            out_vals.append(v)
    return _node(out_keys, out_vals)


def rules_preimage(rules: Rules, a: BoxSet) -> BoxSet:
    return BoxSet(a.dimension, _map_node(rules, a.node, 0, True))


def rules_image(rules: Rules, a: BoxSet) -> BoxSet:
    return BoxSet(a.dimension, _map_node(rules, a.node, 0, False))


def rules_agree_on(r1: Rules, r2: Rules, region: BoxSet) -> bool:
    """Exactly decide whether two componentwise rules coincide on a box set:
    whether region lies in the zero set of their difference."""
    d = region.dimension
    diff = tuple(AffineRule(a.slope - b.slope, a.intercept - b.intercept)
                 for a, b in zip(r1, r2))
    return region.is_empty or region.subset_of(
        rules_preimage(diff, BoxSet.points([(0,) * d], d)))


@dataclass(frozen=True)
class Piece:
    domain: BoxSet
    rules: Rules

    @staticmethod
    def of(domain: BoxSet, rules: Sequence[AffineRule]) -> "Piece":
        rules = tuple(rules)
        if len(rules) != domain.dimension:
            raise ValueError("rule count must match dimension")
        return Piece(domain, rules)


@dataclass(frozen=True)
class PiecewiseAffineMap:
    dimension: int
    pieces: tuple[Piece, ...]
    _images: dict = field(default_factory=dict, init=False, compare=False,
                          hash=False, repr=False)
    _preimages: dict = field(default_factory=dict, init=False, compare=False,
                             hash=False, repr=False)
    _iterates: dict = field(default_factory=dict, init=False, compare=False,
                            hash=False, repr=False)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(dimension: int, pieces: Iterable[Piece]) -> "PiecewiseAffineMap":
        ps = tuple(p for p in pieces if not p.domain.is_empty)
        seen = BoxSet.empty(dimension)
        for p in ps:
            if p.domain.dimension != dimension:
                raise ValueError("piece dimension mismatch")
            if not seen.intersect(p.domain).is_empty:
                raise ValueError("piece domains overlap")
            seen = seen.union(p.domain)
        _check_continuity(ps)
        return PiecewiseAffineMap(dimension, ps)

    @staticmethod
    def _raw(dimension: int, pieces: Iterable[Piece]) -> "PiecewiseAffineMap":
        # for composites/restrictions, whose continuity is inherited
        return PiecewiseAffineMap(
            dimension, tuple(p for p in pieces if not p.domain.is_empty))

    @staticmethod
    def single(rules: Sequence[AffineRule], domain: BoxSet | None = None,
               dimension: int | None = None) -> "PiecewiseAffineMap":
        if domain is None:
            if dimension is None:
                dimension = len(rules)
            domain = BoxSet.full(dimension)
        return PiecewiseAffineMap.of(domain.dimension,
                                     [Piece.of(domain, rules)])

    @staticmethod
    def identity(dimension: int) -> "PiecewiseAffineMap":
        rules = tuple(AffineRule.of(1, 0) for _ in range(dimension))
        return PiecewiseAffineMap.single(rules, BoxSet.full(dimension))

    @staticmethod
    def affine_1d(slope: RatLike, intercept: RatLike,
                  domain: BoxSet | None = None) -> "PiecewiseAffineMap":
        return PiecewiseAffineMap.single((AffineRule.of(slope, intercept),),
                                         domain if domain is not None else BoxSet.full(1))

    # -- structure ---------------------------------------------------------

    @cached_property
    def domain(self) -> BoxSet:
        return BoxSet.union_all(self.dimension, (p.domain for p in self.pieces))

    def check_set(self, e: BoxSet):
        if e.dimension != self.dimension:
            raise ValueError("carrier mismatch: dimension differs")

    def restrict(self, s: BoxSet) -> "PiecewiseAffineMap":
        return PiecewiseAffineMap._raw(
            self.dimension,
            [Piece(p.domain.intersect(s), p.rules) for p in self.pieces])

    # -- evaluation and set maps --------------------------------------------

    def eval_point(self, pt: Sequence[RatLike]) -> tuple[Fraction, ...] | None:
        qs = [rat(x) for x in pt]
        for p in self.pieces:
            if p.domain.contains_point(qs):
                return tuple(r.apply(q) for r, q in zip(p.rules, qs))
        return None

    def image(self, a: BoxSet) -> BoxSet:
        if a not in self._images:
            self._images[a] = BoxSet.union_all(self.dimension, (
                rules_image(p.rules, a.intersect(p.domain))
                for p in self.pieces))
        return self._images[a]

    def preimage(self, a: BoxSet) -> BoxSet:
        if a not in self._preimages:
            self._preimages[a] = BoxSet.union_all(self.dimension, (
                rules_preimage(p.rules, a).intersect(p.domain)
                for p in self.pieces))
        return self._preimages[a]

    def is_proper_on(self, d: BoxSet, y: BoxSet) -> bool:
        """Exactly decide properness of self restricted to d, as a map into y.

        The restriction fails to be proper iff some sequence in d escaping d
        has images converging in y.  Escapes are classified per affine piece:
        either to a finite boundary point (the piece-closure minus d meets the
        rule preimage of y) or to infinity along a slope-zero axis with the
        remaining coordinates converging (the rule image of the closed boxes
        unbounded along such an axis meets y).
        """
        if not d.subset_of(self.domain):
            raise ValueError("d must be contained in Dom f")
        if not self.image(d).subset_of(y):
            raise ValueError("f(d) must be contained in y")
        for p in self.pieces:
            part = d.intersect(p.domain)
            if part.is_empty:
                continue
            escape = part.closure().difference(d)
            if not escape.intersect(rules_preimage(p.rules, y)).is_empty:
                return False
            zero_axes = [k for k, r in enumerate(p.rules) if r.slope == 0]
            escaping = BoxSet.of(self.dimension, [
                b for b in (part.boxes if zero_axes else ())
                if not all(b[k].is_bounded for k in zero_axes)])
            if not y.intersect(rules_image(p.rules, escaping.closure())).is_empty:
                return False
        return True

    # -- comparisons ---------------------------------------------------------

    def equal_on(self, other: "PiecewiseAffineMap", region: BoxSet) -> bool:
        """Exact value equality on a region contained in both domains."""
        for p in self.pieces:
            for q in other.pieces:
                r = region.intersect(p.domain).intersect(q.domain)
                if not rules_agree_on(p.rules, q.rules, r):
                    return False
        return True

    def maps_equal(self, other: "PiecewiseAffineMap") -> bool:
        """Exact partial-map equality: same domain set, same values on it."""
        if self.domain != other.domain:
            return False
        return self.equal_on(other, self.domain)


def compose(g: PiecewiseAffineMap, f: PiecewiseAffineMap) -> PiecewiseAffineMap:
    """g after f; Dom(gf) = f^{-1}(Dom g) piecewise."""
    if g.dimension != f.dimension:
        raise ValueError("dimension mismatch")
    pieces = []
    for pf in f.pieces:
        for pg in g.pieces:
            dom = pf.domain.intersect(rules_preimage(pf.rules, pg.domain))
            if dom.is_empty:
                continue
            rules = tuple(rg.compose(rf) for rg, rf in zip(pg.rules, pf.rules))
            pieces.append(Piece(dom, rules))
    return PiecewiseAffineMap._raw(f.dimension, pieces)


def power(f: PiecewiseAffineMap, n: int) -> PiecewiseAffineMap:
    if n < 0:
        raise ValueError("negative power")
    out = PiecewiseAffineMap.identity(f.dimension)
    for _ in range(n):
        out = compose(f, out)
    return out


def _check_continuity(pieces: tuple[Piece, ...]):
    closures = [p.domain.closure() for p in pieces]
    for (p, cp), (q, cq) in combinations(zip(pieces, closures), 2):
        touch = cp.intersect(cq)
        if not touch.is_empty and not rules_agree_on(
                p.rules, q.rules, touch.intersect(p.domain.union(q.domain))):
            raise ValueError("map is discontinuous across piece boundary")
