"""Piecewise-affine partial self-maps of R^n with exact rational arithmetic.

A map consists of finitely many pieces (box-set domain, componentwise affine
rule).  Piece domains are pairwise disjoint and the map is continuous on its
domain; both facts are checked exactly at construction.  Composites are built
with shrunken domains, so they stay continuous by construction and skip the
re-check.

Each map memoizes its set images and preimages by argument set (box sets
hash and compare as sets) in fields of the map object, so a memo lives as
long as its map and no two maps or parsed documents share one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .boxes import Box, BoxSet, Interval, rat, RatLike


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

    def image_interval(self, iv: Interval) -> Interval:
        if self.slope == 0:
            return Interval.point(self.intercept)
        lo = iv.lo.scaled(self.slope).shifted(self.intercept)
        hi = iv.hi.scaled(self.slope).shifted(self.intercept)
        if self.slope > 0:
            return Interval(lo, hi, iv.lo_closed, iv.hi_closed)
        return Interval(hi, lo, iv.hi_closed, iv.lo_closed)

    def preimage_interval(self, iv: Interval) -> Interval | None:
        """Preimage as an interval; full line when constant rule hits iv,
        None when it misses."""
        if self.slope == 0:
            return Interval.line() if iv.contains(self.intercept) else None
        inv = AffineRule(1 / self.slope, -self.intercept / self.slope)
        return inv.image_interval(iv)

    def compose(self, inner: "AffineRule") -> "AffineRule":
        return AffineRule(self.slope * inner.slope,
                          self.slope * inner.intercept + self.intercept)


Rules = tuple[AffineRule, ...]


def rules_image_box(rules: Rules, b: Box) -> Box:
    return tuple(r.image_interval(iv) for r, iv in zip(rules, b))


def rules_preimage_box(rules: Rules, b: Box) -> Box | None:
    out = []
    for r, iv in zip(rules, b):
        pre = r.preimage_interval(iv)
        if pre is None:
            return None
        out.append(pre)
    return tuple(out)


def rules_preimage(rules: Rules, a: BoxSet) -> BoxSet:
    boxes = []
    for b in a.boxes:
        pre = rules_preimage_box(rules, b)
        if pre is not None:
            boxes.append(pre)
    return BoxSet.of(a.dimension, boxes)


def rules_agree_on(r1: Rules, r2: Rules, region: BoxSet) -> bool:
    """Exactly decide whether two componentwise rules coincide on a box set."""
    if region.is_empty:
        return True
    for k, (a, b) in enumerate(zip(r1, r2)):
        dm = a.slope - b.slope
        dq = a.intercept - b.intercept
        if dm == 0 and dq == 0:
            continue
        if dm == 0:
            return False
        c = -dq / dm
        slab = BoxSet.of(region.dimension, [tuple(
            Interval.point(c) if i == k else Interval.line()
            for i in range(region.dimension))])
        if not region.subset_of(slab):
            return False
    return True


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

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(dimension: int, pieces: Iterable[Piece]) -> "PiecewiseAffineMap":
        ps = tuple(p for p in pieces if not p.domain.is_empty)
        for p in ps:
            if p.domain.dimension != dimension:
                raise ValueError("piece dimension mismatch")
        _check_disjoint(ps)
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
            self._images[a] = BoxSet.of(self.dimension, [
                rules_image_box(p.rules, b)
                for p in self.pieces for b in a.intersect(p.domain).boxes])
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
        remaining coordinates converging (detected on each unbounded box via
        the closed per-axis image hull against y).
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
            if not zero_axes:
                continue
            for b in part.boxes:
                if all(b[k].is_bounded for k in zero_axes):
                    continue
                limit_box = tuple(
                    Interval.point(p.rules[k].intercept) if k in zero_axes
                    else p.rules[k].image_interval(b[k].closure())
                    for k in range(self.dimension))
                if not y.intersect(BoxSet.of(self.dimension, [limit_box])).is_empty:
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


def _check_disjoint(pieces: tuple[Piece, ...]):
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            if not pieces[i].domain.intersect(pieces[j].domain).is_empty:
                raise ValueError("piece domains overlap")


def _check_continuity(pieces: tuple[Piece, ...]):
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            di, dj = pieces[i].domain, pieces[j].domain
            meet = di.intersect(dj.closure()).union(dj.intersect(di.closure()))
            if not rules_agree_on(pieces[i].rules, pieces[j].rules, meet):
                raise ValueError("map is discontinuous across piece boundary")
