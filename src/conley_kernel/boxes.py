"""Exact rational interval and box-set arithmetic.

Sets in R^n are finite unions of axis-aligned boxes whose per-axis factors
are intervals with exact rational (or infinite) endpoints and open/closed
flags.  All operations are exact; no floating point is used anywhere.

Every set has one canonical form (the orthogonal-polyhedra representation
of Bournez, Maler and Pnueli, HSCC 1999).  A set in R^n is a step function
along axis 0: its breakpoints are "just before v" (the step includes v) and
"just after v" (it starts past v), and between two breakpoints the value is
a canonical set in R^(n-1); the whole space and the empty set are the
values true and false in every dimension, and adjacent values differ.
Structural equality (`==`) is therefore set equality in every dimension,
the set operations are merges of two step lists, and the box list a set is
written with does not matter: :attr:`BoxSet.boxes` is derived from the
canonical form.  Each breakpoint key carries an exact integer prefix that
orders most pairs of keys without comparing their rational values (see the
canonical-form comment below).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

Rat = Fraction
RatLike = Union[int, str, Fraction]


def rat(x: RatLike) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class Cut:
    """An extended rational: a finite Fraction or one of the infinities."""

    __slots__ = ("sign", "value")

    def __init__(self, sign: int, value: Fraction):
        self.sign = sign          # -1: -inf, 0: finite, +1: +inf
        self.value = value        # Fraction(0) when infinite

    @staticmethod
    def finite(x: RatLike) -> "Cut":
        return Cut(0, rat(x))

    @property
    def is_finite(self) -> bool:
        return self.sign == 0

    def key(self):
        return (self.sign, self.value)

    def __eq__(self, other):
        return isinstance(other, Cut) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __lt__(self, other):
        return self.key() < other.key()

    def __le__(self, other):
        return self.key() <= other.key()

    def __neg__(self) -> "Cut":
        return Cut(-self.sign, -self.value)

    def __repr__(self):
        if self.sign < 0:
            return "-inf"
        if self.sign > 0:
            return "inf"
        return str(self.value)


NEG_INF = Cut(-1, Fraction(0))
POS_INF = Cut(1, Fraction(0))


def cut(x) -> Cut:
    if isinstance(x, Cut):
        return x
    if isinstance(x, str) and x.strip() in ("inf", "+inf"):
        return POS_INF
    if isinstance(x, str) and x.strip() == "-inf":
        return NEG_INF
    return Cut.finite(x)


@dataclass(frozen=True)
class Interval:
    """A nonempty interval of R with exact endpoints and open/closed flags."""

    lo: Cut
    hi: Cut
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if lo.sign != 0 and self.lo_closed:
            raise ValueError("infinite endpoints must be open")
        if hi.sign != 0 and self.hi_closed:
            raise ValueError("infinite endpoints must be open")
        # _skey(self) > _ekey(self), with the values compared on integer
        # ratios; at equal endpoints only a closed pair is nonempty
        if lo.sign != hi.sign:
            inverted = lo.sign > hi.sign
        else:
            ln, ld = lo.value.as_integer_ratio()
            hn, hd = hi.value.as_integer_ratio()
            x, y = ln * hd, hn * ld
            inverted = x > y or x == y and not (self.lo_closed and
                                                self.hi_closed)
        if inverted:
            raise ValueError(f"empty or inverted interval: {self}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def make(lo, lo_closed: bool, hi, hi_closed: bool) -> "Interval":
        return Interval(cut(lo), cut(hi), bool(lo_closed), bool(hi_closed))

    @staticmethod
    def closed(a, b) -> "Interval":
        return Interval.make(a, True, b, True)

    @staticmethod
    def open(a, b) -> "Interval":
        return Interval.make(a, False, b, False)

    @staticmethod
    def point(a) -> "Interval":
        return Interval.make(a, True, a, True)

    @staticmethod
    def line() -> "Interval":
        return Interval(NEG_INF, POS_INF, False, False)

    # -- queries -----------------------------------------------------------

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def is_bounded(self) -> bool:
        return self.lo.is_finite and self.hi.is_finite

    def contains(self, x: RatLike) -> bool:
        q = Cut.finite(x)
        if self.lo < q < self.hi:
            return True
        if q == self.lo and self.lo_closed:
            return True
        if q == self.hi and self.hi_closed:
            return True
        return False

    def closure(self) -> "Interval":
        return Interval(self.lo, self.hi,
                        self.lo.is_finite or self.lo_closed,
                        self.hi.is_finite or self.hi_closed)

    def __repr__(self):
        l = "[" if self.lo_closed else "("
        r = "]" if self.hi_closed else ")"
        return f"{l}{self.lo}, {self.hi}{r}"


# Boundary keys: (sign, value, eps).  A closed start sits at eps 0, an open
# start just after (+1); symmetrically for ends.  Tuple comparison then gives
# exact endpoint ordering with flags.

def _skey(iv: Interval):
    return (iv.lo.sign, iv.lo.value, 0 if iv.lo_closed else 1)


def _ekey(iv: Interval):
    return (iv.hi.sign, iv.hi.value, 0 if iv.hi_closed else -1)


def isect_iv(a: Interval, b: Interval) -> Interval | None:
    sk = max(_skey(a), _skey(b))
    ek = min(_ekey(a), _ekey(b))
    if sk > ek:
        return None
    return Interval(Cut(sk[0], sk[1]), Cut(ek[0], ek[1]), sk[2] == 0, ek[2] == 0)


Box = tuple[Interval, ...]


# ---------------------------------------------------------------------------
# canonical form
#
# A node is True (the whole space), False (the empty set) or a pair
# (keys, vals) stepping along the first of its axes: keys is a strictly
# increasing tuple of breakpoints "just before v" (e = 0) and "just after v"
# (e = 1), vals holds len(keys) + 1 nodes over the remaining axes, vals[i]
# being the value from keys[i - 1] (or -inf) up to keys[i] (or +inf).
# Adjacent values differ and a pair never stands for a constant set, so
# each set has exactly one node.  A point x lies past the breakpoint k iff
# k <= _key(x, 0).
#
# The key of a breakpoint is (h, v, e) with h = floor(v * 2^64), an exact
# integer filter (built only by _key).  Tuple order on (h, v, e) is the
# order on (v, e): floor is monotone, so h < h' implies v < v', and when
# h = h' the comparison falls through to (v, e).  Equal values have equal
# h, so key equality, and with it node equality and hashing, is equality
# of (v, e).  Most comparisons in a merge end at h, as integer comparisons;
# only values within 2^-64 of each other compare as rationals (in _steps,
# as integer cross products of their ratios).
#
# Every value v is a normalized Fraction.  The arithmetic that makes new
# values (affine images and pull-backs, time maps and crossing times of
# semiflows) runs on integer ratios in _mul_add and _sub_div (Knuth, TAOCP
# Vol. 2, 4.5.1): the operands' numerators and denominators, read with
# as_integer_ratio(), combine as integers, and Fraction(n, d) reduces the
# result by one gcd.  That equals the plain Fraction expression, so the
# keys, and every node and output, are those of Fraction arithmetic.

_FILTER_BITS = 64


def _key(v, e: int) -> tuple:
    """The breakpoint key of value v (a Fraction or int) and side e."""
    n, d = v.as_integer_ratio()
    return ((n << _FILTER_BITS) // d, v, e)


def _mul_add(m, x, q) -> Fraction:
    """m*x + q, for Fractions or ints, as a normalized Fraction."""
    mn, md = m.as_integer_ratio()
    xn, xd = x.as_integer_ratio()
    qn, qd = q.as_integer_ratio()
    d = md * xd
    return Fraction(mn * xn * qd + qn * d, d * qd)


def _sub_div(v, q, m) -> Fraction:
    """(v - q)/m, for Fractions or ints with m != 0, as a normalized
    Fraction."""
    vn, vd = v.as_integer_ratio()
    qn, qd = q.as_integer_ratio()
    mn, md = m.as_integer_ratio()
    return Fraction((vn * qd - qn * vd) * md, vd * qd * mn)


def _is_const(a) -> bool:
    return a is True or a is False


def _node(keys: list, vals: list):
    """The node of a step list whose adjacent values differ."""
    if keys:
        return (tuple(keys), tuple(vals))
    return vals[0] if _is_const(vals[0]) else ((), (vals[0],))


# pointwise boolean operations as truth tables op[x][y]; op[0][0] is false
# for all three, so equal operands need no merge
_OR = ((False, True), (True, True))
_AND = ((False, False), (False, True))
_DIFF = ((False, False), (True, False))


def _with_const(on_false: bool, on_true: bool, a):
    """The pointwise map 0 -> on_false, 1 -> on_true applied to node a."""
    if on_false == on_true:
        return on_false
    return a if on_true else _complement(a)


def _steps(ka: tuple, kb: tuple):
    """Walk the union of two breakpoint tuples in order: yield each
    breakpoint k with the indices i, j of the values of both step lists
    just past k."""
    na, nb = len(ka), len(kb)
    i = j = 0
    while i < na or j < nb:
        if j == nb:
            k = ka[i]
            i += 1
        elif i == na:
            k = kb[j]
            j += 1
        else:
            k = ka[i]
            kj = kb[j]
            h, hj = k[0], kj[0]
            if h == hj and k is not kj:
                # the filters tie: order (v, e) on the values' integer
                # ratios (positive denominators), with no Fraction compare
                n, d = k[1].as_integer_ratio()
                nj, dj = kj[1].as_integer_ratio()
                h, hj = (n * dj, k[2]), (nj * d, kj[2])
            if h < hj:
                i += 1
            elif hj < h:
                k = kj
                j += 1
            else:
                i += 1
                j += 1
        yield k, i, j


def _merge(a, b, op):
    """The pointwise `op` of two nodes: one sweep over the union of their
    breakpoints."""
    if a is True or a is False:
        return _with_const(op[a][0], op[a][1], b)
    if b is True or b is False:
        return _with_const(op[0][b], op[1][b], a)
    if a == b:
        return a if op[1][1] else False
    (ka, va), (kb, vb) = a, b
    prev = _merge(va[0], vb[0], op)
    keys, vals = [], [prev]
    for k, i, j in _steps(ka, kb):
        x, y = va[i], vb[j]
        if (x is True or x is False) and (y is True or y is False):
            v = op[x][y]
        else:
            v = _merge(x, y, op)
        if v != prev:
            keys.append(k)
            vals.append(v)
            prev = v
    return _node(keys, vals)


def _union_all(nodes: list):
    """The union of many nodes, merged pairwise in a balanced tree."""
    if not nodes:
        return False
    while len(nodes) > 1:
        nodes = [_merge(nodes[i], nodes[i + 1], _OR) if i + 1 < len(nodes)
                 else nodes[i] for i in range(0, len(nodes), 2)]
    return nodes[0]


def _subset(a, b) -> bool:
    if a is False or b is True or a == b:
        return True
    if a is True or b is False:
        return False
    (ka, va), (kb, vb) = a, b
    return _subset(va[0], vb[0]) and \
        all(_subset(va[i], vb[j]) for _, i, j in _steps(ka, kb))


def _complement(a):
    if _is_const(a):
        return not a
    keys, vals = a
    return (keys, tuple(_complement(v) for v in vals))


def _closure_or_interior(a, closure: bool):
    """One sweep over the atoms of a along its first axis.

    The atoms are the breakpoint values v and the open intervals between
    them.  An open atom keeps the closure (interior) of its value; a point
    atom takes the closure of the union (the interior of the intersection)
    of its value and its two neighbours' values.  Closure commutes with
    finite unions and interior with finite intersections, so that is the
    merge of the three values already swept: each value is swept once."""
    if _is_const(a):
        return a
    keys, vals = a
    op = _OR if closure else _AND
    swept = [_closure_or_interior(x, closure) for x in vals]
    out_keys, out_vals = [], [swept[0]]
    i, n = 0, len(keys)
    while i < n:
        h, v, e = keys[i]
        left = swept[i]
        if e == 0:
            i += 1
        point = swept[i]
        if i < n and keys[i] == (h, v, 1):
            i += 1
        at_point = _merge(_merge(left, point, op), swept[i], op)
        for k, x in (((h, v, 0), at_point), ((h, v, 1), swept[i])):
            if x != out_vals[-1]:
                out_keys.append(k)
                out_vals.append(x)
    return _node(out_keys, out_vals)


def _box_node(box: Sequence[Interval]):
    node = True
    for iv in reversed(box):
        keys, vals = [], []
        if iv.lo.sign:
            vals.append(node)
        else:
            keys.append(_key(iv.lo.value, 0 if iv.lo_closed else 1))
            vals += [False, node]
        if not iv.hi.sign:
            keys.append(_key(iv.hi.value, 1 if iv.hi_closed else 0))
            vals.append(False)
        node = _node(keys, vals)
    return node


def _node_boxes(a, d: int) -> list[Box]:
    """The disjoint boxes of a node over d axes: one slab per nonempty step
    along the first axis, times the boxes of its value."""
    if _is_const(a):
        return [tuple(Interval.line() for _ in range(d))] if a else []
    keys, vals = a
    out = []
    for i, v in enumerate(vals):
        if v is False:
            continue
        lo, lc = (NEG_INF, False) if i == 0 else \
            (Cut(0, keys[i - 1][1]), keys[i - 1][2] == 0)
        hi, hc = (POS_INF, False) if i == len(keys) else \
            (Cut(0, keys[i][1]), keys[i][2] == 1)
        iv = Interval(lo, hi, lc, hc)
        out.extend((iv,) + rest for rest in _node_boxes(v, d - 1))
    return out


@dataclass(frozen=True)
class BoxSet:
    """A finite union of boxes in R^n, held in its canonical form.

    `==` is set equality.  :attr:`boxes` is a derived decomposition into
    disjoint boxes: slabs along axis 0, each split by the boxes of its
    cross-section, in increasing order.
    """

    dimension: int
    node: object

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(dimension: int, boxes: Iterable[Sequence[Interval]]) -> "BoxSet":
        nodes = []
        for b in boxes:
            if len(b) != dimension:
                raise ValueError("box dimension mismatch")
            nodes.append(_box_node(b))
        return BoxSet(dimension, _union_all(nodes))

    @staticmethod
    def empty(dimension: int) -> "BoxSet":
        return BoxSet(dimension, False)

    @staticmethod
    def full(dimension: int) -> "BoxSet":
        return BoxSet(dimension, True)

    @staticmethod
    def from_intervals(ivs: Iterable[Interval]) -> "BoxSet":
        return BoxSet.of(1, [(iv,) for iv in ivs])

    @staticmethod
    def interval(lo, lo_closed, hi, hi_closed) -> "BoxSet":
        return BoxSet.from_intervals([Interval.make(lo, lo_closed, hi, hi_closed)])

    @staticmethod
    def points(coords: Iterable[Sequence[RatLike]], dimension: int) -> "BoxSet":
        boxes = [tuple(Interval.point(c) for c in pt) for pt in coords]
        return BoxSet.of(dimension, boxes)

    @staticmethod
    def union_all(dimension: int, sets: Iterable["BoxSet"]) -> "BoxSet":
        """The union of many sets, merged pairwise in a balanced tree."""
        nodes = []
        for s in sets:
            if s.dimension != dimension:
                raise ValueError("dimension mismatch")
            nodes.append(s.node)
        return BoxSet(dimension, _union_all(nodes))

    @cached_property
    def boxes(self) -> tuple[Box, ...]:
        return tuple(_node_boxes(self.node, self.dimension))

    @cached_property
    def _hash(self) -> int:
        return hash((self.dimension, self.node))

    def __hash__(self):
        # sets key the memos of maps and flows: hash each node once
        return self._hash

    # -- set algebra -------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.node is False

    def _merged(self, other: "BoxSet", op) -> "BoxSet":
        self._check(other)
        return BoxSet(self.dimension,
                      _merge(self.node, other.node, op))

    def union(self, other: "BoxSet") -> "BoxSet":
        return self._merged(other, _OR)

    def intersect(self, other: "BoxSet") -> "BoxSet":
        return self._merged(other, _AND)

    def difference(self, other: "BoxSet") -> "BoxSet":
        return self._merged(other, _DIFF)

    def complement(self) -> "BoxSet":
        return BoxSet(self.dimension, _complement(self.node))

    def subset_of(self, other: "BoxSet") -> bool:
        self._check(other)
        return _subset(self.node, other.node)

    def contains_point(self, pt: Sequence[RatLike]) -> bool:
        a = self.node
        for x in pt:
            if _is_const(a):
                break
            keys, vals = a
            a = vals[bisect_right(keys, _key(rat(x), 0))]
        return a

    # -- topology ----------------------------------------------------------

    def closure(self) -> "BoxSet":
        return BoxSet(self.dimension,
                      _closure_or_interior(self.node, True))

    def interior(self) -> "BoxSet":
        return BoxSet(self.dimension,
                      _closure_or_interior(self.node, False))

    def interior_in(self, ambient: "BoxSet") -> "BoxSet":
        """Relative interior of self inside the subspace ambient."""
        if not self.subset_of(ambient):
            raise ValueError("interior_in requires a subset of the ambient set")
        return ambient.difference(ambient.difference(self).closure())

    @property
    def is_bounded(self) -> bool:
        return all(iv.is_bounded for b in self.boxes for iv in b)

    def is_closed(self) -> bool:
        return self.closure() == self

    def is_open(self) -> bool:
        return self.interior() == self

    def is_compact(self) -> bool:
        return self.is_bounded and self.is_closed()

    def is_open_in(self, ambient: "BoxSet") -> bool:
        """Relative openness of self inside ambient (requires self <= ambient)."""
        if not self.subset_of(ambient):
            raise ValueError("is_open_in requires a subset of the ambient set")
        rest = ambient.difference(self)
        return self.intersect(rest.closure()).is_empty

    def is_locally_compact(self) -> bool:
        """True iff locally closed, i.e. closure(A) minus A is closed in R^n."""
        return self.closure().difference(self).is_closed()

    # -- geometry helpers ---------------------------------------------------

    def hull_box(self) -> Box | None:
        """Smallest closed box containing the set, or None if empty."""
        if self.is_empty:
            return None
        out = []
        for k in range(self.dimension):
            lo = min((b[k].lo for b in self.boxes), key=Cut.key)
            hi = max((b[k].hi for b in self.boxes), key=Cut.key)
            out.append(Interval(lo, hi,
                                lo.is_finite, hi.is_finite))
        return tuple(out)

    def axis_bounded(self, k: int) -> bool:
        return all(b[k].is_bounded for b in self.boxes)

    def inflate(self, delta: RatLike) -> "BoxSet":
        """Closed box neighbourhood of the hull, widened by delta."""
        hull = self.hull_box()
        if hull is None:
            return BoxSet.empty(self.dimension)
        d = rat(delta)
        out = []
        for iv in hull:
            if not iv.is_bounded:
                raise ValueError("inflate requires a bounded set")
            out.append(Interval.closed(iv.lo.value - d, iv.hi.value + d))
        return BoxSet.of(self.dimension, [tuple(out)])

    def _check(self, other: "BoxSet"):
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")

    def __repr__(self):
        if self.is_empty:
            return "{}"
        return " u ".join("x".join(repr(iv) for iv in b) for b in self.boxes)
