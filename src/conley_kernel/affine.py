"""Piecewise-affine partial self-maps of R^n with exact rational arithmetic.

A map is continuous on its domain and componentwise affine on each of
finitely many box-set pieces: x_j -> m_j*x_j + q_j on every axis j.  Any
list of pieces with pairwise disjoint domains on which the map is
continuous is accepted (both facts are checked exactly), and the map is
held in one canonical form, so `==` is map equality whichever list wrote
it, and :attr:`PiecewiseAffineMap.pieces` is derived from the form.

The form is the step-function node of :mod:`conley_kernel.boxes`, with
its filtered breakpoint keys (h, v, e) built by `boxes._key`, and with rule
tuples in place of true and False for "undefined", as multi-terminal and
algebraic decision diagrams put values at their leaves (Bahar et al.,
ICCAD 1993).  A node over the axes d..n-1 is False, a leaf (one tuple of n
rules, the map on all of R^(n-d)) or a step list along axis d whose values
are nodes over the axes after d.  Its cells are the products of one atom
per axis, an atom being a breakpoint value v or an open interval between
two.  On a cell, output j depends on x_j alone, so there a rule holds only
its value m_j*v + q_j on a point atom of axis j and all of (m_j, q_j) on
an open one (an affine function is fixed by its values on an open
interval).  Reducing rule j at v replaces it by (0, m_j*v + q_j); two
leaves give the same map on a cell iff they are equal once reduced on the
cell's point axes.  A node is canonical when, along each axis:

1. adjacent steps hold different values;
2. a step over a single point v holds the slice x_d = v with the axis-d
   rules reduced at v, and a step over an interval holds the map on that
   strip, axis-d rules as they are;
3. at each value v, with L and R the maps on the open strips just left and
   right of v and P the slice at v: if L reduced at v is P the point joins
   L's step (only the breakpoint "just after v"), else if R reduced at v
   is P it joins R's step (only "just before v"), else it keeps a step of
   its own; and v is no breakpoint at all iff L = R and L reduced at v is P.

Canonicity, by induction on the number of axes, for leaves of any kind
that can be reduced axis by axis: L, R and P above are maps over fewer
axes, so each has one canonical node; the breakpoint values of the node
of F are exactly the v at which not (L = R and L reduced at v is P),
finitely many; rule 3 fixes the breakpoints at v from L, R and P alone;
and each step's value is the map on its strip (constant between
breakpoints) or P.  So the node is a function of the map, and two maps are
equal iff their nodes are.  :func:`_canon` enforces the three rules on one
step list whose values are canonical, comparing steps reduced at v with
:func:`_agrees` and storing a point step reduced by :func:`_reduce`, and
every node operation is a merge of two step lists (:func:`_apply`) or a
pull-back (below), canonicalized bottom-up.

Continuity on the domain holds iff at each point x of it, every cell whose
closure holds x has a rule whose value at x is the map's: there are
finitely many cells and each rule is continuous.  Cells of one step meet
only across the later axes, so :func:`_continuous` checks each step on its
own and then, at each breakpoint value v, the slice at v against the
limits of the open steps on either side, walking the pairs of cells whose
closures meet axis by axis (:func:`_agrees`).  :meth:`PiecewiseAffineMap.of`
runs it once on the node it builds.  Restriction, composition and
:func:`product` (which builds the time maps of semiflows) keep continuity.

Set images relabel the canonical form of :mod:`conley_kernel.boxes` in one
node walk (`_map_node`): a nonzero slope moves the breakpoints of its axis
and keeps their values, a zero slope projects its axis.

Pull-backs.  A preimage f^-1(A) and a composite g after f are one walk of
the node of f together with the node of A or of g (:func:`_pull`), as the
compose operation of algebraic decision diagrams walks two diagrams.  Along
axis d, take a step of f whose leaves all hold the axis-d rule
x -> k*x + q (on a point step it is reduced: k = 0).  For x in the step,
output d is k*x_d + q and the later outputs depend on the later coordinates
alone, so x lies in f^-1(A) iff its later coordinates lie in the pull-back
of A's value at k*x_d + q.  If k = 0 that is one value, A's at q; else
each breakpoint of A inside the image of the step, at value w on side e,
comes back at (w - q)/k on side e, in reverse order with e -> 1 - e if
k < 0, and each value between them is pulled back over the later axes.
The breakpoints inside are found by bisecting A's keys at the keys of the
images of the step's own two breakpoints, not at their values, so a step
that starts just before v keeps a breakpoint just after v.  A step whose
leaves hold several axis-d rules (pieces that share its range on axis d
and part on a later axis) is split by rule; the parts have disjoint
domains, so their pull-backs merge as a disjoint union, which is cut back
to the step.  At two leaves the result is true, or for g the rule tuple
whose rule j is g_j after f_j.  The images k*v + q of the step's keys, the
carried breakpoints (w - q)/k and the composed rules are computed on the
integer ratios of their operands (`boxes._mul_add`, `boxes._sub_div`), one
gcd reduction per result; values stay normalized Fractions, equal to the
plain Fraction expressions.

The result is canonical.  A set's step lists join by dropping each
breakpoint whose value equals the one before it, over canonical values,
which is the form of :mod:`conley_kernel.boxes`.  A map's step lists go
through :func:`_canon`, which makes a step list of canonical values
canonical, so by induction on the axes the node is canonical once its
leaves hold the map with point rules reduced (rule 2).  They do: on an
open step the composite rules hold as they are; a point step of the result
comes from a point step of f, where f_j is a constant c and so is g_j
after it (g_j(c)), or from a point step of g carried back by a nonzero
slope, where g_j is already constant; and :func:`_canon` reduces every point
step it keeps.  The composite is also continuous on its domain
f^-1(Dom g), as a composite of continuous maps, and the walk's cells
partition that domain with one rule each, so :func:`compose` builds the
map directly, without the overlap and continuity checks of `of`.

Each map memoizes its set images and preimages by argument set (box sets
hash and compare as sets), its powers (:func:`power`), its restrictions to
the sets E whose swept domains it steps (:meth:`PiecewiseAffineMap.dom_step`),
and the D_n(E) and f^-n(A) of its base
:class:`conley_kernel.carriers.DiscreteTime`, in fields of the map object,
so a memo lives as long as its map and no two maps or parsed documents
share one.  A map is its own time domain, times in N with search bound 64:
its ``time_map`` is :func:`power` and its ``after`` :func:`compose`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .boxes import (
    BoxSet, _key, _mul_add, _node, _steps, _sub_div, _union_all, rat, RatLike,
)
from .carriers import DiscreteTime


@dataclass(frozen=True)
class AffineRule:
    """One axis of a componentwise affine rule: x -> slope*x + intercept."""

    slope: Fraction
    intercept: Fraction

    @staticmethod
    def of(slope: RatLike, intercept: RatLike) -> "AffineRule":
        return AffineRule(rat(slope), rat(intercept))

    def apply(self, x: Fraction) -> Fraction:
        return _mul_add(self.slope, x, self.intercept)

    def compose(self, inner: "AffineRule") -> "AffineRule":
        return AffineRule(_mul_add(self.slope, inner.slope, 0),
                          _mul_add(self.slope, inner.intercept, self.intercept))


Rules = tuple[AffineRule, ...]
_ZERO = Fraction(0)


def _set_node(keys: list, vals: list, depth: int = 0):
    """The canonical set node of a step list of canonical set nodes: each
    breakpoint whose value equals the one before it is dropped (depth is
    unused; it matches the signature of :func:`_canon`)."""
    out_keys, out_vals = [], [vals[0]]
    for k, x in zip(keys, vals[1:]):
        if x != out_vals[-1]:
            out_keys.append(k)
            out_vals.append(x)
    return _node(out_keys, out_vals)


def _map_node(rules: Rules, node, depth: int):
    """The node of the image of node, a set over the axes from depth on,
    under rules.

    Before: along axis depth, node steps through breakpoints of values v
    and sides e with values over the deeper axes.  After: x -> m*x + q with
    m != 0 is a monotone bijection of the axis, so it carries the step past
    (v, e) to the step past (m*v + q, e) if m > 0; if m < 0 the steps run
    backwards and "just before" swaps with "just after" (e -> 1 - e).  With
    m = 0 the image is the union of all values on the point q.  Breakpoints
    stay distinct, so the result is canonical once each breakpoint whose
    mapped value equals the one before it is dropped (a deeper zero slope
    can merge values)."""
    if node is True:
        if depth == len(rules):
            return True
        node = ((), (True,))      # the image of the free axis at depth
    if node is False:
        return False
    keys, vals = node
    r = rules[depth]
    m, q = r.slope, r.intercept
    if m == 0:
        child = _map_node(rules, _union_all(list(vals)), depth + 1)
        return _node([_key(q, 0), _key(q, 1)], [False, child, False])
    mapped = [_map_node(rules, v, depth + 1) for v in vals]
    if m.numerator > 0:
        steps = [_key(_mul_add(m, v, q), e) for _, v, e in keys]
    else:
        steps = [_key(_mul_add(m, v, q), 1 - e) for _, v, e in reversed(keys)]
        mapped.reverse()
    return _set_node(steps, mapped)


def rules_preimage(rules: Rules, a: BoxSet) -> BoxSet:
    return BoxSet(a.dimension, _pull(tuple(rules), a.node, 0, _set_node))


def rules_image(rules: Rules, a: BoxSet) -> BoxSet:
    return BoxSet(a.dimension, _map_node(rules, a.node, 0))


# ---------------------------------------------------------------------------
# map nodes: False, a rule tuple, or a step list (keys, vals) as in boxes

def _leaf(a) -> bool:
    """Whether node a is constant over its axes: False, a rule tuple, or
    True (a set node)."""
    return a is False or a is True or type(a[0]) is AffineRule


def _pair(a):
    """The step list of node a; a constant is one step."""
    return ((), (a,)) if _leaf(a) else a


def _reduce(a, k: int, v: Fraction, depth: int):
    """Node a, over the axes from depth on, on the hyperplane x_k = v
    (k < depth): every axis-k rule reduced to its value at v."""
    if a is False:
        return a
    if type(a[0]) is AffineRule:
        r = a[k]
        if r.slope == 0:
            return a
        return a[:k] + (AffineRule(_ZERO, r.apply(v)),) + a[k + 1:]
    keys, vals = a
    reduced = [_reduce(x, k, v, depth + 1) for x in vals]
    if all(x is y for x, y in zip(reduced, vals)):
        return a
    return _canon(keys, reduced, depth)


def _canon(keys: Sequence, vals: list, depth: int):
    """The canonical node of a step list along axis depth whose values are
    canonical nodes, adjacent ones possibly equal and point steps possibly
    unreduced: rules 1-3 of the module docstring, one breakpoint value at a
    time."""
    out_keys, out_vals = [], [vals[0]]
    i, n = 0, len(keys)
    while i < n:
        h, v, e = keys[i]
        left = vals[i]

        def same(x, y):
            return _agrees(x, y, {depth: v}, depth + 1, False)
        if e == 0 and i + 1 < n and keys[i + 1] == (h, v, 1):  # a point step
            point, right = vals[i + 1], vals[i + 2]
            i += 2
            joins = 1 if same(left, point) else 0 if same(right, point) \
                else None
            point = _reduce(point, depth, v, depth + 1)
        else:                     # the point belongs to one of its neighbours
            right = vals[i + 1]
            i += 1
            joins = 1 if e or same(left, right) else 0
        if joins is None:
            out_keys += [(h, v, 0), (h, v, 1)]
            out_vals += [point, right]
        elif joins == 0 or right != out_vals[-1]:
            out_keys.append((h, v, joins))
            out_vals.append(right)
    if out_keys:
        return (tuple(out_keys), tuple(out_vals))
    return out_vals[0] if _leaf(out_vals[0]) else ((), (out_vals[0],))


def _apply(a, b, op, depth: int, join=_canon):
    """The pointwise op of nodes a and b over the axes from depth on: op(a,
    b) is the result where it is decided (at two leaves at the latest),
    else None, and then the step lists merge and join (:func:`_canon` for
    maps, :func:`_set_node` for sets) makes the result canonical."""
    out = op(a, b)
    if out is not None:
        return out
    (ka, va), (kb, vb) = _pair(a), _pair(b)
    keys, vals = [], [_apply(va[0], vb[0], op, depth + 1, join)]
    for k, i, j in _steps(ka, kb):
        keys.append(k)
        vals.append(_apply(va[i], vb[j], op, depth + 1, join))
    return join(keys, vals, depth)


def _disjoint_union(a, b):
    if a is False:
        return b
    if b is False:
        return a
    if _leaf(a) and _leaf(b):
        raise ValueError("piece domains overlap")
    return None


def _restricted(a, s):
    """Map node a on set node s."""
    if a is False or s is False:
        return False
    return a if s is True else None


def _where(a, test):
    """The set node of the points at which the leaf of node a passes test."""
    if _leaf(a):
        return test(a)
    keys, vals = a
    return _set_node(keys, [_where(x, test) for x in vals])


def _leaves(a, out: dict) -> dict:
    """The distinct rule tuples of node a, in walk order, as keys of out."""
    if a is False:
        return out
    if _leaf(a):
        out[a] = None
    else:
        for x in a[1]:
            _leaves(x, out)
    return out


def _axis_rules(a, k: int, out: list) -> list:
    """The distinct axis-k rules of the leaves of map node a, in walk order,
    appended to out.  Leaves built together share their rule objects, so
    the test is mostly `is`; no rule is hashed."""
    if a is False:
        return out
    if type(a[0]) is AffineRule:
        r = a[k]
        if not any(r is x or r == x for x in out):
            out.append(r)
        return out
    for x in a[1]:
        _axis_rules(x, k, out)
    return out


def _values(keys) -> list:
    """The distinct breakpoint values (h, v) of sorted keys, in order: keys
    of one value are adjacent, so a scan finds them without hashing v."""
    out = []
    for h, v, _ in keys:
        if not out or out[-1][0] != h or out[-1][1] != v:
            out.append((h, v))
    return out


def _agrees(a, b, fixed: dict, depth: int, limits: bool) -> bool:
    """Whether nodes a and b over the axes from depth on, their rules
    reduced at the axis values in fixed, agree.  Without limits: whether
    they are the same map.  With limits, for continuous a and b: whether
    the rule of each cell of a, extended to the cell's closure, takes b's
    value at each point of b's domain in that closure.

    Along axis depth, a point v lies in a's step over v and, with limits,
    in the closures of a's open steps on either side; a point of an open
    interval lies only in a's step over it.  A node is the same map as
    itself and, if continuous, agrees with itself."""
    if a is b:
        return True
    if a is False or b is False:
        return limits
    if _leaf(a) and _leaf(b):
        return all(r == s or j in fixed and r.apply(fixed[j]) == s.apply(fixed[j])
                   for j, (r, s) in enumerate(zip(a, b)))
    (ka, va), (kb, vb) = _pair(a), _pair(b)
    if not _agrees(va[0], vb[0], fixed, depth + 1, limits):
        return False
    for h, v in _values(sorted(ka + kb)):
        at_v = {**fixed, depth: v}
        near = {bisect_right(ka, (h, v, 0))}
        if limits:
            near |= {bisect_left(ka, (h, v, 0)), bisect_right(ka, (h, v, 1))}
        point = vb[bisect_right(kb, (h, v, 0))]
        if not all(_agrees(va[i], point, at_v, depth + 1, limits) for i in near) \
                or not _agrees(va[bisect_right(ka, (h, v, 1))],
                               vb[bisect_right(kb, (h, v, 1))], fixed,
                               depth + 1, limits):
            return False
    return True


def _continuous(a, depth: int) -> bool:
    """Whether node a is continuous on its domain: each step on its own,
    and at each breakpoint value v the slice at v with the limits of the
    open steps on either side (:func:`_agrees`)."""
    if _leaf(a):
        return True
    keys, vals = a
    return all(_continuous(x, depth + 1) for x in vals) and all(
        _agrees(vals[i], vals[bisect_right(keys, (h, v, 0))], {depth: v},
                depth + 1, True)
        for h, v in _values(keys)
        for i in (bisect_left(keys, (h, v, 0)), bisect_right(keys, (h, v, 1))))


def _pull(m, s, depth: int, join):
    """The node of f^-1(A) (s a set node, join :func:`_set_node`) or of g
    after f (s a map node, join :func:`_canon`), m being the node of f,
    both over the axes from depth on: one walk of m and s together (see
    Pull-backs in the module docstring)."""
    if m is False or s is False:
        return False
    if _leaf(m) and _leaf(s):
        return s if s is True else tuple(g.compose(r) for g, r in zip(s, m))
    (mk, mv), (sk, sv) = _pair(m), _pair(s)
    keys, vals = [], []
    for i, x in enumerate(mv):
        lo = mk[i - 1] if i else None
        hi = mk[i] if i < len(mk) else None
        if lo is not None:
            keys.append(lo)
        if x is False or not sk:          # s is constant along this axis
            vals.append(_pull(x, sv[0], depth + 1, join))
            continue
        rules = _axis_rules(x, depth, [])
        if len(rules) == 1:
            step_keys, step_vals = _pull_step(x, rules[0], sk, sv, lo, hi,
                                              depth, join)
            keys += step_keys
            vals += step_vals
            continue
        # pieces that share this step but differ on a later axis: pull back
        # the part of each axis-depth rule, merge the disjoint parts and
        # keep the merged breakpoints inside the step
        merged = False
        for r in rules:
            part = _apply(x, _where(x, lambda y: y and y[depth] == r),
                          _restricted, depth + 1)
            merged = _apply(merged, join(*_pull_step(part, r, sk, sv, lo, hi,
                                                     depth, join), depth),
                            _disjoint_union, depth, join)
        ck, cv = _pair(merged)
        a = 0 if lo is None else bisect_right(ck, lo)
        b = len(ck) if hi is None else bisect_left(ck, hi)
        keys += ck[a:b]
        vals += cv[a:b + 1]
    return join(keys, vals, depth)


def _pull_step(x, r: AffineRule, sk, sv, lo, hi, depth: int, join):
    """The breakpoints strictly between lo and hi (None: unbounded) and the
    values of the pull-back of the step list (sk, sv) along axis depth
    under r, each value pulled back under x over the later axes."""
    m, q = r.slope, r.intercept
    if m == 0:
        y = sv[bisect_right(sk, _key(q, 0))]
        return [], [_pull(x, y, depth + 1, join)]
    if m.numerator > 0:       # the steps of s that (lo, hi) maps onto
        a = 0 if lo is None else \
            bisect_right(sk, _key(_mul_add(m, lo[1], q), lo[2]))
        b = len(sk) if hi is None else \
            bisect_left(sk, _key(_mul_add(m, hi[1], q), hi[2]))
        keys = [_key(_sub_div(v, q, m), e) for _, v, e in sk[a:b]]
        ys = sv[a:b + 1]
    else:
        a = 0 if hi is None else \
            bisect_right(sk, _key(_mul_add(m, hi[1], q), 1 - hi[2]))
        b = len(sk) if lo is None else \
            bisect_left(sk, _key(_mul_add(m, lo[1], q), 1 - lo[2]))
        keys = [_key(_sub_div(v, q, m), 1 - e) for _, v, e in reversed(sk[a:b])]
        ys = sv[a:b + 1][::-1]
    return keys, [_pull(x, y, depth + 1, join) for y in ys]


@dataclass(frozen=True)
class Piece:
    domain: BoxSet
    rules: Rules


@dataclass(frozen=True)
class PiecewiseAffineMap(DiscreteTime):
    """A continuous piecewise-affine partial map, held in its canonical
    node: `==` is map equality, and :attr:`pieces` is derived, one piece
    per distinct rule tuple."""

    dimension: int
    node: object
    _images: dict = field(default_factory=dict, init=False, compare=False,
                          hash=False, repr=False)
    _preimages: dict = field(default_factory=dict, init=False, compare=False,
                             hash=False, repr=False)
    _iterates: dict = field(default_factory=dict, init=False, compare=False,
                            hash=False, repr=False)

    carrier_name = "interval"
    default_bound = 64

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(dimension: int, pieces: Iterable[Piece]) -> "PiecewiseAffineMap":
        nodes = []
        for p in pieces:
            if p.domain.dimension != dimension or len(p.rules) != dimension:
                raise ValueError("piece dimension mismatch")
            nodes.append(_apply(p.rules, p.domain.node, _restricted, 0))
        while len(nodes) > 1:
            nodes = [_apply(nodes[i], nodes[i + 1], _disjoint_union, 0)
                     if i + 1 < len(nodes) else nodes[i]
                     for i in range(0, len(nodes), 2)]
        node = nodes[0] if nodes else False
        if not _continuous(node, 0):
            raise ValueError("map is discontinuous across piece boundary")
        return PiecewiseAffineMap(dimension, node)

    @staticmethod
    def single(rules: Sequence[AffineRule], domain: BoxSet | None = None,
               dimension: int | None = None) -> "PiecewiseAffineMap":
        if domain is None:
            if dimension is None:
                dimension = len(rules)
            domain = BoxSet.full(dimension)
        return PiecewiseAffineMap.of(domain.dimension,
                                     [Piece(domain, tuple(rules))])

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
    def pieces(self) -> tuple[Piece, ...]:
        return tuple(
            Piece(BoxSet(self.dimension, _where(self.node, lambda x: x == r)), r)
            for r in _leaves(self.node, {}))

    @cached_property
    def domain(self) -> BoxSet:
        return BoxSet(self.dimension, _where(self.node, lambda x: x is not False))

    def check_set(self, e: BoxSet):
        if e.dimension != self.dimension:
            raise ValueError("carrier mismatch: dimension differs")

    def restrict(self, s: BoxSet) -> "PiecewiseAffineMap":
        return PiecewiseAffineMap(self.dimension,
                                  _apply(self.node, s.node, _restricted, 0))

    def __repr__(self):
        return f"PiecewiseAffineMap(dimension={self.dimension}, " \
               f"pieces={self.pieces!r})"

    # -- evaluation and set maps --------------------------------------------

    def eval_point(self, pt: Sequence[RatLike]) -> tuple[Fraction, ...] | None:
        qs = [rat(x) for x in pt]
        a = self.node
        for x in qs:
            if _leaf(a):
                break
            keys, vals = a
            a = vals[bisect_right(keys, _key(x, 0))]
        if a is False:
            return None
        return tuple(r.apply(q) for r, q in zip(a, qs))

    def image(self, a: BoxSet) -> BoxSet:
        out = self._images.get(a)
        if out is None:
            out = self._images[a] = BoxSet.union_all(self.dimension, (
                rules_image(p.rules, a.intersect(p.domain))
                for p in self.pieces))
        return out

    def preimage(self, a: BoxSet) -> BoxSet:
        out = self._preimages.get(a)
        if out is None:
            out = self._preimages[a] = BoxSet(
                self.dimension, _pull(self.node, a.node, 0, _set_node))
        return out

    def dom_step(self, e: BoxSet, d: BoxSet) -> BoxSet:
        """E n f^-1(D), the step D_n(E) -> D_{n+1}(E): D pulled back
        through f restricted to E, whose node covers only E.  The
        restriction is built once per E and kept in ``_iterates`` by
        ``setdefault``, so racing threads keep one of equal maps."""
        f_e = self._iterates.get((e, "restrict"))
        if f_e is None:
            f_e = self._iterates.setdefault((e, "restrict"), self.restrict(e))
        return f_e.preimage(d)

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

    def maps_equal(self, other: "PiecewiseAffineMap") -> bool:
        """Exact partial-map equality: the canonical nodes are equal."""
        return self == other

    def time_map(self, t):
        return power(self, t)

    def after(self, f):
        return compose(self, f)


def compose(g: PiecewiseAffineMap, f: PiecewiseAffineMap) -> PiecewiseAffineMap:
    """g after f, on Dom(gf) = f^-1(Dom g): one pull-back walk, canonical
    and continuous as the module docstring shows."""
    if g.dimension != f.dimension:
        raise ValueError("dimension mismatch")
    return PiecewiseAffineMap(f.dimension, _pull(f.node, g.node, 0, _canon))


def product(factors: Sequence[PiecewiseAffineMap]) -> PiecewiseAffineMap:
    """The map acting on axis k as the 1-D map factors[k], with the product
    of their domains.  A step along axis k changes only the axis-k rule, so
    canonical factors nest into the canonical form, and continuous ones
    into a continuous map."""
    def axis(k: int, prefix: tuple):
        """The node over the axes from k on, after the rules in prefix."""
        if k == len(factors):
            return prefix
        a = factors[k].node
        if _leaf(a):
            rest = a and axis(k + 1, prefix + a)
            return rest if _leaf(rest) else ((), (rest,))
        keys, vals = a
        return (keys, tuple(x and axis(k + 1, prefix + x) for x in vals))
    return PiecewiseAffineMap(len(factors), axis(0, ()))


def power(f: PiecewiseAffineMap, n: int) -> PiecewiseAffineMap:
    """f^n, memoized on f by n: f^0 is the identity and f^(k+1) = f o f^k,
    one :func:`compose` per missing step, stored by ``setdefault``, so
    racing threads keep one of equal maps.  f^1 is a new map equal to f:
    f in its own memo would keep its document alive until a cyclic GC."""
    if n < 0:
        raise ValueError("negative power")
    memo = f._iterates.get("power") or f._iterates.setdefault(
        "power", {0: PiecewiseAffineMap.identity(f.dimension)})
    k = n
    while k not in memo:
        k -= 1
    out = memo[k]
    for k in range(k + 1, n + 1):
        out = memo.setdefault(k, compose(f, out))
    return out
