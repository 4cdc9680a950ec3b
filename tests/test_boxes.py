import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conley_kernel.boxes import (
    BoxSet, Cut, Interval, NEG_INF, POS_INF, isect_iv,
)
from kernel_oracles import PairwiseBoxSet, PieceListMap, random_box_list


def iv(lo, lc, hi, hc):
    return Interval.make(lo, lc, hi, hc)


def onedim(*ivs):
    return BoxSet.from_intervals(ivs)


rationals = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4))


@st.composite
def intervals_1d(draw):
    a = draw(rationals)
    w = Fraction(draw(st.integers(0, 12)), draw(st.sampled_from((1, 2, 4))))
    if w == 0:
        return Interval.point(a)
    return Interval.make(a, draw(st.booleans()), a + w, draw(st.booleans()))


@st.composite
def interval_sets(draw):
    return BoxSet.from_intervals(draw(st.lists(intervals_1d(), max_size=3)))


class TestInterval:
    def test_point_is_closed(self):
        p = Interval.point(Fraction(1, 2))
        assert p.lo_closed and p.hi_closed and p.is_point

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval.make(1, False, 1, False)
        with pytest.raises(ValueError):
            Interval.make(2, True, 1, True)

    def test_infinite_endpoints_open(self):
        with pytest.raises(ValueError):
            Interval(NEG_INF, Cut.finite(0), True, True)

    def test_intersection_flags(self):
        # [0,1] n (1/2,2] -> (1/2,1]
        got = isect_iv(iv(0, True, 1, True), iv("1/2", False, 2, True))
        assert got == iv("1/2", False, 1, True)

    def test_union_merges_adjacent(self):
        assert BoxSet.from_intervals([iv(0, True, 1, True),
                                      iv(1, False, 2, True)]).boxes == \
            ((iv(0, True, 2, True),),)
        # (0,1) u (1,2) keeps the puncture
        assert len(BoxSet.from_intervals([iv(0, False, 1, False),
                                          iv(1, False, 2, False)]).boxes) == 2


class TestSetAlgebra:
    def test_difference_keeps_boundary(self):
        # [-1,1] \ (-1,1) = {-1} u {1}
        got = onedim(iv(-1, True, 1, True)).difference(onedim(iv(-1, False, 1, False)))
        assert got == (BoxSet.from_intervals(
            [Interval.point(-1), Interval.point(1)]))

    def test_componentwise_2d(self):
        a = BoxSet.of(2, [(iv(0, True, 1, True), iv(0, True, 1, True))])
        b = BoxSet.of(2, [(iv("1/2", False, 2, True), iv(0, True, 1, True))])
        want = BoxSet.of(2, [(iv("1/2", False, 1, True), iv(0, True, 1, True))])
        assert a.intersect(b) == want

    @settings(max_examples=60, deadline=None)
    @given(interval_sets(), interval_sets(), interval_sets())
    def test_boolean_laws(self, a, b, c):
        assert a.intersect(b.union(c)) == (
            a.intersect(b).union(a.intersect(c)))
        assert a.difference(b) == a.intersect(b.complement())
        assert a.difference(b.union(c)) == a.difference(b).difference(c)
        assert a.union(b).difference(b) == a.difference(b)

    @settings(max_examples=60, deadline=None)
    @given(interval_sets(), interval_sets())
    def test_subset_and_symmetric_difference(self, a, b):
        assert a.subset_of(a.union(b))
        assert a.intersect(b).subset_of(a)
        sym_empty = a.difference(b).is_empty and b.difference(a).is_empty
        assert (a == b) == sym_empty


class TestTopology:
    def test_closure_interior_1d(self):
        assert onedim(iv("-1/2", False, "1/2", False)).closure() == (
            onedim(iv("-1/2", True, "1/2", True)))
        assert onedim(iv(-1, True, 1, True)).interior() == (
            onedim(iv(-1, False, 1, False)))

    def test_closure_2d_with_corner_point(self):
        g = BoxSet.of(2, [(Interval.point(0), Interval.point(0)),
                          (iv(0, False, 1, False), iv(0, False, 1, False))])
        square = BoxSet.of(2, [(iv(0, True, 1, True), iv(0, True, 1, True))])
        assert g.closure() == square
        assert not g.is_locally_compact()

    def test_interior_not_componentwise(self):
        # [0,1]x[0,1] u [1,2]x[0,1] has interior (0,2)x(0,1)
        a = BoxSet.of(2, [(iv(0, True, 1, True), iv(0, True, 1, True)),
                          (iv(1, True, 2, True), iv(0, True, 1, True))])
        want = BoxSet.of(2, [(iv(0, False, 2, False), iv(0, False, 1, False))])
        assert a.interior() == want

    def test_compactness(self):
        assert onedim(iv("-1/2", True, "1/2", True)).is_compact()
        assert not onedim(iv(0, True, 1, False)).is_compact()
        assert not onedim(Interval(Cut.finite(0), POS_INF, True, False)).is_compact()

    def test_relative_openness(self):
        assert not onedim(iv("-1/2", True, "1/2", True)).is_open_in(
            onedim(iv(-1, True, 1, True)))
        assert onedim(iv("-1/2", False, "1/2", False)).is_open_in(
            onedim(iv(-1, False, 1, False)))
        with pytest.raises(ValueError):
            onedim(iv(0, True, 2, True)).is_open_in(onedim(iv(0, True, 1, True)))

    def test_locally_compact_examples(self):
        assert onedim(Interval.point(0)).is_locally_compact()
        assert onedim(iv("-1/2", False, "1/2", False)).is_locally_compact()
        half_open = onedim(iv(0, True, 1, False))
        assert half_open.is_locally_compact()

    @settings(max_examples=60, deadline=None)
    @given(interval_sets())
    def test_closure_interior_idempotent(self, a):
        assert a.closure().closure() == a.closure()
        assert a.interior().interior() == a.interior()
        assert a.interior().subset_of(a)
        assert a.subset_of(a.closure())
        if a.is_bounded:
            assert a.is_closed() == a.is_compact()
        if a.interior() == a or a.is_compact():
            assert a.is_locally_compact()

    @settings(max_examples=40, deadline=None)
    @given(interval_sets(), interval_sets())
    def test_locally_compact_closed_under_intersection(self, a, b):
        if a.is_locally_compact() and b.is_locally_compact():
            assert a.intersect(b).is_locally_compact()

    def test_interior_in_subspace(self):
        x = onedim(Interval(Cut.finite(0), POS_INF, True, False))
        e = onedim(iv(0, True, 1, True))
        assert e.interior_in(x) == onedim(iv(0, True, 1, False))


def _raster_mismatch(a: BoxSet, b: BoxSet):
    """The first operation whose result disagrees with membership on the
    quarter grid over [-5/4, 9/4]^n, or None.

    Endpoints are half-integers in [-1, 2], so every grid point stands for
    one cell (a half-integer point or an open half-unit interval per axis);
    a point is in the closure (interior) of A iff some (every) grid point of
    its cell's closure star is in A."""
    coord = [Fraction(k - 6, 4) for k in range(17)]     # -3/2 .. 5/2
    memo = {}

    def member(s, p):
        key = (id(s), p)
        if key not in memo:
            memo[key] = s.contains_point([coord[k] for k in p])
        return memo[key]

    def star(p):
        return itertools.product(*[(k - 1, k, k + 1) if k % 2 == 0 else (k,)
                                   for k in p])

    results = {"union": a.union(b), "intersect": a.intersect(b),
               "difference": a.difference(b), "complement": a.complement(),
               "closure": a.closure(), "interior": a.interior()}
    for p in itertools.product(range(1, 16), repeat=a.dimension):
        ina, inb = member(a, p), member(b, p)
        want = {"union": ina or inb, "intersect": ina and inb,
                "difference": ina and not inb, "complement": not ina,
                "closure": any(member(a, q) for q in star(p)),
                "interior": all(member(a, q) for q in star(p))}
        for name, got in results.items():
            if member(got, p) != want[name]:
                return f"{name} at {[coord[k] for k in p]}"
    return None


def _oracle_mismatch(ra: list, rb: list, dimension: int):
    """The first operation or predicate on which the canonical form and the
    pairwise oracle disagree, or None."""
    a, b = BoxSet.of(dimension, ra), BoxSet.of(dimension, rb)
    oa, ob = PairwiseBoxSet(dimension, ra), PairwiseBoxSet(dimension, rb)
    sets = [("union", a.union(b), oa.union(ob)),
            ("intersect", a.intersect(b), oa.intersect(ob)),
            ("difference", a.difference(b), oa.difference(ob)),
            ("complement", a.complement(), oa.complement()),
            ("closure", a.closure(), oa.closure()),
            ("interior", a.interior(), oa.interior()),
            ("interior_in", a.intersect(b).interior_in(b),
             oa.intersect(ob).interior_in(ob))]
    for name, got, want in sets:
        if BoxSet.of(dimension, want.boxes) != got or \
                not want.set_eq(PairwiseBoxSet(dimension, got.boxes)):
            return name
    ab, oab = a.intersect(b), oa.intersect(ob)
    preds = [("is_closed", a.is_closed(), oa.is_closed()),
             ("is_open", a.is_open(), oa.is_open()),
             ("is_compact", a.is_compact(), oa.is_compact()),
             ("is_locally_compact", a.is_locally_compact(), oa.is_locally_compact()),
             ("is_open_in", ab.is_open_in(b), oab.is_open_in(ob)),
             ("subset_of", a.subset_of(b), oa.subset_of(ob)),
             ("==", a == b, oa.set_eq(ob))]
    for name, got, want in preds:
        if got != want:
            return name
    return None



class TestCanonicalForm:
    """One set, written as different box lists, is one value."""

    @staticmethod
    def _split(rng, box):
        """Cut a box in two along one axis at an interior rational."""
        k = rng.randrange(len(box))
        iv = box[k]
        if iv.is_point or not iv.is_bounded:
            return [box]
        c = iv.lo.value + (iv.hi.value - iv.lo.value) * Fraction(rng.randint(1, 3), 4)
        left_closed = rng.randint(0, 1) == 0
        return [box[:k] + (Interval.make(iv.lo.value, iv.lo_closed, c, left_closed),)
                + box[k + 1:],
                box[:k] + (Interval.make(c, not left_closed, iv.hi.value, iv.hi_closed),)
                + box[k + 1:]]

    def test_rewritten_box_lists_give_equal_sets(self):
        rng = random.Random(17)
        for dimension in (1, 2, 3):
            for _ in range(30):
                boxes = random_box_list(rng, dimension, 4)
                want = BoxSet.of(dimension, boxes)
                shuffled = boxes[:]
                rng.shuffle(shuffled)
                resplit = [p for b in boxes for p in self._split(rng, b)]
                overlapping = boxes + [p for b in boxes for p in self._split(rng, b)] \
                    + [b for b in want.boxes if rng.randint(0, 1)]
                for other in (shuffled, resplit, overlapping, list(want.boxes)):
                    got = BoxSet.of(dimension, other)
                    assert got == want, (boxes, other)
                    assert hash(got) == hash(want)
                    assert got.boxes == want.boxes and repr(got) == repr(want)

    def test_boxes_are_disjoint(self):
        rng = random.Random(19)
        for dimension in (2, 3):
            for _ in range(30):
                bs = BoxSet.of(dimension, random_box_list(rng, dimension, 4)).boxes
                for i, a in enumerate(bs):
                    for b in bs[i + 1:]:
                        assert any(isect_iv(x, y) is None for x, y in zip(a, b))

    def test_overlap_and_disjoint_forms_are_equal(self):
        overlapping = BoxSet.of(2, [(iv(0, True, 1, True), iv(0, True, 1, True)),
                                    (iv(0, True, 2, True), iv(0, True, "1/2", True))])
        disjoint = BoxSet.of(2, [(iv(0, True, 1, True), iv(0, True, 1, True)),
                                 (iv(1, False, 2, True), iv(0, True, "1/2", True))])
        assert overlapping == disjoint
        assert overlapping.boxes == disjoint.boxes

    def test_algebra_matches_raster_membership_and_the_pairwise_oracle(self):
        rng = random.Random(11)
        for dimension, pairs in ((1, 30), (2, 40), (3, 12)):
            for _ in range(pairs):
                ra = random_box_list(rng, dimension)
                rb = random_box_list(rng, dimension)
                assert _raster_mismatch(BoxSet.of(dimension, ra),
                                        BoxSet.of(dimension, rb)) is None, (ra, rb)
                assert _oracle_mismatch(ra, rb, dimension) is None, (ra, rb)


class TestGeometry:
    def test_hull_and_inflate(self):
        a = BoxSet.from_intervals([iv(0, True, 1, True), Interval.point(3)])
        hull = a.hull_box()
        assert hull[0] == iv(0, True, 3, True)
        blown = a.inflate(Fraction(1, 2))
        assert blown == onedim(iv("-1/2", True, "7/2", True))

    def test_contains_point(self):
        a = BoxSet.of(2, [(iv(0, True, 1, False), iv(0, True, 1, True))])
        assert a.contains_point([0, 1])
        assert not a.contains_point([1, 0])


class TestFilteredKeys:
    """Breakpoint keys (h, v, e) order and compare exactly as (v, e), also
    where values share the integer filter h = floor(v * 2^64)."""

    TINY = Fraction(1, 2 ** 70)

    @classmethod
    def cluster(cls, c):
        """Nine values within 2^-68 of c; they share h when c * 2^64 is
        more than 1/16 away from an integer."""
        return [c + k * cls.TINY for k in range(-4, 5)]

    def test_filter_is_the_floor(self):
        import math
        from conley_kernel.boxes import _key
        for v in (Fraction(1, 3), Fraction(-1, 3), Fraction(7), Fraction(-7),
                  Fraction(0), Fraction(-1, 2 ** 80), Fraction(3 ** 90, 2 ** 99)):
            assert _key(v, 0)[0] == math.floor(v * 2 ** 64)
            assert _key(v, 1)[1:] == (v, 1)

    def test_key_order_is_value_order(self):
        from conley_kernel.boxes import _key
        rng = random.Random(101)
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(40)]
        values += [Fraction(rng.randint(-9, 9)) for _ in range(10)]
        values += [Fraction(rng.randint(-2 ** 200, 2 ** 200), rng.randint(1, 2 ** 150))
                   for _ in range(20)]
        values += self.cluster(Fraction(1, 3)) + self.cluster(Fraction(-5, 3))
        values += [Fraction(1, 2 ** 64) + k * self.TINY for k in (-1, 0, 1)]
        assert _key(Fraction(1, 3), 0)[0] == _key(Fraction(1, 3) + self.TINY, 0)[0]
        plain = [(v, e) for v in values for e in (0, 1)]
        rng.shuffle(plain)
        keyed = {p: _key(*p) for p in plain}
        assert [keyed[p] for p in sorted(plain)] == sorted(keyed[p] for p in plain)
        for _ in range(4000):
            p, q = rng.choice(plain), rng.choice(plain)
            assert (keyed[p] < keyed[q]) == (p < q)
            assert (keyed[p] == keyed[q]) == (p == q)
            if p == q:
                assert hash(keyed[p]) == hash(keyed[q])

    def test_steps_walks_the_key_union_without_rational_compares(self):
        """_steps against a sorted merge, on keys whose filters tie (values
        within 2^-68, and equal values held by distinct Fractions); a tie
        is decided on integer ratios, so no Fraction comparison runs."""
        from conley_kernel.boxes import _key, _steps
        compares = []

        class Counted(Fraction):
            def __eq__(self, other):
                compares.append("==")
                return Fraction.__eq__(self, other)

            def __lt__(self, other):
                compares.append("<")
                return Fraction.__lt__(self, other)

            __hash__ = Fraction.__hash__

        rng = random.Random(107)
        values = self.cluster(Fraction(1, 3)) + [Fraction(0), Fraction(-2, 7)]
        plain = sorted((v, e) for v in values for e in (0, 1))

        def keys():
            chosen = [p for p in plain if rng.randint(0, 2)]
            return tuple((_key(v, e)[0], Counted(v), e) for v, e in chosen)

        for _ in range(300):
            ka, kb = keys(), keys()
            got = [((k[1], k[2]), i, j) for k, i, j in _steps(ka, kb)]
            union = sorted({(k[1], k[2]) for k in ka + kb})
            want = [(p, sum((k[1], k[2]) <= p for k in ka),
                     sum((k[1], k[2]) <= p for k in kb)) for p in union]
            compares.clear()
            list(_steps(ka, kb))
            assert compares == []
            assert got == want

    def _colliding_boxes(self, rng, dimension, pool, count):
        """Up to count boxes with ends drawn from pool; one end in eight is
        infinite."""
        boxes = []
        for _ in range(rng.randint(0, count)):
            box = []
            for _ in range(dimension):
                a, b = sorted(rng.sample(pool, 2)) if rng.randint(0, 3) \
                    else [rng.choice(pool)] * 2
                lo = NEG_INF if rng.randint(1, 8) == 1 else Cut.finite(a)
                hi = POS_INF if rng.randint(1, 8) == 1 else Cut.finite(b)
                if lo.is_finite and hi.is_finite and a == b:
                    box.append(Interval.point(a))
                else:
                    box.append(Interval(lo, hi, lo.is_finite and rng.randint(0, 1) == 0,
                                        hi.is_finite and rng.randint(0, 1) == 0))
            boxes.append(tuple(box))
        return boxes

    def pool(self):
        from conley_kernel.boxes import _key
        pool = self.cluster(Fraction(1, 3)) + self.cluster(Fraction(-1, 3)) + \
            [Fraction(0), Fraction(1)]
        for c in pool[:9], pool[9:18]:
            assert len({_key(v, 0)[0] for v in c}) == 1
        return pool

    def test_box_algebra_against_the_pairwise_oracle(self):
        rng, pool = random.Random(103), self.pool()
        for dimension, pairs in ((1, 120), (2, 60), (3, 15)):
            for _ in range(pairs):
                ra = self._colliding_boxes(rng, dimension, pool, 4)
                rb = self._colliding_boxes(rng, dimension, pool, 4)
                assert _oracle_mismatch(ra, rb, dimension) is None, (ra, rb)
                a = BoxSet.of(dimension, ra)
                for v in pool:
                    assert a.contains_point([v] * dimension) == any(
                        all(x.contains(v) for x in b) for b in ra), (ra, v)

    def test_preimages_against_the_piece_list_oracle(self):
        from conley_kernel.affine import AffineRule, Piece, PiecewiseAffineMap
        rng, pool = random.Random(107), self.pool()

        def rules(dimension):
            """Slopes 1 and -1 with intercepts within 2^-69 of 0, which keep
            the two clusters of the pool on each other, or a constant from
            the pool."""
            out = []
            for _ in range(dimension):
                m = rng.choice((1, 1, -1, 0))
                q = rng.choice(pool) if m == 0 else rng.randint(-2, 2) * self.TINY
                out.append(AffineRule(Fraction(m), q))
            return tuple(out)
        accepted = 0
        for dimension, count in ((1, 120), (2, 50)):
            for _ in range(count):
                shared = rules(dimension)
                pieces, seen = [], BoxSet.empty(dimension)
                for _ in range(rng.randint(1, 3)):
                    dom = BoxSet.of(dimension,
                                    self._colliding_boxes(rng, dimension, pool, 2))
                    dom = dom.difference(seen)
                    seen = seen.union(dom)
                    pieces.append(Piece(dom, shared if rng.randint(0, 2)
                                        else rules(dimension)))
                try:
                    f = PiecewiseAffineMap.of(dimension, pieces)
                except ValueError:
                    continue
                accepted += 1
                oracle = PieceListMap.of(dimension, pieces)
                for _ in range(3):
                    a = BoxSet.of(dimension,
                                  self._colliding_boxes(rng, dimension, pool, 3))
                    assert f.preimage(a) == oracle.preimage(a), (pieces, a)
        assert accepted >= 100


# rationals for the integer-ratio helpers: small, zero, slopes +-1 and
# 200-bit numerators and denominators, of either sign
big = st.integers(-2 ** 200, 2 ** 200)
helper_rationals = st.one_of(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.builds(Fraction, big, st.integers(1, 2 ** 200)),
    st.builds(Fraction, big),
)
helper_operands = st.one_of(helper_rationals, st.integers(-9, 9), big)


def _normalized(x) -> bool:
    import math
    n, d = x.as_integer_ratio()
    return type(x) is Fraction and d > 0 and math.gcd(n, d) == 1


class TestIntegerRatioHelpers:
    """`_mul_add` and `_sub_div` equal the plain Fraction expressions and
    return normalized Fractions."""

    @settings(max_examples=400, deadline=None)
    @given(helper_operands, helper_operands, helper_operands)
    def test_mul_add_is_the_fraction_expression(self, m, x, q):
        from conley_kernel.boxes import _mul_add
        got = _mul_add(m, x, q)
        assert got == Fraction(m) * x + q and _normalized(got)

    @settings(max_examples=400, deadline=None)
    @given(helper_operands, helper_operands, helper_operands)
    def test_sub_div_is_the_fraction_expression(self, v, q, m):
        from conley_kernel.boxes import _sub_div
        if m == 0:
            with pytest.raises(ZeroDivisionError):
                _sub_div(v, q, m)
            return
        got = _sub_div(v, q, m)
        assert got == (Fraction(v) - q) / m and _normalized(got)

    def test_slopes_one_and_minus_one(self):
        from conley_kernel.boxes import _mul_add, _sub_div
        for x in (Fraction(3, 7), Fraction(-2 ** 200, 3), Fraction(0)):
            for q in (Fraction(-5, 11), Fraction(0), Fraction(1, 2 ** 200)):
                for m in (Fraction(1), Fraction(-1)):
                    assert _mul_add(m, x, q) == m * x + q
                    assert _sub_div(x, q, m) == (x - q) / m


class TestIntervalOrderCheck:
    @settings(max_examples=400, deadline=None)
    @given(helper_rationals, helper_rationals, st.booleans(), st.booleans(),
           st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1]))
    def test_empty_iff_start_key_exceeds_end_key(self, a, b, lc, hc, ls, hs):
        """Interval rejects exactly the endpoint pairs whose boundary keys
        are inverted, as the Fraction tuple comparison decides."""
        from conley_kernel.boxes import _ekey, _skey
        lo = Cut(ls, a if ls == 0 else Fraction(0))
        hi = Cut(hs, b if hs == 0 else Fraction(0))
        lc, hc = lc and ls == 0, hc and hs == 0
        inverted = (lo.sign, lo.value, 0 if lc else 1) > \
            (hi.sign, hi.value, 0 if hc else -1)
        if inverted:
            with pytest.raises(ValueError, match="empty or inverted"):
                Interval(lo, hi, lc, hc)
        else:
            made = Interval(lo, hi, lc, hc)
            assert _skey(made) <= _ekey(made)


def test_equal_sets_from_different_box_lists_hash_equal():
    """Hashing is by the canonical node, so two box lists of one set give
    one hash, in every dimension."""
    pairs = [
        ([(iv(0, True, 2, True),)],
         [(iv(0, True, 1, False),), (iv(1, True, 2, True),)]),
        ([(iv(0, True, 1, True), iv(0, True, 2, False))],
         [(iv(0, True, 1, True), iv(0, True, 1, True)),
          (iv(0, True, 1, True), iv("1/2", True, 2, False))]),
        ([(iv(0, False, 1, True), iv(0, True, 1, True), iv(-1, True, 0, True))],
         [(iv("1/2", True, 1, True), iv(0, True, 1, True), iv(-1, True, 0, True)),
          (iv(0, False, "1/2", True), iv(0, True, 1, True), iv(-1, True, 0, True)),
          (iv("1/3", True, "2/3", True), iv(0, True, "1/2", True),
           iv(-1, True, 0, True))]),
    ]
    for one, two in pairs:
        d = len(one[0])
        a, b = BoxSet.of(d, one), BoxSet.of(d, two[::-1])
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.randoms(use_true_random=False))
def test_closure_and_interior_match_the_recursive_sweep(dimension, rng):
    """Merging the swept values at a point atom gives the node that sweeping
    the merged value again gives."""
    from conley_kernel.boxes import _closure_or_interior
    from kernel_oracles import oracle_closure_or_interior
    a = BoxSet.of(dimension, random_box_list(rng, dimension, 4))
    for closure in (True, False):
        assert _closure_or_interior(a.node, closure) == \
            oracle_closure_or_interior(a.node, closure)
