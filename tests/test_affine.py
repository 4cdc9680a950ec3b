from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conley_kernel import affine as af
from conley_kernel.affine import AffineRule, Piece, PiecewiseAffineMap
from conley_kernel.boxes import BoxSet, Interval
from conley_kernel.suites import clamp_map, doubling_map, random_interval_set, shift2d_map

import random


def box1(lo, lc, hi, hc):
    return BoxSet.interval(lo, lc, hi, hc)


class TestConstruction:
    def test_overlapping_pieces_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseAffineMap.of(1, [
                Piece(box1(0, True, 2, True), (AffineRule.of(1, 0),)),
                Piece(box1(1, True, 3, True), (AffineRule.of(1, 0),)),
            ])

    def test_discontinuous_pieces_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseAffineMap.of(1, [
                Piece(box1("-inf", False, 0, True), (AffineRule.of(1, 0),)),
                Piece(box1(0, False, "inf", False), (AffineRule.of(1, 1),)),
            ])

    def test_clamp_is_continuous(self):
        f = clamp_map()
        assert f.eval_point([Fraction(1, 2)]) == (Fraction(0),)
        assert f.eval_point([3]) == (Fraction(2),)

    def test_jump_off_shared_boundary_allowed(self):
        # domains whose closures only meet outside the union stay legal
        f = PiecewiseAffineMap.of(1, [
            Piece(box1(0, False, 1, False), (AffineRule.of(1, 0),)),
            Piece(box1(1, False, 2, False), (AffineRule.of(1, 1),)),
        ])
        assert f.domain == (
            box1(0, False, 1, False).union(box1(1, False, 2, False)))


class TestSetMaps:
    def test_doubling_preimage(self):
        assert doubling_map().preimage(box1(-1, True, 1, True)) == (
            box1("-1/2", True, "1/2", True))

    def test_shift_preimage(self):
        want = BoxSet.of(2, [(Interval.closed(0, 1),
                              Interval.make("-inf", False, -1, False))])
        got = shift2d_map().preimage(
            BoxSet.of(2, [(Interval.closed(0, 1),
                           Interval.make("-inf", False, 0, False))]))
        assert got == want

    def test_power_image_point(self):
        got = af.power(doubling_map(), 3).image(box1(1, True, 1, True))
        assert got == box1(8, True, 8, True)

    def test_power_zero_is_identity_on_everything(self):
        assert af.power(clamp_map(), 0).domain == BoxSet.full(1)

    def test_constant_rule_preimage(self):
        const = PiecewiseAffineMap.affine_1d(0, 5)
        assert const.preimage(box1(4, True, 6, True)) == BoxSet.full(1)
        assert const.preimage(box1(0, True, 1, True)).is_empty

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 3))
    def test_power_additivity(self, m, n):
        f = clamp_map()
        assert af.power(f, m + n).maps_equal(
            af.compose(af.power(f, m), af.power(f, n)))


class TestNodeWalk:
    """Images and preimages relabel the canonical node of a set."""

    def test_negative_slope_swaps_open_and_closed_ends(self):
        neg = (AffineRule.of(-1, 0),)
        assert af.rules_image(neg, box1(0, False, 1, True)) == \
            box1(-1, True, 0, False)
        assert af.rules_preimage(neg, box1(0, False, 1, True)) == \
            box1(-1, True, 0, False)
        assert af.rules_image((AffineRule.of(-2, 1),), box1(0, True, 1, False)) \
            == box1(-1, False, 1, True)

    def test_zero_slope_preimage_is_the_axis_or_empty(self):
        rules = (AffineRule.of(1, 0), AffineRule.of(0, 2))
        a = BoxSet.of(2, [(Interval.closed(0, 1), Interval.closed(1, 3))])
        assert af.rules_preimage(rules, a) == BoxSet.of(
            2, [(Interval.closed(0, 1), Interval.line())])
        b = BoxSet.of(2, [(Interval.closed(0, 1), Interval.open(2, 3))])
        assert af.rules_preimage(rules, b).is_empty

    def test_zero_slope_image_projects_onto_the_intercept(self):
        rules = (AffineRule.of(0, 5), AffineRule.of(2, 0))
        a = BoxSet.of(2, [(Interval.closed(0, 1), Interval.closed(0, 1)),
                          (Interval.closed(3, 4), Interval.open(1, 2))])
        assert af.rules_image(rules, a) == BoxSet.of(
            2, [(Interval.point(5), Interval.make(0, True, 4, False))])
        assert af.rules_image(rules, BoxSet.full(2)) == BoxSet.of(
            2, [(Interval.point(5), Interval.line())])

    def test_slabs_equal_after_a_zero_slope_axis_merge(self):
        a = BoxSet.of(2, [(Interval.closed(0, 1), Interval.closed(0, 1)),
                          (Interval.make(1, False, 2, True), Interval.closed(5, 6))])
        assert len(a.boxes) == 2
        got = af.rules_image((AffineRule.of(1, 0), AffineRule.of(0, 3)), a)
        assert got.boxes == ((Interval.closed(0, 2), Interval.point(3)),)

    def test_rules_agree_on_the_crossing_point_only(self):
        from conley_kernel.suites import rules_agree_on
        r1, r2 = (AffineRule.of(1, 0),), (AffineRule.of(-1, 2),)
        assert rules_agree_on(r1, r2, box1(1, True, 1, True))
        assert not rules_agree_on(r1, r2, box1(1, True, 2, False))
        assert rules_agree_on(r1, r2, BoxSet.empty(1))
        shifted = (AffineRule.of(1, 1),)
        assert not rules_agree_on(r1, shifted, box1(1, True, 1, True))

    def test_results_are_canonical(self):
        from conley_kernel.suites import random_box_list, random_rules

        def canonical(node):
            if node is True or node is False:
                return True
            keys, vals = node
            return len(vals) == len(keys) + 1 and \
                list(keys) == sorted(set(keys)) and \
                (keys or not isinstance(vals[0], bool)) and \
                all(x != y for x, y in zip(vals, vals[1:])) and \
                all(canonical(v) for v in vals)

        rng = random.Random(29)
        for dimension in (1, 2, 3):
            for _ in range(60):
                rules = random_rules(rng, dimension)
                a = BoxSet.of(dimension, random_box_list(rng, dimension, 4))
                for got in (af.rules_image(rules, a), af.rules_preimage(rules, a)):
                    assert canonical(got.node), (rules, a)
                    assert got.node == BoxSet.of(dimension, got.boxes).node


class TestComposition:
    def test_preimage_of_composite(self):
        rng = random.Random(3)
        maps = [doubling_map(), clamp_map(),
                PiecewiseAffineMap.affine_1d(-1, 1)]
        for _ in range(30):
            f, g = rng.choice(maps), rng.choice(maps)
            a = random_interval_set(rng)
            assert af.compose(g, f).preimage(a) == (
                f.preimage(g.preimage(a)))

    def test_composite_domain_shrinks(self):
        f = clamp_map().restrict(box1(0, True, 3, True))
        g = clamp_map().restrict(box1(1, True, 2, True))
        comp = af.compose(g, f)
        assert comp.domain.subset_of(f.domain)

    def test_associativity(self):
        f = clamp_map()
        g = doubling_map().restrict(box1(-2, True, 2, True))
        h = PiecewiseAffineMap.affine_1d(-1, 1)
        assert af.compose(af.compose(h, g), f).maps_equal(
            af.compose(h, af.compose(g, f)))


class TestProperness:
    def test_homeomorphic_restriction_is_proper(self):
        f = doubling_map()
        assert f.is_proper_on(box1("-1/4", False, "1/4", False),
                              box1("-1/2", False, "1/2", False))

    def test_clamped_piece_is_not_proper(self):
        f = clamp_map()
        assert not f.is_proper_on(box1(0, True, 1, False),
                                  box1(0, True, "1/2", True))

    def test_compact_domain_always_proper(self):
        rng = random.Random(11)
        for f in (doubling_map(), clamp_map(),
                  PiecewiseAffineMap.affine_1d(Fraction(1, 3), 2)):
            for _ in range(20):
                d = random_interval_set(rng).closure()
                d = d.intersect(box1(-4, True, 4, True)).intersect(f.domain)
                if d.is_empty:
                    continue
                assert f.is_proper_on(d, f.image(d))

    def test_escape_to_infinity_with_constant_axis(self):
        # constant map on an unbounded domain: value stays in Y
        const = PiecewiseAffineMap.affine_1d(0, 0)
        d = box1(0, True, "inf", False)
        assert not const.is_proper_on(d, box1(0, True, 0, True))

    def test_precondition_violations(self):
        f = doubling_map().restrict(box1(0, True, 1, True))
        with pytest.raises(ValueError):
            f.is_proper_on(box1(0, True, 2, True), BoxSet.full(1))
        with pytest.raises(ValueError):
            f.is_proper_on(box1(0, True, 1, True), box1(0, True, 1, True))


class TestEquality:
    def test_maps_equal_is_semantic(self):
        one_piece = PiecewiseAffineMap.affine_1d(1, 0, box1(0, True, 2, True))
        two_pieces = PiecewiseAffineMap.of(1, [
            Piece(box1(0, True, 1, True), (AffineRule.of(1, 0),)),
            Piece(box1(1, False, 2, True), (AffineRule.of(1, 0),)),
        ])
        assert one_piece.maps_equal(two_pieces)

    def test_different_values_not_equal(self):
        f = PiecewiseAffineMap.affine_1d(1, 0, box1(0, True, 1, True))
        g = PiecewiseAffineMap.affine_1d(2, 0, box1(0, True, 1, True))
        assert not f.maps_equal(g)

    def test_different_domains_not_equal(self):
        f = PiecewiseAffineMap.affine_1d(1, 0, box1(0, True, 1, True))
        g = PiecewiseAffineMap.affine_1d(1, 0, box1(0, True, 1, False))
        assert not f.maps_equal(g)


def pieces_1d(*parts):
    """1-D pieces from (lo, lo_closed, hi, hi_closed, slope, intercept)."""
    return [Piece(box1(lo, lc, hi, hc), (AffineRule.of(m, q),))
            for lo, lc, hi, hc, m, q in parts]


class TestCanonicalForm:
    """One map has one form, whichever piece list writes it."""

    # x -> -x up to 0, x on [0, 1], 2x - 1 beyond: kinks at 0 and 1
    KINKED = pieces_1d(("-inf", False, 0, True, -1, 0), (0, False, 1, True, 1, 0),
                       (1, False, "inf", False, 2, -1))

    def test_one_map_written_four_ways(self):
        f = PiecewiseAffineMap.of(1, self.KINKED)
        shuffled = [self.KINKED[2], self.KINKED[0], self.KINKED[1]]
        split = pieces_1d(("-inf", False, -3, False, -1, 0),
                          (-3, True, 0, True, -1, 0),
                          (0, False, "1/2", False, 1, 0),
                          ("1/2", True, 1, True, 1, 0),
                          (1, False, 4, True, 2, -1),
                          (4, False, "inf", False, 2, -1))
        moved = pieces_1d(("-inf", False, 0, False, -1, 0),
                          (0, True, 1, False, 1, 0),
                          (1, True, "inf", False, 2, -1))
        with_points = pieces_1d(("-inf", False, 0, False, -1, 0),
                                (0, True, 0, True, 0, 0),
                                (0, False, 1, False, 1, 0),
                                (1, True, 1, True, 1, 0),
                                (1, False, "inf", False, 2, -1))
        for written in (shuffled, split, moved, with_points):
            g = PiecewiseAffineMap.of(1, written)
            assert g == f and g.maps_equal(f)
            assert g.pieces == f.pieces
        assert [p.domain for p in f.pieces] == [
            box1("-inf", False, 0, True), box1(0, False, 1, True),
            box1(1, False, "inf", False)]

    def test_a_2d_map_split_along_either_axis(self):
        # (x, y) -> (|x|, y), kinked along the line x = 0
        left = (AffineRule.of(-1, 0), AffineRule.of(1, 0))
        right = (AffineRule.of(1, 0), AffineRule.of(1, 0))
        line = Interval.line()

        def piece(x, y, rules):
            return Piece(BoxSet.of(2, [(x, y)]), rules)
        written = [
            [piece(Interval.make("-inf", False, 0, True), line, left),
             piece(Interval.make(0, False, "inf", False), line, right)],
            [piece(Interval.make("-inf", False, 0, True),
                   Interval.make("-inf", False, 1, False), left),
             piece(Interval.make("-inf", False, 0, True),
                   Interval.make(1, True, "inf", False), left),
             piece(Interval.make(0, False, "inf", False),
                   Interval.make("-inf", False, 1, True), right),
             piece(Interval.make(0, False, "inf", False),
                   Interval.make(1, False, "inf", False), right)],
            [piece(Interval.make("-inf", False, 0, False), line, left),
             piece(Interval.make(0, True, 2, True), line, right),
             piece(Interval.make(2, False, "inf", False), line, right)],
        ]
        f, *others = [PiecewiseAffineMap.of(2, w) for w in written]
        assert all(g == f and g.pieces == f.pieces for g in others)
        assert [p.rules for p in f.pieces] == [left, right]

    def test_maps_that_differ_at_one_point(self):
        base = [Piece(box1(0, True, 1, True), (AffineRule.of(1, 0),))]
        f = PiecewiseAffineMap.of(1, base + [
            Piece(box1(2, True, 2, True), (AffineRule.of(1, 0),))])
        g = PiecewiseAffineMap.of(1, base + [
            Piece(box1(2, True, 2, True), (AffineRule.of(0, 3),))])
        h = PiecewiseAffineMap.of(1, base + [
            Piece(box1(2, True, 2, True), (AffineRule.of(0, 2),))])
        assert f != g and not f.maps_equal(g)
        assert f == h           # x -> x and x -> 2 agree at the point 2
        assert PiecewiseAffineMap.of(1, base) != PiecewiseAffineMap.of(1, [
            Piece(box1(0, True, 1, False), (AffineRule.of(1, 0),))])

    def test_powers_of_the_clamp_keep_two_pieces(self):
        for k in range(1, 6):
            fk = af.power(clamp_map(), k)
            assert len(fk.pieces) == 2, k
            assert fk.eval_point([k]) == (Fraction(0),)
            assert fk.eval_point([k + 3]) == (Fraction(3),)


class TestSetMapMemo:
    """Each map memoizes its images and preimages by argument set."""

    def test_memoized_results_equal_a_fresh_parse(self):
        from conley_kernel.documents import (
            SystemDocument, document_to_json, parse_document)
        from conley_kernel.suites import random_box_list, random_product_map
        rng = random.Random(43)
        for dimension in (1, 2):
            f = random_product_map(rng, dimension)
            raw = document_to_json(SystemDocument("interval_map", f, {}))
            sets = [BoxSet.of(dimension, random_box_list(rng, dimension))
                    for _ in range(8)]
            calls = [(op, a) for op in ("image", "preimage") for a in sets] * 2
            rng.shuffle(calls)
            for op, a in calls:
                fresh = parse_document(raw).system
                assert getattr(f, op)(a) == getattr(fresh, op)(a)
            assert len(f._images) == len(set(sets)) == len(f._preimages)

    def test_parsed_documents_share_no_memo(self):
        from conley_kernel.documents import parse_document
        raw = {"kind": "interval_map", "system": {"dimension": 1, "pieces": [
            {"domain": [[["-inf", False, "inf", False]]],
             "rules": [{"slope": "2", "intercept": "0"}]}]}}
        first, second = parse_document(raw).system, parse_document(raw).system
        first.preimage(box1(-1, True, 1, True))
        first.image(box1(-1, True, 1, True))
        assert first == second
        assert len(first._preimages) == len(first._images) == 1
        assert second._preimages == {} and second._images == {}
