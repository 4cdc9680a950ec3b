import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conley_kernel import affine as af
from conley_kernel.affine import AffineRule, Piece, PiecewiseAffineMap
from conley_kernel.boxes import BoxSet, Interval
from conley_kernel.suites import clamp_map, doubling_map, shift2d_map
from kernel_oracles import (
    ORACLE_SLOPES, PieceListMap, contraction_map, oracle_rules_agree_on,
    oracle_rules_image, oracle_rules_preimage, random_box_list,
    random_interval_set, random_piece_list, random_product_map, random_rules,
    rewritten_pieces, rules_agree_on,
)


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

    def test_error_messages(self):
        """A set of another dimension is rejected by the map's own checks."""
        f, square = doubling_map(), BoxSet.of(2, [(Interval.closed(0, 1),) * 2])
        for op in (f.invariant_part, f.weak_compactifiability_checks):
            with pytest.raises(ValueError,
                               match=r"^carrier mismatch: dimension differs$"):
                op(square)


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
        r1, r2 = (AffineRule.of(1, 0),), (AffineRule.of(-1, 2),)
        assert rules_agree_on(r1, r2, box1(1, True, 1, True))
        assert not rules_agree_on(r1, r2, box1(1, True, 2, False))
        assert rules_agree_on(r1, r2, BoxSet.empty(1))
        shifted = (AffineRule.of(1, 1),)
        assert not rules_agree_on(r1, shifted, box1(1, True, 1, True))

    def test_results_are_canonical(self):

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

    def test_set_maps_and_rule_agreement_match_the_box_by_box_oracle(self):
        rng = random.Random(11)
        for dimension, count in ((1, 80), (2, 60), (3, 30)):
            for _ in range(count):
                assert _affine_mismatch(rng, dimension) is None

    def test_product_maps_match_the_box_by_box_oracle(self):
        rng = random.Random(13)
        for k in range(80):
            f = random_product_map(rng, 1 + k % 3) if k % 4 else clamp_map()
            a = BoxSet.of(f.dimension, random_box_list(rng, f.dimension))
            fo = PieceListMap(f.dimension, f.pieces)
            assert f.preimage(a) == fo.preimage(a) and \
                f.image(a) == fo.image(a), (f, a)
            for p, q in itertools.product(f.pieces, repeat=2):
                meet = p.domain.closure().intersect(q.domain.closure())
                assert rules_agree_on(p.rules, q.rules, meet) == \
                    oracle_rules_agree_on(p.rules, q.rules, meet), (p, q)


class TestComposition:
    def test_preimage_of_composite(self):
        rng = random.Random(3)
        maps = [doubling_map(), contraction_map(), clamp_map(),
                PiecewiseAffineMap.affine_1d(-1, 1),
                PiecewiseAffineMap.affine_1d(-1, 0),
                PiecewiseAffineMap.affine_1d(1, 1)]
        for _ in range(80):
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
        for f in (doubling_map(), contraction_map(), clamp_map(),
                  PiecewiseAffineMap.affine_1d(Fraction(1, 3), 2),
                  PiecewiseAffineMap.affine_1d(-1, 0),
                  PiecewiseAffineMap.affine_1d(1, 1)):
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


# separated cells per axis: no two touch, so any rules on any of their
# products make a continuous map; {0} gives point pieces, the gaps
# undefined steps
CELLS = (Interval.make("-inf", False, "-3/2", True),
         Interval.make(-1, True, "-1/2", False),
         Interval.point(0),
         Interval.make("1/4", False, 1, True),
         Interval.make("3/2", True, "inf", False))


def separated_map(rng, dimension):
    """Up to six pieces on products of CELLS with random rules, so pieces
    often share their range on one axis and differ on a later one."""
    cells = rng.sample(list(itertools.product(CELLS, repeat=dimension)),
                       min(rng.randint(1, 6), len(CELLS) ** dimension))
    return PiecewiseAffineMap.of(dimension, [
        Piece(BoxSet.of(dimension, [c]), random_rules(rng, dimension))
        for c in cells])


def clamp_product_map(rng, dimension):
    """A product of 1-D clamps, doublings and x -> 1 - x, restricted to a
    set of up to four boxes."""
    factors = (clamp_map, doubling_map,
               lambda: PiecewiseAffineMap.affine_1d(-1, 1))
    f = af.product([rng.choice(factors)() for _ in range(dimension)])
    return f.restrict(BoxSet.of(dimension, random_box_list(rng, dimension, 4)))


def walk_maps(rng, dimension):
    while True:
        kind = rng.randrange(4)
        try:
            if kind == 0:
                return separated_map(rng, dimension)
            if kind == 1:
                return clamp_product_map(rng, dimension)
            if kind == 2:
                return PiecewiseAffineMap.of(
                    dimension, random_piece_list(rng, dimension))
            return PiecewiseAffineMap.of(dimension, rewritten_pieces(
                rng, random_product_map(rng, dimension)))
        except ValueError:      # a rejected random piece list: draw again
            continue


def node_features(node, depth=0, out=None):
    """Which of the cases of the pull-back walk node shows: a step whose
    leaves hold two axis-depth rules, a point step, an undefined step, and
    zero and negative slopes."""
    out = set() if out is None else out
    if node is False:
        out.add("undefined")
    elif af._leaf(node):
        out |= {"zero slope" for r in node if r.slope == 0}
        out |= {"negative slope" for r in node if r.slope < 0}
    else:
        keys, vals = node
        if any(a[1] == b[1] for a, b in zip(keys, keys[1:])):
            out.add("point step")
        for x in vals:
            if len({r[depth] for r in af._leaves(x, {})}) > 1:
                out.add("shared step")
            node_features(x, depth + 1, out)
    return out


def _built(build, dimension: int, pieces):
    """The map build(dimension, pieces), or the message it raised."""
    try:
        return build(dimension, pieces)
    except ValueError as exc:
        return str(exc)


def _piece_list_mismatch(written: list, other: PiecewiseAffineMap,
                         sets: list, dimension: int):
    """(accepted, the first operation on which the map written as the piece
    list `written` disagrees with its piece-list oracle, or None): the
    accept or reject verdict of `of`, its images and preimages of `sets`,
    its restrictions to them, its composites with `other` both ways, and
    equality with `other` and with each restriction."""
    f = _built(PiecewiseAffineMap.of, dimension, written)
    fo = _built(PieceListMap.of, dimension, written)
    if isinstance(f, str) or isinstance(fo, str):
        return False, None if f == fo else f"verdict {f!r}, oracle {fo!r}"
    return True, _accepted_mismatch(f, fo, other, sets, dimension)


def _accepted_mismatch(f, fo, other, sets, dimension):
    """The first operation on which the accepted map f and its oracle fo
    disagree, or None; results compare as piece lists by the oracle."""
    go = PieceListMap(dimension, other.pieces)

    def same(got: PiecewiseAffineMap, want: PieceListMap) -> bool:
        return PieceListMap(dimension, got.pieces).maps_equal(want)

    if f.domain != fo.domain or not same(f, fo):
        return "the canonical pieces"
    if (f == other) != fo.maps_equal(go):
        return "maps_equal with the other map"
    if not same(af.compose(other, f), go.compose(fo)) or \
            not same(af.compose(f, other), fo.compose(go)):
        return "compose"
    for a in sets:
        if f.image(a) != fo.image(a):
            return f"image of {a}"
        if f.preimage(a) != fo.preimage(a):
            return f"preimage of {a}"
        r, ro = f.restrict(a), fo.restrict(a)
        if not same(r, ro):
            return f"restrict to {a}"
        if (r == f) != ro.maps_equal(fo):
            return f"maps_equal with the restriction to {a}"
    return None


def _affine_mismatch(rng: random.Random, dimension: int):
    """The first set map on which the node walk and the box-by-box oracle
    disagree for random rules and a random_box_list set, or None.  The
    preimage is also checked by membership, x in f^-1(A) iff f(x) in A, at
    every breakpoint of either result and between and beyond them."""
    rules = random_rules(rng, dimension)
    a = BoxSet.of(dimension, random_box_list(rng, dimension))
    pre = af.rules_preimage(rules, a)
    if pre != oracle_rules_preimage(rules, a):
        return f"preimage under {rules} of {a}"
    if af.rules_image(rules, a) != oracle_rules_image(rules, a):
        return f"image under {rules} of {a}"
    if dimension < 3:
        axes = []
        for k in range(dimension):
            ends = sorted({c.value for b in pre.boxes + a.boxes
                           for c in (b[k].lo, b[k].hi) if c.is_finite})
            ends = [ends[0] - 1] + ends + [ends[-1] + 1] if ends else [0]
            axes.append(ends + [(x + y) / 2 for x, y in zip(ends, ends[1:])])
        for x in itertools.product(*axes):
            if pre.contains_point(x) != a.contains_point(
                    [r.apply(v) for r, v in zip(rules, x)]):
                return f"preimage membership at {list(x)} under {rules} of {a}"
    # a second rule equal to the first, shifted in the intercept, or
    # crossing it at a half-integer c, on each axis; the region is pinned
    # to c on some crossing axes, so both answers occur
    r2, boxes = [], random_box_list(rng, dimension, 2)
    for k, r in enumerate(rules):
        kind = rng.choice(("same", "same", "shift", "cross"))
        c = Fraction(rng.randint(-2, 4), 2)
        if kind == "same":
            r2.append(r)
        elif kind == "shift":
            r2.append(AffineRule(r.slope, r.intercept + Fraction(1, 2)))
        else:
            m = rng.choice([s for s in ORACLE_SLOPES if s != r.slope])
            r2.append(AffineRule(m, r.apply(c) - m * c))
            if rng.randint(0, 2):
                boxes = [b[:k] + (Interval.point(c),) + b[k + 1:] for b in boxes]
    region = BoxSet.of(dimension, boxes)
    if rules_agree_on(rules, tuple(r2), region) != \
            oracle_rules_agree_on(rules, r2, region):
        return f"rules_agree_on {rules}, {tuple(r2)} on {region}"
    return None



class TestPullBack:
    """Preimages and composites are one walk of the canonical nodes; the
    piece-list oracle handles one piece, or pair of pieces, at a time."""

    def test_against_the_piece_list_oracle(self):
        rng = random.Random(61)
        seen = set()
        for dimension in (1, 2, 3):
            for _ in range(70):
                f, g = walk_maps(rng, dimension), walk_maps(rng, dimension)
                seen |= node_features(f.node) | node_features(g.node)
                fo = PieceListMap(dimension, f.pieces)
                go = PieceListMap(dimension, g.pieces)
                for _ in range(3):
                    a = BoxSet.of(dimension, random_box_list(rng, dimension, 4))
                    assert f.preimage(a) == fo.preimage(a), (f, a)
                got = af.compose(g, f)
                assert got == PiecewiseAffineMap.of(
                    dimension, go.compose(fo).pieces), (g, f)
                assert af._continuous(got.node, 0)
        assert seen == {"shared step", "point step", "undefined",
                        "zero slope", "negative slope"}

    def test_composites_on_separated_pieces(self):
        rng = random.Random(67)
        for dimension in (2, 3):
            for _ in range(40):
                f = separated_map(rng, dimension)
                g = rng.choice((separated_map, clamp_product_map))(rng, dimension)
                want = PiecewiseAffineMap.of(dimension, PieceListMap(
                    dimension, g.pieces).compose(PieceListMap(
                        dimension, f.pieces)).pieces)
                got = af.compose(g, f)
                assert got == want and af._continuous(got.node, 0), (g, f)

    def test_pieces_separated_on_the_second_axis(self):
        # f and g share their first-axis ranges between pieces; g after f
        # is the one piece [1, 2] x {-6} -> (2x - 2, -3)
        def pieces(*parts):
            return [Piece(BoxSet.of(2, [box]), (AffineRule.of(*r0),
                                                AffineRule.of(*r1)))
                    for box, r0, r1 in parts]
        f = PiecewiseAffineMap.of(2, pieces(
            ((Interval.closed(1, 3), Interval.point(-6)), (-2, 1), (0, -2)),
            ((Interval.closed(2, 4), Interval.make(-5, True, -4, False)),
             ("1/2", 0), (-2, 0))))
        g = PiecewiseAffineMap.of(2, pieces(
            ((Interval.make(-3, True, 0, False), Interval.closed(-2, 2)),
             (-1, -1), (0, -3)),
            ((Interval.point(1), Interval.make(-4, True, -3, False)),
             (0, 1), (3, -2))))
        want = PiecewiseAffineMap.of(2, pieces(
            ((Interval.closed(1, 2), Interval.point(-6)), (2, -2), (0, -3))))
        assert af.compose(g, f) == want
        assert af.compose(g, f).eval_point([2, -6]) == (Fraction(2), Fraction(-3))

    def test_a_step_that_holds_its_left_end(self):
        # on D = [-1, 1] x [0, 1] u [0, 1] x [2, 3] the step of axis 0 past
        # (0, 0) is [0, 1]: it holds 0, and a breakpoint pulled back to
        # (0, 1) splits it
        d = BoxSet.of(2, [(Interval.closed(-1, 1), Interval.closed(0, 1)),
                          (Interval.closed(0, 1), Interval.closed(2, 3))])
        f = PiecewiseAffineMap.identity(2).restrict(d)
        left = BoxSet.of(2, [(Interval.make("-inf", False, 0, True),
                              Interval.line())])
        assert f.preimage(left) == BoxSet.of(2, [
            (Interval.closed(-1, 0), Interval.closed(0, 1)),
            (Interval.point(0), Interval.closed(2, 3))])
        ramp = af.product([PiecewiseAffineMap.of(1, pieces_1d(
            ("-inf", False, 0, True, 0, 0), (0, False, "inf", False, 1, 0))),
            PiecewiseAffineMap.identity(1)])
        assert af.compose(ramp, f) == ramp.restrict(d)

    def test_a_shared_step_whose_end_point_joins_its_left(self):
        # f's step [0, 1] of axis 0 holds two axis-0 rules (pieces apart on
        # axis 1).  g steps at (1, 0): its point 1 holds more of axis 1 than
        # the strip left of it.  Pulled back under the first piece, where g's
        # two sides agree at 1, that breakpoint moves to (1, 1), f's own
        # step end, and the merged step must stop before it.
        def rules(*pairs):
            return tuple(AffineRule.of(m, q) for m, q in pairs)
        a = (Interval.closed(0, 1), Interval.closed(0, 1))
        b = (Interval.closed(0, 1), Interval.closed(2, 3))
        f = PiecewiseAffineMap.of(2, [
            Piece(BoxSet.of(2, [a]), rules((1, 0), (1, 0))),
            Piece(BoxSet.of(2, [b]), rules((-1, 5), (1, 3)))])
        g = PiecewiseAffineMap.of(2, [
            Piece(BoxSet.of(2, [(Interval.make("-inf", False, 1, False),
                                 Interval.closed(0, 1))]), rules((1, 0), (1, 0))),
            Piece(BoxSet.of(2, [(Interval.make(1, True, "inf", False), iv)
                                for iv in (Interval.closed(0, 1),
                                           Interval.closed(5, 6))]),
                  rules((2, -1), (1, 0)))])
        assert af.compose(g, f) == PiecewiseAffineMap.of(2, [
            Piece(BoxSet.of(2, [a]), rules((1, 0), (1, 0))),
            Piece(BoxSet.of(2, [b]), rules((-2, 9), (1, 3)))])


class TestPieceListOracle:
    """The verdict of `of`, the canonical pieces, image, preimage,
    restrict, compose and maps_equal against the piece-list map that the
    canonical form replaced, on piece lists that often overlap or jump,
    and on product maps and the clamp written another way."""

    def test_random_piece_lists(self):
        rng = random.Random(11)
        for dimension, count in ((1, 40), (2, 30), (3, 10)):
            for _ in range(count):
                written = random_piece_list(rng, dimension)
                other = PiecewiseAffineMap.single(
                    random_rules(rng, dimension),
                    BoxSet.of(dimension, random_box_list(rng, dimension)))
                sets = [BoxSet.of(dimension, random_box_list(rng, dimension))]
                assert _piece_list_mismatch(
                    written, other, sets, dimension)[1] is None, written

    def test_rewritten_product_maps(self):
        rng = random.Random(13)
        for k in range(40):
            dimension = 1 + k % 2
            f = random_product_map(rng, dimension) if k % 4 else clamp_map()
            other = f if rng.randint(0, 1) else random_product_map(rng, dimension)
            sets = [BoxSet.of(dimension, random_box_list(rng, dimension))
                    for _ in range(2)]
            written = rewritten_pieces(rng, f)
            assert _piece_list_mismatch(
                written, other, sets, dimension)[1] is None, (f, written)
