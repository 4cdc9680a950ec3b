import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conley_kernel import affine as af
from conley_kernel import conley as co
from conley_kernel import dynamics as dyn
from conley_kernel import semiflow as sf
from conley_kernel.boxes import (
    BoxSet, Cut, Interval, NEG_INF, POS_INF, isect_iv,
)
from conley_kernel.dynamics import AdmissibleTriple
from conley_kernel.semiflow import Undecided
from conley_kernel.suites import clamp_flow, translation_flow
from kernel_oracles import (
    is_index_nbhd_certificate, oracle_candidate_times, oracle_dom_interval_1d,
    oracle_dom_interval_convex, oracle_time_pieces, random_box_list,
    random_flow,
)


CLAMP = clamp_flow()
TRANS = translation_flow()
UNIT = BoxSet.interval(0, True, 1, True)
HALF = BoxSet.interval(0, True, "1/2", True)
HALFOPEN = BoxSet.interval(0, True, 1, False)
S0 = BoxSet.interval(0, True, 0, True)


def box1(lo, lc, hi, hc):
    return BoxSet.interval(lo, lc, hi, hc)


class TestConstruction:
    def test_carrier_must_respect_clamp(self):
        with pytest.raises(ValueError):
            sf.ExactSemiflow.of([sf.AxisRule.floor(1, 0)],
                                carrier=BoxSet.full(1))

    def test_carrier_must_be_forward_invariant(self):
        with pytest.raises(ValueError):
            sf.ExactSemiflow.of([sf.AxisRule.floor(1, 0)],
                                carrier=box1(1, True, 2, True))

    @pytest.mark.parametrize("carrier, message", [
        (BoxSet.full(1), "carrier leaves the natural domain of the rules "
                         "(time-0 map would not be the identity)"),
        (box1(1, True, 2, True), "carrier is not forward invariant; "
                                 "the rules do not define a semiflow on it"),
    ], ids=["off-natural-range", "not-forward-invariant"])
    def test_of_rejects_a_bad_carrier(self, carrier, message):
        with pytest.raises(ValueError) as exc:
            sf.ExactSemiflow.of([sf.AxisRule.floor(1, 0)], carrier=carrier)
        assert str(exc.value) == message

    def test_natural_carriers(self):
        assert CLAMP.carrier == box1(0, True, "inf", False)
        assert TRANS.carrier == BoxSet.full(1)

    def test_clamped_velocity_positive(self):
        with pytest.raises(ValueError):
            sf.AxisRule.floor(0, 0)


class TestTimeMap:
    def test_translation(self):
        tm = sf.time_map(TRANS, 2)
        assert tm.eval_point([5]) == (Fraction(3),)

    def test_clamp_pieces(self):
        tm = sf.time_map(CLAMP, 1)
        assert len(tm.pieces) == 2
        assert tm.eval_point([3]) == (Fraction(2),)
        assert tm.eval_point(["1/2"]) == (Fraction(0),)

    def test_built_once_per_flow_and_time(self):
        tm = sf.time_map(CLAMP, Fraction(1, 2))
        assert sf.time_map(CLAMP, "1/2") is tm
        assert sf.time_map(CLAMP, 1) is not tm
        assert sf.time_map(clamp_flow(), Fraction(1, 2)) is not tm

    def test_time_zero_identity(self):
        tm = sf.time_map(CLAMP, 0)
        ident = af.PiecewiseAffineMap.identity(1).restrict(CLAMP.carrier)
        assert tm.maps_equal(ident)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            sf.time_map(CLAMP, -1)

    def test_semigroup_random_pairs(self):
        for t, u in ((Fraction(1), Fraction(1)), (Fraction(1, 3), Fraction(5, 2)),
                     (Fraction(7, 4), Fraction(1, 8))):
            lhs = af.compose(sf.time_map(CLAMP, t), sf.time_map(CLAMP, u))
            assert lhs.maps_equal(sf.time_map(CLAMP, t + u))

    def test_semigroup_laws_on_random_accepted_flows(self):
        """The construction checks imply f^0 = id and f^t f^u = f^(t+u) on
        the carrier (the ExactSemiflow docstring proves it); replay both on
        seeded random flows that pass them."""
        rng = random.Random(20261018)
        accepted = 0
        for _ in range(500):
            flow = random_flow(rng)
            if flow is None:
                continue
            accepted += 1
            ident = af.PiecewiseAffineMap.identity(flow.dimension) \
                .restrict(flow.carrier)
            assert sf.time_map(flow, 0).maps_equal(ident)
            pairs = [(Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(1, 3)),
                     (Fraction(2), Fraction(3, 4)),
                     (Fraction(rng.randint(1, 12), 4),
                      Fraction(rng.randint(1, 12), 3))]
            for t, u in pairs:
                lhs = af.compose(sf.time_map(flow, t), sf.time_map(flow, u))
                assert lhs.domain == flow.carrier
                assert lhs.maps_equal(sf.time_map(flow, t + u))
        assert accepted >= 200

    def test_products_equal_the_map_of_their_product_pieces(self):
        """A time map is the product of the axes' time maps on the carrier:
        the same canonical map as `of` builds, and checks, from the product
        pieces cut to the carrier."""
        rng = random.Random(20261019)
        checked = 0
        while checked < 60:
            flow = random_flow(rng)
            if flow is None:
                continue
            checked += 1
            for t in (Fraction(0), Fraction(1, 2), Fraction(rng.randint(1, 12), 4)):
                pieces = [af.Piece(BoxSet.of(flow.dimension, [
                    tuple(iv for iv, _ in parts)]).intersect(flow.carrier),
                    tuple(rule for _, rule in parts))
                    for parts in itertools.product(
                        *(oracle_time_pieces(r, t) for r in flow.axes))]
                assert sf.time_map(flow, t) == \
                    af.PiecewiseAffineMap.of(flow.dimension, pieces)

    def test_time_factors_are_the_nodes_of_their_pieces(self):
        """Each axis's time map, built directly in canonical form, is the
        map `of` builds, and checks, from the axis's time pieces."""
        rules = [sf.AxisRule.identity()]
        for v in (0, 1, "1/3", -2, "-3/4"):
            rules.append(sf.AxisRule.translation(v))
        for v, c in ((1, 0), ("1/3", -2), (3, "5/7")):
            rules += [sf.AxisRule.floor(v, c), sf.AxisRule.ceil(v, c)]
        for r in rules:
            for t in (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(5, 2)):
                pieces = [af.Piece(BoxSet.from_intervals([iv]), (rule,))
                          for iv, rule in oracle_time_pieces(r, t)]
                assert r.time_factor(t) == \
                    af.PiecewiseAffineMap.of(1, pieces), (r, t)

    def test_ceiling_rule(self):
        flow = sf.ExactSemiflow.of([sf.AxisRule.ceil(2, 10)])
        tm = sf.time_map(flow, 1)
        assert tm.eval_point([5]) == (Fraction(7),)
        assert tm.eval_point([9]) == (Fraction(10),)

    def test_pointwise_against_axis_formulas(self):
        flows = [CLAMP, TRANS, sf.ExactSemiflow.of([sf.AxisRule.ceil(3, 2)]),
                 sf.ExactSemiflow.of([sf.AxisRule.identity()])]
        times = [Fraction(0), Fraction(1, 3), Fraction(2), Fraction(9, 2)]
        for flow in flows:
            rule = flow.axes[0]
            xs = [Fraction(k, 4) for k in range(-20, 21)
                  if flow.carrier.contains_point([Fraction(k, 4)])]
            for t in times:
                tm = sf.time_map(flow, t)
                for x in xs:
                    assert tm.eval_point([x]) == (rule.value(t, x),)


class TestDomInterval:
    def test_clamp_absorbs(self):
        for t in (Fraction(1, 2), Fraction(5), Fraction(100)):
            assert sf.dom_interval(CLAMP, UNIT, t) == UNIT

    def test_translation_window(self):
        got = sf.dom_interval(TRANS, UNIT, Fraction(1, 2))
        assert got == box1("1/2", True, 1, True)

    def test_time_zero(self):
        assert sf.dom_interval(TRANS, UNIT, 0) == UNIT

    def test_multibox_gap_blocks_transit(self):
        e = BoxSet.from_intervals([Interval.closed(0, 1), Interval.closed(2, 3)])
        got = sf.dom_interval(TRANS, e, 2)
        # points of [2,3] would have to cross the gap (1,2)
        assert got == BoxSet.empty(1)

    def test_multibox_short_time(self):
        e = BoxSet.from_intervals([Interval.closed(0, 1), Interval.closed(2, 3)])
        got = sf.dom_interval(TRANS, e, Fraction(1, 2))
        want = BoxSet.from_intervals([Interval.closed(Fraction(1, 2), 1),
                                      Interval.closed(Fraction(5, 2), 3)])
        assert got == want

    def test_punctured_interval(self):
        e = BoxSet.from_intervals([Interval.make(0, True, 1, False),
                                   Interval.make(1, False, 2, True)])
        got = sf.dom_interval(TRANS, e, Fraction(1, 4))
        # crossing the puncture at 1 is forbidden
        want = BoxSet.from_intervals([
            Interval.make(Fraction(1, 4), True, 1, False),
            Interval.make(Fraction(5, 4), False, 2, True)])
        assert got == want

    def test_decreasing_in_t(self):
        for t in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            d1 = sf.dom_interval(TRANS, UNIT, t)
            d2 = sf.dom_interval(TRANS, UNIT, 2 * t)
            assert d2.subset_of(d1)

    def test_hit_method_against_sandwich(self):
        # the component rule, the hit-set oracle and the sandwich are
        # independent exact routes: they must agree whenever they conclude
        import random
        rng = random.Random(59)
        flows = [CLAMP, TRANS, sf.ExactSemiflow.of([sf.AxisRule.ceil(1, 3)]),
                 sf.ExactSemiflow.of([sf.AxisRule.translation(-2)])]
        agreements = 0
        for _ in range(50):
            flow = rng.choice(flows)
            ivs = []
            for _ in range(rng.randint(1, 3)):
                a = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
                b = a + Fraction(rng.randint(1, 4), 2)
                ivs.append(Interval.make(a, rng.randint(0, 1) == 0,
                                         b, rng.randint(0, 1) == 0))
            e = BoxSet.from_intervals(ivs).intersect(flow.carrier)
            if e.is_empty:
                continue
            t = Fraction(rng.randint(1, 8), 4)
            exact = sf.dom_interval(flow, e, t)
            assert exact == oracle_dom_interval_1d(flow, e, t), (flow.axes, e, t)
            try:
                sandwich = sf._dom_interval_sandwich(flow, e, t)
            except Undecided:
                # refinement never certifies across measure-zero punctures;
                # the hit method must still be an inner bound of the samples
                sampled = e
                for k in range(1, 9):
                    sampled = sampled.intersect(
                        sf.time_map(flow, t * k / 8).preimage(e))
                assert exact.subset_of(sampled)
                continue
            assert exact == sandwich, (flow.axes, e, t)
            agreements += 1
        assert agreements >= 20

    def test_two_dimensional_product(self):
        flow = sf.ExactSemiflow.of([sf.AxisRule.floor(1, 0),
                                    sf.AxisRule.identity()])
        e = BoxSet.of(2, [(Interval.closed(0, 1), Interval.closed(-1, 1))])
        assert sf.dom_interval(flow, e, 7) == e

    def test_two_dimensional_multibox_transit_blocked(self):
        flow = sf.ExactSemiflow.of([sf.AxisRule.translation(1),
                                    sf.AxisRule.identity()])
        e = BoxSet.of(2, [
            (Interval.closed(0, 1), Interval.closed(0, 1)),
            (Interval.closed(2, 3), Interval.closed(0, 1)),
        ])
        # reaching the left box from the right one means crossing the gap
        assert sf.dom_interval(flow, e, 2).is_empty
        got = sf.dom_interval(flow, e, Fraction(1, 2))
        want = BoxSet.of(2, [
            (Interval.closed(Fraction(1, 2), 1), Interval.closed(0, 1)),
            (Interval.closed(Fraction(5, 2), 3), Interval.closed(0, 1)),
        ])
        assert got == want


class TestProperness:
    def test_compact_always(self):
        assert sf.is_finite_time_proper(CLAMP, UNIT)

    def test_closed_unbounded(self):
        assert sf.is_finite_time_proper(CLAMP, box1(0, True, "inf", False))

    def test_halfopen_fails(self):
        assert not sf.is_finite_time_proper(CLAMP, HALFOPEN)

    def test_a_probe_time_finds_the_failure(self):
        # [0, 1) u (2, 3] is neither closed nor forward invariant, so the
        # probes decide: at t = 1/2, x -> 1- leaves D_t(E) while x - t ->
        # 1 - t stays in E
        e = box1(0, True, 1, False).union(box1(2, False, 3, True))
        assert not e.is_closed() and not sf._forward_invariant(CLAMP.axes, e)
        t = Fraction(1, 2)
        assert not sf.time_map(CLAMP, t).is_proper_on(
            sf.dom_interval(CLAMP, e, t), e)
        assert sf.is_finite_time_proper(CLAMP, e) is False

    def test_halfopen_still_openly_defined(self):
        assert sf.is_openly_defined_cont(CLAMP, HALFOPEN)

    def test_open_set_openly_defined(self):
        assert sf.is_openly_defined_cont(TRANS, box1(0, False, 1, False))

    def test_translation_window_not_openly_defined(self):
        assert not sf.is_openly_defined_cont(TRANS, UNIT)

    def test_time_maps_inherit_properness(self):
        for t in (Fraction(1, 2), Fraction(1), Fraction(3)):
            dom = sf.dom_interval(CLAMP, UNIT, t)
            assert sf.time_map(CLAMP, t).is_proper_on(dom, UNIT)

    def test_orbit_sets_compact(self):
        # compact E inside a total flow: swept domains and their images stay compact
        for a, b in ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(2))):
            d = sf.dom_interval(CLAMP, UNIT, b)
            img = sf.time_map(CLAMP, a).image(d)
            assert img.is_compact()


class TestEscapeSolver:
    """Cross-check the boundary-return solver against time sampling."""

    @staticmethod
    def _random_flow_and_set(rng):
        kind = rng.choice(("floor", "translation", "ceil"))
        v = Fraction(rng.randint(1, 3), rng.choice((1, 2)))
        if kind == "floor":
            flow = sf.ExactSemiflow.of([sf.AxisRule.floor(v, 0)])
            lo = Fraction(rng.randint(0, 2), 2)
        elif kind == "ceil":
            flow = sf.ExactSemiflow.of([sf.AxisRule.ceil(v, 4)])
            lo = Fraction(rng.randint(-4, 2), 2)
        else:
            flow = sf.ExactSemiflow.of([sf.AxisRule.translation(
                v if rng.randint(0, 1) else -v)])
            lo = Fraction(rng.randint(-4, 2), 2)
        hi = lo + Fraction(rng.randint(1, 4), 2)
        e = BoxSet.interval(lo, rng.randint(0, 1) == 0,
                            hi, rng.randint(0, 1) == 0).intersect(flow.carrier)
        return flow, e

    def test_sampled_escapes_always_detected(self):
        import random
        rng = random.Random(47)
        for _ in range(60):
            flow, e = self._random_flow_and_set(rng)
            if e.is_empty or e.is_closed():
                continue
            solver = sf._escape_exists(flow, e)
            boundary = e.closure().difference(e)
            sampled = False
            for k in range(1, 33):
                tau = Fraction(k, 32)
                img = sf.time_map(flow, tau).image(boundary)
                if not img.intersect(e).is_empty:
                    sampled = True
                    break
            if sampled:
                assert solver, (flow.axes, e)
            # solver hits that sampling misses must sit at irrational-free
            # sub-sample times; re-check on a finer grid before accepting
            if solver and not sampled:
                finer = any(
                    not sf.time_map(flow, Fraction(k, 256)).image(boundary)
                    .intersect(e).is_empty for k in range(1, 257))
                assert finer, (flow.axes, e)


class TestAdmissibility:
    def test_diagonal(self):
        assert dyn.is_admissible(CLAMP, UNIT, UNIT,
                                 AdmissibleTriple(0, 0, 0))

    def test_clamp_half(self):
        t = AdmissibleTriple(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        assert dyn.is_admissible(CLAMP, UNIT, HALF, t)

    def test_find_and_cross(self):
        search = dyn.find_admissible(CLAMP, UNIT, HALF)
        assert search.found
        cm = dyn.cross_map(CLAMP, UNIT, HALF, search.triple)
        assert cm.domain.subset_of(UNIT)
        assert sf.time_map(CLAMP, search.triple.c).restrict(cm.domain).maps_equal(
            cm.realized)

    def test_translation_windows_equivalent(self):
        res = dyn.sim_f(TRANS, UNIT, box1(5, True, 6, True))
        assert res.is_equivalent

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            dyn.cross_map(CLAMP, HALF, UNIT,
                          AdmissibleTriple(0, 0, Fraction(1, 2)))


class TestInvariantPart:
    def test_clamp_fixed_point(self):
        assert sf.invariant_part_F(CLAMP, UNIT) == S0

    def test_translation_empty(self):
        got = sf.invariant_part_F(TRANS, UNIT)
        assert isinstance(got, BoxSet) and got.is_empty

    def test_unbounded_translation_undecided(self):
        with pytest.raises(Undecided):
            sf.invariant_part_F(TRANS, BoxSet.full(1))

    def test_identity_axis_free(self):
        flow = sf.ExactSemiflow.of([sf.AxisRule.floor(1, 0),
                                    sf.AxisRule.identity()])
        e = BoxSet.of(2, [(Interval.closed(0, 2), Interval.closed(-1, 1))])
        want = BoxSet.of(2, [(Interval.point(0), Interval.closed(-1, 1))])
        assert sf.invariant_part_F(flow, e) == want

    def test_outer_contains_invariant_part(self):
        outer = dyn.invariant_part_outer(CLAMP, UNIT, 3)
        assert S0.subset_of(outer)

    def test_sampled_time_oracle(self):
        sampled = dyn.invariant_part_exact(sf.time_map(CLAMP, Fraction(1, 4)), UNIT)
        assert isinstance(sampled, BoxSet)
        assert sampled == sf.invariant_part_F(CLAMP, UNIT)


class TestIndexNbhdCont:
    def test_unit_certifies(self):
        cert = co.is_index_nbhd(CLAMP, UNIT, S0)
        assert is_index_nbhd_certificate(cert, CLAMP, UNIT)

    def test_halfopen_rejected_for_properness(self):
        res = co.is_index_nbhd(CLAMP, HALFOPEN, S0)
        assert isinstance(res, co.Failure)
        assert "finite-time proper" in res.reason

    def test_invariance_precondition(self):
        with pytest.raises(ValueError):
            co.is_isolating(CLAMP, UNIT, BoxSet.interval(1, True, 1, True))

    def test_construct(self):
        built = co.construct_index_nbhd(CLAMP, S0, UNIT)
        assert isinstance(built, co.ConstructedNbhd)
        again = co.is_index_nbhd(CLAMP, built.subset, S0)
        assert is_index_nbhd_certificate(again, CLAMP, built.subset)
        assert dyn.sim_f(CLAMP, built.subset, built.compact_seed).is_equivalent

    def test_connecting_morphism(self):
        m = co.connecting_morphism(CLAMP, UNIT, HALF)
        assert isinstance(m, dyn.CrossMap)

    def test_simple_system(self):
        rep = co.verify_simple_system(CLAMP, S0, [UNIT, HALF])
        assert isinstance(rep, co.ConleyIndexReport)
        assert rep.ok

    def test_empty_invariant_set_one_point_index(self):
        rep = co.conley_index(TRANS, BoxSet.empty(1), BoxSet.empty(1))
        assert isinstance(rep, co.ConleyIndexReport) and rep.ok

    def test_two_dimensional_corner_attractor(self):
        flow = sf.ExactSemiflow.of([sf.AxisRule.floor(1, 0),
                                    sf.AxisRule.floor(2, 0)])
        corner = BoxSet.of(2, [(Interval.point(0), Interval.point(0))])
        square = BoxSet.of(2, [(Interval.closed(0, 1), Interval.closed(0, 1))])
        small = BoxSet.of(2, [(Interval.closed(0, Fraction(1, 2)),
                               Interval.closed(0, Fraction(1, 2)))])
        assert sf.invariant_part_F(flow, square) == corner
        cert = co.is_index_nbhd(flow, square, corner)
        assert is_index_nbhd_certificate(cert, flow, square)
        rep = co.verify_simple_system(flow, corner, [square, small])
        assert isinstance(rep, co.ConleyIndexReport) and rep.ok


class TestRepresentationIndependence:
    """Verdicts on a box set depend on the set, not on the boxes it is
    written with: N = [0,1]^2 u [0,2]x[0,1/2] as two overlapping boxes and as
    the disjoint [0,1]^2 u (1,2]x[0,1/2], under floors toward (0, 0)."""

    RULES = [sf.AxisRule.floor(1, 0), sf.AxisRule.floor(2, 0)]
    S = BoxSet.points([(0, 0)], 2)
    FORMS = {
        "overlapping": [(Interval.closed(0, 1), Interval.closed(0, 1)),
                        (Interval.closed(0, 2), Interval.closed(0, Fraction(1, 2)))],
        "disjoint": [(Interval.closed(0, 1), Interval.closed(0, 1)),
                     (Interval.make(1, False, 2, True),
                      Interval.closed(0, Fraction(1, 2)))],
    }

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_is_index_nbhd_certifies(self, form):
        flow = sf.ExactSemiflow.of(self.RULES)
        n = BoxSet.of(2, self.FORMS[form])
        cert = co.is_index_nbhd(flow, n, self.S)
        assert is_index_nbhd_certificate(cert, flow, n)

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_carrier_accepted(self, form):
        n = BoxSet.of(2, self.FORMS[form])
        assert sf.ExactSemiflow.of(self.RULES, carrier=n).carrier == n

    def test_construct_certifies(self):
        flow = sf.ExactSemiflow.of(self.RULES)
        n = BoxSet.of(2, self.FORMS["disjoint"])
        built = co.construct_index_nbhd(flow, self.S, n)
        assert isinstance(built, co.ConstructedNbhd)
        assert is_index_nbhd_certificate(
            co.is_index_nbhd(flow, built.subset, self.S), flow, built.subset)


class TestForwardInvariance:
    """The exact forward-invariance test against time sampling, on multi-box
    2-D sets."""

    def test_against_sampling(self):
        import random
        rng = random.Random(53)
        flows = [sf.ExactSemiflow.of([sf.AxisRule.floor(1, 0),
                                      sf.AxisRule.floor(2, 0)]),
                 sf.ExactSemiflow.of([sf.AxisRule.ceil(1, 1),
                                      sf.AxisRule.translation(Fraction(1, 2))]),
                 sf.ExactSemiflow.of([sf.AxisRule.identity(),
                                      sf.AxisRule.floor(Fraction(1, 2), -1)])]
        verdicts = set()
        for _ in range(60):
            flow = rng.choice(flows)
            e = BoxSet.of(2, random_box_list(rng, 2, 4)).intersect(flow.carrier)
            if e.is_empty:
                continue
            full = sf._forward_invariant(flow.axes, e)
            verdicts.add(full)
            leaves = any(not sf.time_map(flow, Fraction(k, 8)).image(e).subset_of(e)
                         for k in range(1, 33))
            if leaves:
                assert not full, (flow.axes, e)
            elif not full:
                assert any(
                    not sf.time_map(flow, Fraction(k, 64)).image(e).subset_of(e)
                    for k in range(1, 513)), (flow.axes, e)
        assert verdicts == {True, False}


def _random_interval(rng):
    """An interval with endpoints on the grid k/2, -2 <= k/2 <= 2, or
    infinite, and random flags."""
    grid = [Fraction(k, 2) for k in range(-4, 5)]
    if rng.random() < 0.2:
        return Interval.point(rng.choice(grid))
    lo, hi = sorted(rng.sample(grid, 2))
    lo = "-inf" if rng.random() < 0.15 else lo
    hi = "inf" if rng.random() < 0.15 else hi
    return Interval.make(lo, lo != "-inf" and rng.random() < 0.5,
                         hi, hi != "inf" and rng.random() < 0.5)


ESCAPE_RULES = {
    "translation down": sf.AxisRule.translation(1),
    "translation up": sf.AxisRule.translation(Fraction(-1, 2)),
    "still translation": sf.AxisRule.translation(0),
    "floor": sf.AxisRule.floor(1, 0),
    "slow floor": sf.AxisRule.floor(Fraction(3, 2), -1),
    "ceil": sf.AxisRule.ceil(1, 1),
    "fast ceil": sf.AxisRule.ceil(2, 0),
    "identity": sf.AxisRule.identity(),
}
# every crossing time of two grid points under these speeds is a multiple
# of 1/12 below 9, so the samples, spaced 1/24, hit each endpoint of the
# result exactly and each gap between two endpoints inside
ESCAPE_TAUS = [Fraction(k, 24) for k in range(217)] + [Fraction(25, 2)]


@pytest.mark.parametrize("kind", sorted(ESCAPE_RULES))
def test_axis_escape_tau_matches_the_time_maps(kind):
    """tau is in _axis_escape_tau(rule, g, e) iff the time-tau image of g
    meets e, at every sampled rational tau."""
    rule = ESCAPE_RULES[kind]
    flow = sf.ExactSemiflow.of([rule])
    rng = random.Random(kind)
    checked = 0
    while checked < 16:
        g = isect_iv(_random_interval(rng), rule.natural_range)
        if g is None:
            continue
        e = _random_interval(rng)
        got = sf._axis_escape_tau(rule, g, e)
        target = BoxSet.of(1, [(e,)])
        for tau in ESCAPE_TAUS:
            image = sf.time_map(flow, tau).image(BoxSet.of(1, [(g,)]))
            meets = not image.intersect(target).is_empty
            assert (got is not None and got.contains(tau)) == meets, \
                (g, e, tau, got)
        checked += 1


def _random_box_set(rng, dimension):
    """Up to three boxes with endpoints over denominators 1, 2, 3, 5 and 7;
    one end in eight is infinite."""
    boxes = []
    for _ in range(rng.randint(0, 3)):
        box = []
        for _ in range(dimension):
            a = Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 5, 7)))
            b = a + Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 5, 7)))
            lo = NEG_INF if rng.randint(1, 8) == 1 else Cut.finite(a)
            hi = POS_INF if rng.randint(1, 8) == 1 else Cut.finite(b)
            closed = lo.is_finite and hi.is_finite
            box.append(Interval(lo, hi, closed or (lo.is_finite and a < b),
                                closed))
        boxes.append(tuple(box))
    return BoxSet.of(dimension, boxes)


CANDIDATE_BOUNDS = (Fraction(0), Fraction(-1), Fraction(1, 3), Fraction(7, 2),
                    Fraction(8), Fraction(64))


class TestCandidateTimes:
    """The integer candidate times equal the Fraction loop over all pairs
    of boundary values that they replaced
    (kernel_oracles.oracle_candidate_times)."""

    def test_fixture_flows(self):
        from conley_kernel.documents import parse_document
        root = Path(__file__).resolve().parent.parent / "fixtures"
        for name in ("clamp_flow.json", "corner_flow.json"):
            doc = parse_document(json.loads((root / name).read_text()))
            flow, sets = doc.system, list(doc.sets.values())
            for e, e2 in itertools.product(sets, repeat=2):
                for bound in CANDIDATE_BOUNDS:
                    assert sf._candidate_times(flow, [e, e2], bound) == \
                        oracle_candidate_times(flow, [e, e2], bound)

    def test_random_flows_and_sets(self):
        rng = random.Random(20261019)
        checked = 0
        while checked < 150:
            flow = random_flow(rng)
            if flow is None:
                continue
            checked += 1
            sets = [_random_box_set(rng, flow.dimension) for _ in range(2)]
            for bound in CANDIDATE_BOUNDS:
                got = sf._candidate_times(flow, sets, bound)
                assert got == oracle_candidate_times(flow, sets, bound)
                assert all(type(t) is Fraction for t in got)

    def test_times_are_sorted_fractions_within_the_bound(self):
        flow = sf.ExactSemiflow.of([sf.AxisRule.translation(Fraction(3, 7)),
                                    sf.AxisRule.floor(Fraction(5, 2), -1)])
        e = BoxSet.of(2, [(Interval.closed(Fraction(1, 3), 2),
                           Interval.closed(0, Fraction(9, 4)))])
        got = sf._candidate_times(flow, [e, e], Fraction(64))
        assert got == sorted(set(got)) and got[0] == 0 and got[-1] <= 64
        assert got == oracle_candidate_times(flow, [e, e], Fraction(64))


def _iv(lo, lc, hi, hc):
    return Interval.make(lo, lc, hi, hc)


# floor max(x - 2t, 1) and ceiling min(x + 2t, 1) at t = 1/2, where 2t = 1
FLOOR, CEIL, HALF_T = sf.AxisRule.floor(2, 1), sf.AxisRule.ceil(2, 1), \
    Fraction(1, 2)
AXIS_PREIMAGES = [
    # the clamp inside iv: every x up to hi + 1 (down to lo - 1)
    ("floor-clamp-inside", FLOOR, HALF_T, _iv(0, True, 3, True),
     _iv("-inf", False, 4, True)),
    ("floor-clamp-inside-open", FLOOR, HALF_T, _iv(0, False, 3, False),
     _iv("-inf", False, 4, False)),
    ("floor-clamp-at-closed-lo", FLOOR, HALF_T, _iv(1, True, 3, False),
     _iv("-inf", False, 4, False)),
    ("floor-clamp-at-closed-hi", FLOOR, HALF_T, _iv(-2, True, 1, True),
     _iv("-inf", False, 2, True)),
    ("ceil-clamp-inside", CEIL, HALF_T, _iv(0, True, 3, True),
     _iv(-1, True, "inf", False)),
    ("ceil-clamp-at-closed-hi", CEIL, HALF_T, _iv(-1, False, 1, True),
     _iv(-2, False, "inf", False)),
    # the clamp below iv (floor) or above it (ceiling): the shift
    ("floor-clamp-below", FLOOR, HALF_T, _iv(2, True, 5, False),
     _iv(3, True, 6, False)),
    ("floor-clamp-at-open-lo", FLOOR, HALF_T, _iv(1, False, 3, True),
     _iv(2, False, 4, True)),
    ("ceil-clamp-above", CEIL, HALF_T, _iv(-3, True, 0, True),
     _iv(-4, True, -1, True)),
    ("ceil-clamp-at-open-hi", CEIL, HALF_T, _iv(-2, True, 1, False),
     _iv(-3, True, 0, False)),
    # the clamp on the far side: no value lands in iv
    ("floor-clamp-above", FLOOR, HALF_T, _iv(-3, True, 0, True), None),
    ("floor-clamp-at-open-hi", FLOOR, HALF_T, _iv(-2, True, 1, False), None),
    ("ceil-clamp-below", CEIL, HALF_T, _iv(2, True, 5, False), None),
    ("ceil-clamp-at-open-lo", CEIL, HALF_T, _iv(1, False, 3, True), None),
    # infinite ends stay infinite
    ("floor-line", FLOOR, HALF_T, Interval.line(), Interval.line()),
    ("floor-ray-up", FLOOR, HALF_T, _iv(3, True, "inf", False),
     _iv(4, True, "inf", False)),
    ("floor-ray-down", FLOOR, HALF_T, _iv("-inf", False, 2, False),
     _iv("-inf", False, 3, False)),
    ("floor-ray-down-below", FLOOR, HALF_T, _iv("-inf", False, 0, True), None),
    ("ceil-ray-up", CEIL, HALF_T, _iv(0, False, "inf", False),
     _iv(-1, False, "inf", False)),
    ("ceil-ray-down", CEIL, HALF_T, _iv("-inf", False, 0, True),
     _iv("-inf", False, -1, True)),
    ("floor-point-clamp", FLOOR, HALF_T, Interval.point(1),
     _iv("-inf", False, 2, True)),
    ("ceil-point", CEIL, HALF_T, Interval.point(0), Interval.point(-1)),
    # translation by v*t, either way or not at all
    ("translation", sf.AxisRule.translation(2), HALF_T, _iv(0, True, 1, False),
     _iv(1, True, 2, False)),
    ("translation-negative", sf.AxisRule.translation(-2), HALF_T,
     _iv("-inf", False, 1, True), _iv("-inf", False, 0, True)),
    ("translation-still", sf.AxisRule.translation(0), Fraction(7),
     _iv(0, False, 1, True), _iv(0, False, 1, True)),
    # t = 0 and identity: iv itself, as the time factor is the identity
    ("floor-time-zero", FLOOR, Fraction(0), _iv(-3, True, 0, True),
     _iv(-3, True, 0, True)),
    ("ceil-time-zero", CEIL, Fraction(0), _iv(1, False, 3, True),
     _iv(1, False, 3, True)),
    ("identity", sf.AxisRule.identity(), Fraction(5), _iv(-1, True, 2, False),
     _iv(-1, True, 2, False)),
]


class TestAxisPreimage:
    @pytest.mark.parametrize("rule, t, iv, want",
                             [row[1:] for row in AXIS_PREIMAGES],
                             ids=[row[0] for row in AXIS_PREIMAGES])
    def test_hand_worked(self, rule, t, iv, want):
        got = rule.preimage(iv, t)
        assert got == want
        # x is in the preimage iff its time-t factor value is in iv
        factor = rule.time_factor(t)
        for x in (Fraction(k, 4) for k in range(-32, 33)):
            inside = got is not None and got.contains(x)
            assert inside == iv.contains(factor.eval_point([x])[0]), x

    def test_dimension_mismatch_raises(self):
        corner = sf.ExactSemiflow.of([sf.AxisRule.floor(1, 0),
                                      sf.AxisRule.floor(2, 0)])
        with pytest.raises(ValueError):
            sf.preimage(corner, UNIT, 1)
        with pytest.raises(ValueError):
            sf.preimage(CLAMP, BoxSet.full(2), 1)


_SET_VALUES = [Fraction(k, 2) for k in range(-7, 8)]


@st.composite
def _intervals(draw):
    """Bounded, unbounded, open and point intervals over half-integers."""
    a, b = sorted(draw(st.lists(st.sampled_from(_SET_VALUES), min_size=2,
                                max_size=2)))
    lc, hc = draw(st.booleans()), draw(st.booleans())
    kind = draw(st.sampled_from(["bounded", "point", "up", "down", "line"]))
    if kind == "point" or kind == "bounded" and a == b:
        return Interval.point(a)
    if kind == "up":
        return _iv(a, lc, "inf", False)
    if kind == "down":
        return _iv("-inf", False, b, hc)
    if kind == "line":
        return Interval.line()
    return _iv(a, lc, b, hc)


@st.composite
def _flows_and_sets(draw):
    """A random accepted flow of 1 to 3 axes of every rule kind (zero and
    negative translation speeds included) and a set of 1 to 3 boxes."""
    flow = random_flow(draw(st.randoms(use_true_random=False)))
    assume(flow is not None)
    boxes = draw(st.lists(st.tuples(*[_intervals()] * flow.dimension),
                          min_size=1, max_size=3))
    return flow, BoxSet.of(flow.dimension, boxes)


DIFF_TIMES = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1),
                              Fraction(5, 2), Fraction(7)])


class TestAxisIntervalsAgainstTimeMaps:
    """Preimages and convex swept domains read off the axes equal the ones
    pulled back through the time-t map."""

    @settings(max_examples=200, deadline=None)
    @given(_flows_and_sets(), DIFF_TIMES)
    def test_preimage_is_the_time_map_pull(self, flow_and_set, t):
        flow, a = flow_and_set
        assert sf.preimage(flow, a, t) == sf.time_map(flow, t).preimage(a)

    @settings(max_examples=200, deadline=None)
    @given(_flows_and_sets(), DIFF_TIMES)
    def test_convex_swept_domain_is_the_per_box_formula(self, flow_and_set, t):
        flow, a = flow_and_set
        if flow.dimension == 1:
            e = a.intersect(flow.carrier)
        else:           # one box of A cut to one box of the carrier: a box
            d = flow.dimension
            e = BoxSet.of(d, a.boxes[:1]).intersect(
                BoxSet.of(d, flow.carrier.boxes[:1]))
        assert sf.dom_interval(flow, e, t) == \
            oracle_dom_interval_convex(flow, e, t)


def _count_time_maps(monkeypatch) -> list:
    calls = []
    built = sf.time_map
    monkeypatch.setattr(sf, "time_map",
                        lambda *a: calls.append(a) or built(*a))
    return calls


class TestSearchesBuildNoTimeMap:
    @pytest.mark.parametrize("name", ["clamp_flow.json", "corner_flow.json"])
    def test_find_admissible_and_sim_f(self, name, monkeypatch):
        from conley_kernel.documents import parse_document
        root = Path(__file__).resolve().parent.parent / "fixtures"
        doc = parse_document(json.loads((root / name).read_text()))
        calls = _count_time_maps(monkeypatch)
        sets = list(doc.sets.values())
        found = 0
        for e, e2 in itertools.product(sets, repeat=2):
            found += dyn.find_admissible(doc.system, e, e2).triple is not None
            dyn.sim_f(doc.system, e, e2)
        assert found and calls == []

    def test_dom_interval_on_a_1d_set(self, monkeypatch):
        calls = _count_time_maps(monkeypatch)
        e = BoxSet.from_intervals([Interval.make(0, True, 1, False),
                                   Interval.make(1, False, 2, True)])
        flow = translation_flow()
        assert sf.dom_interval(flow, e, Fraction(1, 4)) == \
            BoxSet.from_intervals([Interval.make(Fraction(1, 4), True, 1, False),
                                   Interval.make(Fraction(5, 4), False, 2, True)])
        assert calls == [] and flow._time_maps == {}
