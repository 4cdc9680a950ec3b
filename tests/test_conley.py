import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from conley_kernel import conley as co
from conley_kernel import dynamics as dyn
from conley_kernel import finite as fin
from conley_kernel import semiflow as sf
from conley_kernel.affine import AffineRule, PiecewiseAffineMap
from conley_kernel.boxes import BoxSet, Interval
from conley_kernel.dynamics import AdmissibleTriple
from conley_kernel.semiflow import Undecided
from conley_kernel.suites import (
    clamp_flow, doubling_map, random_finite_system, random_subset,
    shift2d_map, step_region, translation_flow,
)
from conley_kernel.szymczak import (
    identity_morphism, is_shift_equivalence, sz_equal,
)
from kernel_oracles import is_index_nbhd_certificate


SPACE = fin.FiniteSpace.of(["s", "a"])
ATTRACTOR = fin.FinitePartialMap.of(SPACE, {"s": "s", "a": "s"})
S_FIN = fin.FiniteSubset.of(SPACE, ["s"])
DBL = doubling_map()
S0 = BoxSet.interval(0, True, 0, True)
UNIT = BoxSet.interval(-1, True, 1, True)
OPEN_HALF = BoxSet.interval("-1/2", False, "1/2", False)
OPEN_QUARTER = BoxSet.interval("-1/4", False, "1/4", False)


def fsub(*pts):
    return fin.FiniteSubset.of(SPACE, pts)


class TestIsolating:
    def test_unit_interval_isolates_origin(self):
        cert = co.is_isolating(DBL, UNIT, S0)
        assert isinstance(cert, co.Certificate)
        assert all(c.ok for c in cert.checks)

    def test_disjoint_interval_fails(self):
        res = co.is_isolating(DBL, BoxSet.interval(1, True, 2, True), S0)
        assert isinstance(res, co.Failure)
        assert "neighbourhood" in res.reason

    def test_wrong_invariant_part_fails(self):
        res = co.is_isolating(DBL, UNIT, BoxSet.empty(1))
        assert isinstance(res, co.Failure)
        assert "invariant part" in res.reason

    def test_non_invariant_set_rejected_early(self):
        with pytest.raises(ValueError):
            co.is_isolating(DBL, UNIT,
                            BoxSet.interval("-1/8", True, "1/8", True))

    def test_finite_attractor(self):
        cert = co.is_isolating(ATTRACTOR, fsub("s", "a"), S_FIN)
        assert isinstance(cert, co.Certificate)

    def test_invariance_precondition(self):
        with pytest.raises(ValueError):
            co.is_isolating(ATTRACTOR, fsub("s", "a"), fsub("a"))

    def test_unbounded_not_relatively_compact(self):
        res = co.is_isolating(DBL, BoxSet.interval("-inf", False, "inf", False), S0)
        assert isinstance(res, co.Failure)
        assert "relatively compact" in res.reason


class TestIndexNbhd:
    def test_open_half_certifies(self):
        cert = co.is_index_nbhd(DBL, OPEN_HALF, S0)
        assert is_index_nbhd_certificate(cert, DBL, OPEN_HALF)

    def test_unit_fails_compactifiability(self):
        res = co.is_index_nbhd(DBL, UNIT, S0)
        assert isinstance(res, co.Failure)
        assert "compactifiable" in res.reason

    def test_finite_any_isolating_certifies(self):
        cert = co.is_index_nbhd(ATTRACTOR, fsub("s", "a"), S_FIN)
        assert is_index_nbhd_certificate(cert, ATTRACTOR, fsub("s", "a"))


class TestConstruct:
    def test_doubling_from_unit(self):
        built = co.construct_index_nbhd(DBL, S0, UNIT, bound=8)
        assert isinstance(built, co.ConstructedNbhd)
        assert built.subset == OPEN_HALF
        assert built.triple == AdmissibleTriple(0, 1, 1)
        assert dyn.sim_f(DBL, built.subset, built.compact_seed, bound=8).is_equivalent

    def test_doubling_smaller_seed(self):
        built = co.construct_index_nbhd(
            DBL, S0, BoxSet.interval("-1/4", True, "1/4", True), bound=8)
        assert isinstance(built, co.ConstructedNbhd)
        assert built.subset == BoxSet.interval("-1/8", False, "1/8", False)
        assert built.triple == AdmissibleTriple(0, 1, 1)

    def test_finite_trivial(self):
        built = co.construct_index_nbhd(ATTRACTOR, S_FIN, fsub("s", "a"))
        assert isinstance(built, co.ConstructedNbhd)
        assert is_index_nbhd_certificate(
            co.is_index_nbhd(ATTRACTOR, built.subset, S_FIN), ATTRACTOR,
            built.subset)

    def test_output_always_certifies(self):
        for seed in (UNIT, BoxSet.interval("-1/2", True, "1/2", True)):
            built = co.construct_index_nbhd(DBL, S0, seed, bound=8)
            assert isinstance(built, co.ConstructedNbhd)
            again = co.is_index_nbhd(DBL, built.subset, S0)
            assert is_index_nbhd_certificate(again, DBL, built.subset)


class TestConnectingMorphism:
    def test_identity_class_on_same_set(self):
        m = co.connecting_morphism(ATTRACTOR, fsub("s", "a"), fsub("s", "a"))
        assert sz_equal(m, identity_morphism(m.source))

    def test_finite_collapse_shift(self):
        space = fin.FiniteSpace.of(["1", "2", "3"])
        f = fin.FinitePartialMap.of(space, {"1": "2", "2": "3", "3": "3"})
        e_all = fin.FiniteSubset.of(space, ["1", "2", "3"])
        e3 = fin.FiniteSubset.of(space, ["3"])
        m = co.connecting_morphism(f, e_all, e3)
        assert m.shift == 2
        assert all(m.phi.table[x] == "3" for x in ["1", "2", "3"])

    def test_symbolic_on_interval(self):
        m = co.connecting_morphism(DBL, OPEN_HALF, OPEN_QUARTER, bound=8)
        assert isinstance(m, dyn.CrossMap)
        assert m.shift == m.triple.c

    def test_requires_weak_compactifiability(self):
        got = co.connecting_morphism(DBL, UNIT, OPEN_HALF, bound=4)
        assert isinstance(got, co.Failure)
        assert got.reason == "E is not weakly compactifiable"

    def test_every_finite_connecting_morphism_is_a_shift_equivalence(self):
        """A finite morphism exists iff a triple does, and then maps the
        cycles in E and the basepoint bijectively onto those of E' (the
        proof is in cli.shift_equiv), so shift-equiv never says a finite
        no for a morphism it has built."""
        rng = random.Random(5)
        built = 0
        for _ in range(150):
            f = random_finite_system(rng, 9)
            subsets = [random_subset(rng, f.space) for _ in range(4)]
            for e, e2 in itertools.product(subsets, repeat=2):
                m = co.connecting_morphism(f, e, e2)
                if isinstance(m, co.Failure):
                    assert not dyn.find_admissible(f, e, e2).found
                    continue
                built += 1
                assert is_shift_equivalence(m.phi) is not None, (f, e, e2)
        assert built > 1000


class TestSimpleSystem:
    def test_attractor_two_neighbourhoods(self):
        rep = co.verify_simple_system(ATTRACTOR, S_FIN,
                                      [fsub("s"), fsub("s", "a")])
        assert isinstance(rep, co.ConleyIndexReport)
        assert rep.ok
        assert {n.canonical_invariant for n in rep.neighbourhoods} == {(2, (1, 1))}
        assert all(m.invertible for m in rep.morphisms)

    def test_repeller_two_neighbourhoods(self):
        rep = co.verify_simple_system(DBL, S0, [OPEN_HALF, OPEN_QUARTER], bound=8)
        assert isinstance(rep, co.ConleyIndexReport)
        assert rep.ok
        for m in rep.morphisms:
            assert m.invertible
            assert any("power class" in c.name for c in m.checks)

    def test_singleton_report(self):
        rep = co.verify_simple_system(ATTRACTOR, S_FIN, [fsub("s", "a")])
        assert rep.ok and len(rep.neighbourhoods) == 1


class TestSymbolicInvertibilityChecks:
    """The two invertibility checks of a box-carrier morphism each report
    their own evidence: the composition identity, and the power identity."""

    SUBSETS = [OPEN_HALF, OPEN_QUARTER]

    def _system(self):
        triples = {(i, j): dyn.find_admissible(DBL, self.SUBSETS[i],
                                               self.SUBSETS[j], bound=8).triple
                   for i in range(2) for j in range(2)}
        crosses = {(i, j): dyn.cross_map(DBL, self.SUBSETS[i], self.SUBSETS[j], t)
                   for (i, j), t in triples.items()}
        return crosses, triples

    def _oks(self, crosses, triples):
        invertible, _, checks = co._PartialMapLaws(DBL).invertibility(
            crosses[(0, 1)], crosses[(1, 0)], 0, 1)
        assert [c.name for c in checks] == ["composite is power class",
                                           "composite is identity class"]
        return [c.ok for c in checks], invertible

    def test_both_hold_on_the_repeller(self):
        assert self._oks(*self._system()) == ([True, True], True)

    def test_only_the_composition_identity_fails(self):
        crosses, triples = self._system()
        back = crosses[(1, 0)]
        crosses[(1, 0)] = dataclasses.replace(
            back, realized=back.realized.restrict(S0))
        assert self._oks(crosses, triples) == ([False, True], False)

    def test_only_the_power_identity_fails(self, monkeypatch):
        crosses, triples = self._system()
        monkeypatch.setattr(co, "induced_power",
                            lambda f, e, t: dyn.induced_power(f, e, t + 1))
        assert self._oks(crosses, triples) == ([True, False], False)


class TestFiniteCompactifiabilityDecidedOnce:
    """Every subset of a finite space is compactifiable, so the one-point
    endos are built without deciding it again: weak compactifiability is
    decided once per index neighbourhood and once per connecting-morphism
    operand."""

    @pytest.fixture
    def decided(self, monkeypatch):
        seen = []
        real = dyn.weak_compactifiability_checks

        def counting(f, e):
            seen.append(e)
            return real(f, e)
        monkeypatch.setattr(dyn, "weak_compactifiability_checks", counting)
        return seen

    def test_simple_system(self, decided):
        nbhds = [fsub("s"), fsub("s", "a"), fsub("s", "a")]
        rep = co.verify_simple_system(ATTRACTOR, S_FIN, nbhds)
        assert rep.ok and decided == nbhds

    def test_connecting_morphism(self, decided):
        m = co.connecting_morphism(ATTRACTOR, fsub("s", "a"), fsub("s"))
        assert m.shift == 1 and decided == [fsub("s", "a"), fsub("s")]


class TestFiniteInverseClass:
    def test_inverse_composes_to_identities(self):
        rep = co.verify_simple_system(ATTRACTOR, S_FIN,
                                      [fsub("s"), fsub("s", "a")])
        assert all(m.invertible and m.witness != "None" for m in rep.morphisms)
        # the collapse {s, a} -> {s} is inverted by the inclusion, shift 0
        assert rep.morphisms[1].witness == "[Equiv{s->s}, 0]"


class TestConleyIndex:
    def test_finite_attractor_invariant(self):
        rep = co.conley_index(ATTRACTOR, S_FIN, fsub("s", "a"))
        assert isinstance(rep, co.ConleyIndexReport)
        assert rep.neighbourhoods[0].canonical_invariant == (2, (1, 1))

    def test_repeller_symbolic_object(self):
        rep = co.conley_index(DBL, S0, OPEN_HALF, bound=8)
        assert isinstance(rep, co.ConleyIndexReport)
        assert "f_E" in rep.neighbourhoods[0].object_repr

    def test_empty_set_gives_one_point_endo(self):
        space = fin.FiniteSpace.of(["x"])
        f = fin.FinitePartialMap.of(space, {"x": "x"})
        empty = fin.FiniteSubset.of(space, [])
        rep = co.conley_index(f, empty, empty)
        assert isinstance(rep, co.ConleyIndexReport)
        assert rep.neighbourhoods[0].canonical_invariant == (1, (1,))

    def test_failure_propagates(self):
        res = co.conley_index(DBL, S0, UNIT, bound=4)
        assert isinstance(res, co.Failure)


class TestInvariantsAcrossNeighbourhoods:
    def test_finite_indices_agree(self):
        space = fin.FiniteSpace.of(["a", "b", "c"])
        f = fin.FinitePartialMap.of(space, {"a": "a", "b": "a", "c": "b"})
        s = fin.FiniteSubset.of(space, ["a"])
        nbhds = [fin.FiniteSubset.of(space, ["a"]),
                 fin.FiniteSubset.of(space, ["a", "b"]),
                 fin.FiniteSubset.of(space, ["a", "b", "c"])]
        invs = set()
        for e in nbhds:
            rep = co.conley_index(f, s, e)
            assert isinstance(rep, co.ConleyIndexReport) and rep.ok
            invs.add(rep.neighbourhoods[0].canonical_invariant)
        assert len(invs) == 1


class TestSimpleSystemPowerClass:
    def test_period_three_invariant_set(self):
        # S is the 3-cycle p4 -> p8 -> p5 -> p4; the round-trip shifts are
        # not multiples of 3, so the power class must carry its own shift
        names = [f"p{i}" for i in range(9)]
        space = fin.FiniteSpace.of(names)
        f = fin.FinitePartialMap.of(space, {
            "p0": "p8", "p1": "p5", "p2": "p8", "p3": "p7", "p4": "p8",
            "p5": "p4", "p6": "p0", "p7": "p0", "p8": "p5"})
        s = fin.FiniteSubset.of(space, ["p4", "p5", "p8"])
        nbhds = [fin.FiniteSubset.of(space, ["p4", "p5", "p6", "p8"]),
                 fin.FiniteSubset.of(space, ["p0", "p1", "p4", "p5", "p6", "p8"])]
        rep = co.verify_simple_system(f, s, nbhds)
        assert isinstance(rep, co.ConleyIndexReport)
        assert rep.ok


CLAMP = clamp_flow()
CLAMP_UNIT = BoxSet.interval(0, True, 1, True)
CLAMP_HALF = BoxSet.interval(0, True, "1/2", True)

# (system, S, E, E', seed N for construction, search bound)
ONE_THEORY = {
    "finite attractor": (ATTRACTOR, S_FIN, fsub("s", "a"), fsub("s"),
                         fsub("s", "a"), None),
    "doubling map": (DBL, S0, OPEN_HALF, OPEN_QUARTER, UNIT, 8),
    "clamped semiflow": (CLAMP, S0, CLAMP_UNIT, CLAMP_HALF, CLAMP_UNIT, None),
}


@pytest.mark.parametrize("case", sorted(ONE_THEORY))
def test_one_theory_for_every_carrier(case):
    f, s, e, e2, n, bound = ONE_THEORY[case]
    search = dyn.find_admissible(f, e, e2, bound)
    assert search.found
    cm = dyn.cross_map(f, e, e2, search.triple)
    assert cm.ambient is f
    assert cm.domain.subset_of(e)
    assert is_index_nbhd_certificate(co.is_index_nbhd(f, e, s), f, e)
    built = co.construct_index_nbhd(f, s, n, bound)
    assert isinstance(built, co.ConstructedNbhd)
    assert is_index_nbhd_certificate(co.is_index_nbhd(f, built.subset, s),
                                     f, built.subset)
    rep = co.verify_simple_system(f, s, [e, e2], bound)
    assert isinstance(rep, co.ConleyIndexReport) and rep.ok


RAY = BoxSet.interval(0, True, "inf", False)
LEFT_OPEN = BoxSet.interval(1, False, 2, True)
CORNER = sf.ExactSemiflow.of([sf.AxisRule.floor(1, 0), sf.AxisRule.floor(2, 0)])
PUNCTURED = BoxSet.of(2, [(Interval.closed(0, 2), Interval.closed(0, 2))]) \
    .difference(BoxSet.of(2, [(Interval.point(1), Interval.point(1))]))
CEIL = sf.ExactSemiflow.of([sf.AxisRule.ceil(1, 0)])
REFLECTION = PiecewiseAffineMap.single((AffineRule.of(-1, 0),
                                        AffineRule.of(Fraction(1, 2), 0)))
FLAT = BoxSet.of(2, [(Interval.closed(-1, 1), Interval.closed(0, 1))])

# every place that raises Undecided, as (call, reason, bound): bounded work
# reports the bound it used, structural gaps report none
UNDECIDED_PRODUCERS = {
    "unbounded S under a moving flow": (
        lambda: co.is_isolating(CLAMP, RAY, RAY),
        "invariance of an unbounded set is undecided", None),
    "swept domain": (
        lambda: sf.dom_interval(CORNER, PUNCTURED, 1),
        "swept-domain refinement did not certify", sf.SWEEP_CAP),
    "finite-time properness": (
        lambda: sf.is_finite_time_proper(CLAMP, LEFT_OPEN),
        "finite-time properness undecided for this set", 2),
    "open definedness": (
        lambda: sf.is_openly_defined_cont(CLAMP, LEFT_OPEN),
        "open-definedness undecided for this set", 2),
    "translation axis": (
        lambda: sf.invariant_part_F(translation_flow(), BoxSet.full(1)),
        "translation axis unbounded in E", None),
    "floor axis": (
        lambda: sf.invariant_part_F(CLAMP, RAY),
        "floor axis unbounded above in E", None),
    "ceil axis": (
        lambda: sf.invariant_part_F(CEIL, CEIL.carrier),
        "ceil axis unbounded below in E", None),
    "invariant part cap": (
        lambda: dyn.invariant_part_exact(shift2d_map(), step_region(1, 1), cap=8),
        "invariant part did not stabilize", 8),
    "reflection axis": (
        lambda: dyn.invariant_part_exact(REFLECTION, FLAT, cap=8),
        "reflection axis admits non-fixed invariant sets", 8),
    "compact seed": (
        lambda: co.construct_index_nbhd(
            DBL, S0, BoxSet.interval(-Fraction(1, 2 ** 30), False,
                                     Fraction(1, 2 ** 30), False), 8),
        "no compact box neighbourhood of S inside N found", co.SEED_HALVINGS),
    "construction triple": (
        lambda: co.construct_index_nbhd(DBL, S0, UNIT, 0),
        "admissible-triple search exhausted", 0),
    "connecting morphism": (
        lambda: co.connecting_morphism(DBL, S0, OPEN_HALF, bound=4),
        "admissible-triple search exhausted", 4),
    "simple system": (
        lambda: co.verify_simple_system(DBL, S0, [OPEN_HALF, OPEN_QUARTER],
                                        bound=0),
        "connecting-triple search exhausted", 0),
}


@pytest.mark.parametrize("case", sorted(UNDECIDED_PRODUCERS))
def test_undecided_carries_reason_and_bound(case):
    call, reason, bound = UNDECIDED_PRODUCERS[case]
    with pytest.raises(Undecided) as info:
        call()
    assert (info.value.reason, info.value.bound) == (reason, bound)
    assert str(info.value) == reason
