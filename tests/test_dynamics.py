import json
import math
import random
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from conley_kernel import affine as af
from conley_kernel import dynamics as dyn
from conley_kernel import finite as fin
from conley_kernel import semiflow as sf
from conley_kernel.boxes import BoxSet, Interval
from conley_kernel.carriers import DiscreteTime
from conley_kernel.documents import parse_document
from conley_kernel.dynamics import AdmissibleTriple
from conley_kernel.semiflow import Undecided
from conley_kernel.suites import (
    brute_invariant_part, clamp_flow, clamp_map, doubling_map,
    random_finite_system, random_subset, shift2d_map, step_region,
)
from conley_kernel.szymczak import BasedEndo
from kernel_oracles import (
    contraction_map, fixed_cap_invariant_part, oracle_dom,
    oracle_find_admissible, oracle_power, oracle_preimage, oracle_sim_f,
    prime_cycle_document, random_box_list, random_core_set, random_flow,
    random_interval_set, random_product_map,
)


SPACE = fin.FiniteSpace.of(["1", "2", "3"])
CHAIN = fin.FinitePartialMap.of(SPACE, {"1": "2", "2": "3", "3": "3"})
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def subset(*pts):
    return fin.FiniteSubset.of(SPACE, pts)


def box1(lo, lc, hi, hc):
    return BoxSet.interval(lo, lc, hi, hc)


UNIT = box1(-1, True, 1, True)
ORIGIN = box1(0, True, 0, True)


class TestInduced:
    def test_finite_table_filter(self):
        f = fin.FinitePartialMap.of(SPACE, {"1": "2", "2": "2", "3": "1"})
        ind = dyn.induced(f, subset("1", "2"))
        assert ind.realized == fin.FinitePartialMap.of(SPACE, {"1": "2", "2": "2"})
        assert ind.domain == subset("1", "2")

    def test_doubling_on_unit(self):
        ind = dyn.induced(doubling_map(), UNIT)
        assert ind.domain == box1("-1/2", True, "1/2", True)

    def test_doubling_on_origin(self):
        ind = dyn.induced(doubling_map(), ORIGIN)
        assert ind.domain == ORIGIN

    def test_clamp_flow_time_one_map(self):
        # x -> max(x - 1, 0): every orbit from [0, 2] stays in [0, 2]
        ind = dyn.induced(clamp_flow(), box1(0, True, 2, True))
        assert ind.domain == box1(0, True, 2, True)
        assert ind.realized.eval_point(["3/2"]) == (Fraction(1, 2),)
        assert ind.realized.eval_point(["1/2"]) == (Fraction(0),)

    def test_clamp_flow_swept_domain(self):
        # from [1, 2] the orbit leaves the set unless x - 1 >= 1
        ind = dyn.induced(clamp_flow(), box1(1, True, 2, True))
        assert ind.domain == box1(2, True, 2, True)


class TestDomPower:
    def test_halving(self):
        assert doubling_map().dom(UNIT, 3) == (
            box1("-1/8", True, "1/8", True))

    def test_zero(self):
        assert CHAIN.dom(subset("2"), 0) == subset("2")

    def test_forward_invariant(self):
        assert CHAIN.dom(subset("2", "3"), 5) == subset("2", "3")


class TestAdmissibility:
    def test_diagonal_always(self):
        for t in (AdmissibleTriple(0, 0, 0), AdmissibleTriple(1, 2, 5)):
            assert dyn.is_admissible(CHAIN, subset("1"), subset("1"), t)

    def test_doubling_example(self):
        assert dyn.is_admissible(doubling_map(), UNIT,
                                 box1(-1, False, 1, False),
                                 AdmissibleTriple(0, 1, 1))

    def test_finite_example(self):
        assert dyn.is_admissible(CHAIN, subset("2", "3"), subset("3"),
                                 AdmissibleTriple(1, 1, 1))

    def test_triple_validation(self):
        with pytest.raises(ValueError):
            AdmissibleTriple(2, 1, 3)

    def test_sum_law_random(self):
        rng = random.Random(17)
        hits = 0
        while hits < 40:
            f = random_finite_system(rng, 5)
            e = random_subset(rng, f.space)
            e2 = random_subset(rng, f.space)
            e3 = random_subset(rng, f.space)
            s1 = dyn.find_admissible(f, e, e2)
            s2 = dyn.find_admissible(f, e2, e3)
            if s1.found and s2.found:
                assert dyn.triple_sum_law_check(f, e, e2, e3,
                                                s1.triple, s2.triple)
                hits += 1

    def test_sum_law_identity_legs(self):
        assert dyn.triple_sum_law_check(
            CHAIN, subset("1"), subset("1"), subset("1"),
            AdmissibleTriple(0, 0, 0), AdmissibleTriple(0, 0, 0))

    def test_sum_law_doubling_chain(self):
        open_unit = box1(-1, False, 1, False)
        assert dyn.triple_sum_law_check(
            doubling_map(), UNIT, open_unit, open_unit,
            AdmissibleTriple(0, 1, 1), AdmissibleTriple(0, 0, 0))


class TestFindAdmissible:
    def test_chain_lex_least(self):
        res = dyn.find_admissible(CHAIN, subset("1", "2", "3"), subset("3"))
        assert res.found and res.complete
        assert res.triple == AdmissibleTriple(2, 2, 2)

    def test_equal_sets_give_zero(self):
        res = dyn.find_admissible(CHAIN, subset("1", "3"), subset("1", "3"))
        assert res.triple == AdmissibleTriple(0, 0, 0)

    def test_point_versus_unit_undecided(self):
        res = dyn.find_admissible(doubling_map(), ORIGIN, UNIT, bound=12)
        assert not res.found and not res.complete

    def test_complete_negative_on_finite(self):
        # nothing flows back into an unreachable point
        f = fin.FinitePartialMap.of(SPACE, {"1": "1", "2": "2", "3": "3"})
        res = dyn.find_admissible(f, subset("1"), subset("2"))
        assert not res.found and res.complete


class TestSearchCompleteness:
    """The finite-carrier bounds make negative answers theorems; cross-check
    them against plain big-bound brute force."""

    def test_find_admissible_agrees_with_brute_force(self):
        rng = random.Random(43)
        for _ in range(120):
            f = random_finite_system(rng, 4)
            e = random_subset(rng, f.space)
            e2 = random_subset(rng, f.space)
            complete = dyn.find_admissible(f, e, e2)
            brute = None
            for a in range(10):
                for b in range(a, 10):
                    for c in range(b, 10):
                        t = AdmissibleTriple(a, b, c)
                        if dyn.is_admissible(f, e, e2, t):
                            brute = t
                            break
                    if brute:
                        break
                if brute:
                    break
            assert complete.found == (brute is not None)
            if brute is not None:
                assert complete.triple == brute  # lexicographically least

    def test_interval_lex_minimality(self):
        # the staged search must return the same triple as a plain lex scan
        from conley_kernel.suites import interval_law_instances
        for f, subsets in interval_law_instances():
            for e in subsets:
                for e2 in subsets:
                    staged = dyn.find_admissible(f, e, e2, bound=5)
                    brute = None
                    for a in range(6):
                        for b in range(a, 6):
                            for c in range(b, 6):
                                t = AdmissibleTriple(a, b, c)
                                if dyn.is_admissible(f, e, e2, t):
                                    brute = t
                                    break
                            if brute:
                                break
                        if brute:
                            break
                    assert staged.found == (brute is not None)
                    if brute is not None:
                        assert staged.triple == brute

    def test_sim_agrees_with_brute_force(self):
        rng = random.Random(53)
        for _ in range(120):
            f = random_finite_system(rng, 4)
            e = random_subset(rng, f.space)
            e2 = random_subset(rng, f.space)
            res = dyn.sim_f(f, e, e2)
            brute = any(
                f.dom(e, b).subset_of(f.preimage_n(e2, a))
                for a in range(10) for b in range(a, 10)) and any(
                f.dom(e2, b).subset_of(f.preimage_n(e, a))
                for a in range(10) for b in range(a, 10))
            assert res.is_equivalent == brute


def _outcome(search, *args, **kwargs):
    """A search result, or what its Undecided says."""
    try:
        return search(*args, **kwargs)
    except Undecided as exc:
        return ("undecided", exc.reason, exc.bound)


def _assert_same_searches(f, e, e2, bound=None):
    """Both searches agree with their oracles; the oracle's sim outcome."""
    assert _outcome(dyn.find_admissible, f, e, e2, bound) == \
        _outcome(oracle_find_admissible, f, e, e2, bound)
    want = _outcome(oracle_sim_f, f, e, e2, bound)
    assert _outcome(dyn.sim_f, f, e, e2, bound) == want
    return want


def _flow_box(rng, flow):
    """A random box, mostly two, cut to the flow's carrier."""
    values = [Fraction(k, 2) for k in range(-6, 7)]
    boxes = []
    for _ in range(rng.choice((1, 1, 2))):
        box = []
        for _ in range(flow.dimension):
            lo, hi = sorted(rng.sample(values, 2))
            box.append(Interval.make(lo, rng.random() < 0.7,
                                     hi, rng.random() < 0.7))
        boxes.append(tuple(box))
    return BoxSet.of(flow.dimension, boxes).intersect(flow.carrier)


class TestDomSequence:
    def test_stable_sequence_is_not_extended(self):
        # D_1 = D_0 when E is forward invariant: [-1, 1] under x -> x/2,
        # and {2, 3} under the chain 1 -> 2 -> 3 -> 3
        half = BoxSet.interval(-1, True, 1, True)
        chain = fin.FinitePartialMap.of(SPACE, CHAIN.table)
        for f, e in ((contraction_map(), half), (chain, subset("2", "3"))):
            assert f.dom(e, 64) == e and f.dom(e, 1) == e
            assert len(f._iterates[e, "dom"]) <= 2
            assert f.stab(e, 64) == 0

    def test_stable_preimages_are_not_extended(self):
        # f^-1(A) = A, so f^-n(A) = A for every n: {1, 2} under the swap
        # 1 <-> 2, 3 -> 3, and {0} under x -> x/2
        swap = fin.FinitePartialMap.of(SPACE, {"1": "2", "2": "1", "3": "3"})
        for f, a in ((swap, subset("1", "2")), (contraction_map(), ORIGIN)):
            fresh = replace(f)
            assert f.preimage_n(a, 64) == a
            seq = f._iterates[a, "preimage"]
            assert isinstance(seq, tuple) and len(seq) <= 2
            for t in (0, 1, 2, 65, 64):
                assert f.preimage_n(a, t) == oracle_preimage(fresh, a, t)

    def test_unstable_sequence_is_exact(self):
        # under doubling D_n([-1, 1]) = [-2^-n, 2^-n] never repeats
        f = doubling_map()
        assert f.dom(UNIT, 5) == box1(Fraction(-1, 32), True, Fraction(1, 32), True)
        assert f.dom(UNIT, 2) == box1(Fraction(-1, 4), True, Fraction(1, 4), True)
        assert len(f._iterates[UNIT, "dom"]) == 6


def _shuffled_times(rng, times):
    """Every time twice, in random order."""
    times = list(times) * 2
    rng.shuffle(times)
    return times


class TestCarrierMemo:
    """f^t, D_t(E) and f^-t(A) from the system, which memoizes them,
    against the from-scratch loops (power,
    kernel_oracles.oracle_dom, kernel_oracles.oracle_preimage) on a copy of
    the system with empty memos, with times asked out of order and past
    stabilization."""

    def test_finite_maps(self):
        rng = random.Random(83)
        for _ in range(60):
            f = random_finite_system(rng, 7)
            fresh = replace(f)
            sets = [random_subset(rng, f.space) for _ in range(2)]
            # D_t stabilizes by t = |X| <= 7
            for t in _shuffled_times(rng, range(13)):
                e = rng.choice(sets)
                assert f.dom(e, t) == oracle_dom(fresh, e, t)
                assert f.preimage_n(e, t) == oracle_preimage(fresh, e, t)
            for e in sets:
                assert f.stab(e, 12) == next(
                    (n for n in range(12)
                     if oracle_dom(fresh, e, n + 1) == oracle_dom(fresh, e, n)), 12)

    def test_interval_maps(self):
        rng = random.Random(89)
        for _ in range(30):
            f = random_product_map(rng, 1)
            fresh = replace(f)
            sets = [random_interval_set(rng, 3) for _ in range(2)]
            for t in _shuffled_times(rng, range(9)):
                e = rng.choice(sets)
                assert f.dom(e, t) == oracle_dom(fresh, e, t)
                assert f.preimage_n(e, t) == oracle_preimage(fresh, e, t)

    def test_affine_steps_restrict_once_per_set(self, monkeypatch):
        """An affine D_{n+1}(E) pulls D_n(E) back through f restricted to
        E, built once per E and kept in f's memo; the sets are those of
        E n f^-1(D_n) (kernel_oracles.oracle_dom), here in two dimensions."""
        restricted = []
        restrict = af.PiecewiseAffineMap.restrict

        def counted(f, s):
            restricted.append(s)
            return restrict(f, s)

        monkeypatch.setattr(af.PiecewiseAffineMap, "restrict", counted)
        rng = random.Random(107)
        for _ in range(20):
            f = random_product_map(rng, 2)
            fresh = replace(f)
            sets = [BoxSet.of(2, [tuple(
                Interval.closed(lo, lo + rng.randint(1, 6))
                for lo in (rng.randint(-6, 2), rng.randint(-6, 2)))
                for _ in range(rng.randint(1, 3))]) for _ in range(2)]
            restricted.clear()
            for t in _shuffled_times(rng, range(7)):
                e = rng.choice(sets)
                assert f.dom(e, t) == oracle_dom(fresh, e, t)
            assert len(restricted) == len(set(restricted)) <= 2
            for e in restricted:
                assert f._iterates[e, "restrict"] == restrict(f, e)

    def test_semiflows(self):
        rng = random.Random(97)
        tried = 0
        while tried < 30:
            flow = random_flow(rng, max_dimension=2)
            if flow is None:
                continue
            sets = [_flow_box(rng, flow) for _ in range(2)]
            tried += 1
            for t in _shuffled_times(rng, (Fraction(k, 2) for k in range(9))):
                e, fresh = rng.choice(sets), replace(flow)
                assert _outcome(flow.dom, e, t) == \
                    _outcome(sf.dom_interval, fresh, e, t)
                assert flow.preimage_n(e, t) == \
                    sf.time_map(fresh, t).preimage(e)

    def test_threads_append_each_step_once(self):
        """Eight threads that ask a fresh map for the same times together:
        two that both read a sequence of length k used to append step k
        twice, so that dom(f, E, k + 1) returned the larger D_k.  On a
        finite chain, and on x -> max(x - 1, 0), whose powers stay small
        and are a memo keyed by k (affine.power)."""
        n = 120
        space = fin.FiniteSpace.of(str(i) for i in range(n))
        table = {str(i): str(i + 1) for i in range(n - 1)}
        self._ask_together(
            lambda: fin.FinitePartialMap.of(space, table), n, 40,
            fin.FiniteSubset.of(space, space.points),
            fin.FiniteSubset.of(space, [str(n - 1)]))
        self._ask_together(clamp_map, 40, 20, box1(1, True, 40, True), ORIGIN)

    @staticmethod
    def _ask_together(new_map, n, trials, e, last, threads=8):
        serial = new_map()
        want = [(serial.dom(e, t), serial.preimage_n(last, t),
                 serial.time_map(t)) for t in range(n)]
        wrong = []              # per finished thread, the times it got wrong

        def ask(f, start):
            start.wait(timeout=60)
            got = [(f.dom(e, t), f.preimage_n(last, t), f.time_map(t))
                   for t in range(n)]
            wrong.append([t for t in range(n) if got[t] != want[t]])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(trials):
                f = new_map()
                start = threading.Barrier(threads)
                workers = [threading.Thread(target=ask, args=(f, start))
                           for _ in range(threads)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=60)
                assert not any(w.is_alive() for w in workers)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == [[]] * (threads * trials)

    def test_negative_times_raise(self):
        # f.preimage_n({3}, -2) used to return {3} unchanged
        chain = fin.FinitePartialMap.of(SPACE, CHAIN.table)
        for f, e in ((chain, subset("3")), (doubling_map(), UNIT)):
            for ask in (f.dom, f.preimage_n, lambda e, t: f.time_map(t)):
                with pytest.raises(ValueError, match="negative power"):
                    ask(e, -2)
            assert not f._iterates
            f.time_map(2)       # and once f^2 has been asked
            with pytest.raises(ValueError, match="negative power"):
                f.time_map(-1)
            # a finite map keeps no power memo, an affine one f^0..f^2
            if f is chain:
                assert not f._iterates
            else:
                assert sorted(f._iterates["power"]) == [0, 1, 2]

    def test_powers(self):
        """f^t from the system, asked in random order and twice each,
        against kernel_oracles.oracle_power (composes from the identity)
        on a copy with empty memos.  Affine maps compare by their canonical
        nodes, so == is map equality and fixes every derived piece."""
        rng = random.Random(101)
        systems = [(random_finite_system(rng, 7), 9) for _ in range(30)]
        systems += [(random_product_map(rng, 1), 7) for _ in range(15)]
        systems += [(random_product_map(rng, 2), 5) for _ in range(10)]
        systems += [(doubling_map(), 7), (clamp_map(), 7)]
        for f, top in systems:
            fresh = replace(f)
            for t in _shuffled_times(rng, range(top)):
                got, want = f.time_map(t), oracle_power(fresh, t)
                assert got == want, (f, t)

    @pytest.mark.parametrize("module", [af, fin], ids=["affine", "finite"])
    def test_powers_cost_one_compose_per_missing_step(self, module, monkeypatch):
        """An affine f^t costs one compose per step not yet memoized; a
        finite one is read off the orbit walk and composes nothing."""
        calls = []
        compose = module.compose

        def counted(g, f):
            calls.append(1)
            return compose(g, f)

        monkeypatch.setattr(module, "compose", counted)
        f = clamp_map() if module is af else \
            fin.FinitePartialMap.of(SPACE, CHAIN.table)
        f.time_map(5)
        if module is fin:
            assert not calls
        calls.clear()
        for k in (5, 0, 3, 1, 4, 2, 5):
            f.time_map(k)
        assert not calls
        f.time_map(6)
        if module is fin:
            f.time_map(10 ** 6)
            assert not calls and not f._iterates
        else:
            assert len(calls) == 1
            # f^1 is a map equal to f, which f's own memo does not hold
            assert all(p is not f for p in f._iterates["power"].values())

    def test_finite_time_maps_keep_no_map(self):
        """f^t of a finite map is f^p turned along the cycles: on one
        200-point cycle, f^20000 is the rotation by 20000 mod 200 and no
        f^0..f^20000 are kept."""
        n, t = 200, 20000
        space = fin.FiniteSpace.of(str(i) for i in range(n))
        f = fin.FinitePartialMap.of(
            space, {str(i): str((i + 1) % n) for i in range(n)})
        rotated = fin.FinitePartialMap.of(
            space, {str(i): str((i + t) % n) for i in range(n)})
        assert f.time_map(t) == rotated
        assert not f._iterates

    def test_two_parses_of_one_document_share_no_memo(self):
        for name, label in (("attractor.json", "all"), ("doubling.json", "unit"),
                            ("clamp_flow.json", "unit")):
            data = json.loads((FIXTURES / name).read_text())
            one, two = parse_document(data), parse_document(data)
            assert one.system == two.system
            f, e = one.system, one.sets[label]
            assert f.dom(e, 3) == two.system.dom(two.sets[label], 3)
            assert f.preimage_n(e, 2) == \
                two.system.preimage_n(two.sets[label], 2)
            assert f.time_map(2) == two.system.time_map(2)
            assert f.time_map(2) is not two.system.time_map(2)
            memos = [m for m in ("_iterates", "_swept", "_time_maps")
                     if hasattr(f, m)]
            for m in memos:
                assert getattr(f, m) is not getattr(two.system, m)

            def snapshot():     # copies the memoized sequences, too
                return {m: {k: v.copy() if isinstance(v, (list, dict)) else v
                            for k, v in getattr(two.system, m).items()}
                        for m in memos}

            before = snapshot()
            f.dom(e, 5)
            f.preimage_n(e, 4)
            f.time_map(4)
            assert snapshot() == before


class TestSecondTriple:
    """szymczak-equal compares the classes of (a, b, c) and (a, b, c + 1)
    without testing the second triple, which is admissible whenever the
    first is: the first condition does not involve c, and
    D_{c+1-a}(E') <= D_{c-a}(E') <= f^-(b-a)(E)."""

    @staticmethod
    def _c_plus_one_admissible(f, e, e2, bound=None) -> bool:
        """Whether a triple was found; asserts its successor in c."""
        t = dyn.find_admissible(f, e, e2, bound).triple
        if t is not None:
            assert dyn.is_admissible(f, e, e2, AdmissibleTriple(t.a, t.b, t.c + 1)), \
                (f, e, e2, t)
        return t is not None

    def test_finite_maps(self):
        rng = random.Random(71)
        found = 0
        for _ in range(200):
            f = random_finite_system(rng, 6)
            found += self._c_plus_one_admissible(
                f, random_subset(rng, f.space), random_subset(rng, f.space))
        assert found >= 50

    def test_interval_maps(self):
        rng = random.Random(73)
        found = 0
        for _ in range(60):
            f = random_product_map(rng, 1)
            sets = [random_interval_set(rng, 3) for _ in range(2)]
            found += self._c_plus_one_admissible(f, *sets, bound=8)
        assert found >= 15

    def test_semiflows(self):
        rng = random.Random(79)
        found = tried = 0
        while tried < 40:
            flow = random_flow(rng, max_dimension=2)
            if flow is None:
                continue
            e, e2 = _flow_box(rng, flow), _flow_box(rng, flow)
            if e.is_empty or e2.is_empty:
                continue
            tried += 1
            try:
                found += self._c_plus_one_admissible(flow, e, e2, bound=3)
            except Undecided:
                continue
        assert found >= 10


class TestGallopingSearch:
    """find_admissible and sim_f gallop over the monotone tests; the
    lexicographic scans they replaced
    (kernel_oracles.oracle_find_admissible, kernel_oracles.oracle_sim_f)
    must give the same triple, pairs, completeness and bound."""

    def test_finite_maps_agree_with_the_linear_scan(self):
        rng = random.Random(43)
        for k in range(200):
            f = random_finite_system(rng, 4 if k < 120 else 9)
            e = random_subset(rng, f.space)
            e2 = random_subset(rng, f.space)
            _assert_same_searches(f, e, e2)
            _assert_same_searches(f, e, e2, bound=k % 7)

    def test_product_maps_agree_with_the_linear_scan(self):
        # maps shaped like the benchmark's box slots, related on single
        # boxes around and beside their fixed point
        rng = random.Random(61)
        for k in range(40):
            dimension = 1 + k % 2
            f = random_product_map(rng, dimension)
            boxes = []
            for _ in range(2):
                box = []
                for _ in range(dimension):
                    lo = Fraction(rng.randint(-6, 2), 2)
                    box.append(Interval.make(lo, rng.random() < 0.7,
                                             lo + Fraction(rng.randint(1, 5), 2),
                                             rng.random() < 0.7))
                boxes.append(BoxSet.of(dimension, [tuple(box)]))
            _assert_same_searches(f, boxes[0], boxes[1], bound=8)

    def test_semiflows_agree_with_the_linear_scan(self):
        rng = random.Random(20261018)
        tried = 0
        while tried < 40:
            flow = random_flow(rng, max_dimension=2)
            if flow is None:
                continue
            e, e2 = _flow_box(rng, flow), _flow_box(rng, flow)
            if e.is_empty or e2.is_empty:
                continue
            tried += 1
            _assert_same_searches(flow, e, e2, bound=3)

    def test_undecided_falls_back_to_the_linear_scan(self, monkeypatch):
        # under x -> x + 1, D_b([0, 3]) = [0, 3 - b]: the least b for a = 0
        # is 2, and the gallop tests b = 3, which now raises
        from conley_kernel.affine import PiecewiseAffineMap
        f = PiecewiseAffineMap.affine_1d(1, 1)
        e, e2 = box1(0, True, 3, True), box1(0, True, 1, True)
        dom = DiscreteTime.dom

        def undecided_past_two(f, e, n):
            if n > 2:
                raise Undecided("no swept domain past time 2", bound=n)
            return dom(f, e, n)

        monkeypatch.setattr(DiscreteTime, "dom", undecided_past_two)
        want = oracle_find_admissible(f, e, e2, bound=8)
        assert want.triple == AdmissibleTriple(0, 2, 2)
        assert dyn.find_admissible(f, e, e2, bound=8) == want
        sim = oracle_sim_f(f, e, e2, bound=8)
        assert (sim.forward, sim.backward) == ((0, 2), (0, 0))
        assert dyn.sim_f(f, e, e2, bound=8) == sim

    def test_tests_grow_with_the_log_of_the_candidate_count(self, monkeypatch):
        # x -> x + t keeps E = [0, inf) whole, and E <= F^-a(E') needs
        # a >= 48, so the least triple is (48, 48, 48); the points of E'
        # make about a hundred candidate times
        flow = sf.ExactSemiflow.of([sf.AxisRule.translation(-1)])
        e = BoxSet.interval(0, True, "inf", False)
        e2 = BoxSet.from_intervals(
            [Interval.make(48, True, "inf", False)] +
            [Interval.point(Fraction(k, 2)) for k in range(1, 25)])
        made = []
        init = sf._ContContext.__init__

        def kept(ctx, *args):
            init(ctx, *args)
            made.append(ctx)

        monkeypatch.setattr(sf._ContContext, "__init__", kept)
        got = dyn.find_admissible(flow, e, e2, bound=64)
        swept = len(flow._swept)     # the oracle's scan shares the flow's memo
        assert got.triple == AdmissibleTriple(48, 48, 48)
        assert got == oracle_find_admissible(flow, e, e2, bound=64)
        ctx, scan = made
        n = len(ctx.times)
        depth = ctx.times.index(got.triple.a)
        assert n >= 100 and depth >= 90
        log_n = math.ceil(math.log2(n))
        assert swept <= 2 * log_n + 2
        assert len(ctx._c1) <= 3 * (depth + 1) + log_n
        # the scan tested every pair (a, b) with a below the least a
        assert len(scan._c1) == sum(n - i for i in range(depth)) + 1


def _indices(f, e, e2):
    """p, q of f and the stabilization indices s1, s2 of D(E) and D(E')."""
    n = len(f.space.points)
    return (*f.power_bounds, f.stab(e, n + 1), f.stab(e2, n + 1))


def _searched_context(monkeypatch, f, e, e2, search=dyn.find_admissible):
    """The result of the complete search and its search context."""
    made = []
    init = dyn._SearchContext.__init__

    def kept(ctx, *args):
        init(ctx, *args)
        made.append(ctx)

    with monkeypatch.context() as patch:
        patch.setattr(dyn._SearchContext, "__init__", kept)
        got = search(f, e, e2)
    (ctx,) = made
    return got, ctx


def _times(tests):
    return [t for key in tests for t in key]


class TestCompleteFiniteSearch:
    """A triple exists iff Inv(E) <= E' and Inv(E') <= E, a forward
    (backward) pair iff the first (second) holds, and the complete context
    reads both off the cycles of f as ``possible``.  The searches then try
    a <= max(p, s1) only, each gallop ends where its domain sets stabilize,
    and the triple search tries delta in [delta0, max(delta0, p, s2)]
    (the dynamics module docstring); kernel_oracles.oracle_find_admissible
    and oracle_sim_f scan every time up to the derived bound 2(p + q) + s1
    + s2 + 2.

    The cut is one step past max(p, s1), not one period: no system has its
    least a in (max(p, s1), max(p, s1) + q), nor its least delta a period
    past max(p, s2), as both tests read invariant parts there."""

    @pytest.mark.parametrize("seed", [71, 73])
    def test_random_systems_agree_with_the_scan(self, seed):
        # random_finite_system leaves about a fifth of the points undefined
        # and makes tails into its cycles
        rng = random.Random(seed)
        for _ in range(2000):
            f = random_finite_system(rng, 12)
            e, e2 = random_subset(rng, f.space), random_subset(rng, f.space)
            want = _assert_same_searches(f, e, e2)
            ctx = f.search_context(e, e2, None)
            assert ctx.possible == {1: want.forward is not None,
                                    2: want.backward is not None}

    def test_no_time_past_the_preperiod_and_stabilization(self, monkeypatch):
        rng = random.Random(79)
        for _ in range(300):
            f = random_finite_system(rng, 12)
            e, e2 = random_subset(rng, f.space), random_subset(rng, f.space)
            p, _, s1, s2 = _indices(f, e, e2)
            got, ctx = _searched_context(monkeypatch, f, e, e2)
            assert all(t <= max(p, s1) for t in _times(ctx._cond1))
            # delta0 <= s1, as D_b(E) is stable from s1 on; past max(p, s2)
            # only delta0 itself is tested, and its first gamma passes
            assert all(t <= max(p, s1, s2) for t in _times(ctx._cond2))
            assert all(t <= max(p, s2) for t in _times(ctx._cond2)) or \
                list(ctx._cond2) == [(got.triple.b - got.triple.a,) * 2]
            _, ctx = _searched_context(monkeypatch, f, e, e2, dyn.sim_f)
            assert all(t <= max(p, s1) for t in _times(ctx._cond1))
            assert all(t <= max(p, s2) for t in _times(ctx._cond2))

    def test_tests_past_the_cut_read_invariant_parts(self):
        # the fact of the dynamics module docstring that the cut rests on:
        # for a >= max(p, s1) and b >= a, D_b(E) <= f^-a(E') iff Inv(E) <= E'
        rng = random.Random(83)
        for _ in range(300):
            f = random_finite_system(rng, 8)
            e, e2 = random_subset(rng, f.space), random_subset(rng, f.space)
            p, q, s1, _ = _indices(f, e, e2)
            ctx = f.search_context(e, e2, None)
            holds = dyn.invariant_part_exact(f, e).subset_of(e2)
            start = max(p, s1)
            assert all(ctx.cond1(a, b) == holds
                       for a in range(start, start + q + 2)
                       for b in range(a, a + 3))

    @pytest.mark.parametrize("table, e, e2, triple, edge", [
        # 4 -> 1 -> 2 <-> 3, p = q = 2: X lies in f^-a(E') only once every
        # orbit is on the cycle, so the least a is max(p, s1) = 2
        ({"1": "2", "2": "3", "3": "2", "4": "1"}, "1234", "234", (2, 2, 2),
         "a"),
        # 1 -> 3 -> 2 <-> 4: delta0 = 0, and X <= f^-delta(E) first at
        # delta = max(p, s2) = 2, the end of the delta scan
        ({"1": "3", "2": "4", "3": "2", "4": "2"}, "124", "1234", (0, 2, 2),
         "delta"),
        # 3 -> 2 <-> 1: D_b({2, 3}) <= {2} first at b = 2, so the delta
        # scan starts at delta0 = 2, past max(p, s2) = 1
        ({"1": "2", "2": "1", "3": "2"}, "23", "2", (0, 2, 2), "delta0"),
    ], ids=["a", "delta", "delta0"])
    def test_pinned_systems_at_the_edges_of_the_cut(self, table, e, e2,
                                                    triple, edge):
        space = fin.FiniteSpace.of(sorted(table))
        f = fin.FinitePartialMap.of(space, table)
        e, e2 = fin.FiniteSubset.of(space, e), fin.FiniteSubset.of(space, e2)
        p, q, s1, s2 = _indices(f, e, e2)
        got = dyn.find_admissible(f, e, e2)
        assert got == oracle_find_admissible(f, e, e2)
        a, b, _ = got.triple.as_tuple()
        assert got.triple.as_tuple() == triple and q == 2
        ctx = f.search_context(e, e2, None)
        delta0 = next(t for t in range(a, got.bound + 1) if ctx.cond1(a, t)) - a
        assert {"a": a == max(p, s1) > 0,
                "delta": b - a == max(p, s2) > delta0,
                "delta0": b - a == delta0 > max(p, s2)}[edge]

    @pytest.mark.parametrize("primes, bound", [
        ((2, 3, 5, 7), 423), ((2, 3, 5, 7, 11), 4623)], ids=["2..7", "2..11"])
    def test_prime_cycles_take_a_few_tests(self, monkeypatch, primes, bound):
        # the scan to the bound made 92,525 tests on 2..7; Inv(Z) = Z is
        # not in W, so no triple and no backward pair is looked for
        doc = parse_document(prime_cycle_document(primes))
        f, w, z = doc.system, doc.sets["W"], doc.sets["Z"]
        got, ctx = _searched_context(monkeypatch, f, w, z)
        assert not got.found and got.complete and got.bound == bound
        assert ctx.possible == {1: True, 2: False}
        assert len(ctx._cond1) + len(ctx._cond2) == 0
        p, _, s1, s2 = _indices(f, w, z)
        assert (p, s1, s2) == (0, 1, 0)
        sim, ctx = _searched_context(monkeypatch, f, w, z, dyn.sim_f)
        assert sim == dyn.SimResult("not_equivalent", (0, 1), None, bound)
        assert len(ctx._cond2) == 0
        assert len(ctx._cond1) <= 3 * (max(p, s1) + 1)
        assert all(t <= 1 for t in _times(ctx._cond1))


class TestCrossMap:
    def test_diagonal_power(self):
        e = subset("2", "3")
        cm = dyn.cross_map(CHAIN, e, e, AdmissibleTriple(0, 1, 2))
        assert cm.realized.maps_equal(dyn.induced_power(CHAIN, e, 2))

    def test_finite_collapse(self):
        cm = dyn.cross_map(CHAIN, subset("1", "2", "3"), subset("3"),
                           AdmissibleTriple(2, 2, 2))
        assert cm.realized == fin.FinitePartialMap.of(
            SPACE, {"1": "3", "2": "3", "3": "3"})

    def test_doubling_domain(self):
        cm = dyn.cross_map(doubling_map(), UNIT, box1(-1, False, 1, False),
                           AdmissibleTriple(0, 1, 1))
        assert cm.domain == box1("-1/2", False, "1/2", False)

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            dyn.cross_map(CHAIN, subset("1"), subset("2"),
                          AdmissibleTriple(0, 0, 0))


class TestSim:
    def test_reflexive(self):
        res = dyn.sim_f(CHAIN, subset("1", "2"), subset("1", "2"))
        assert res.is_equivalent and res.forward == (0, 0)

    def test_chain_example(self):
        res = dyn.sim_f(CHAIN, subset("1", "2", "3"), subset("3"))
        assert res.is_equivalent
        assert res.forward == (2, 2) and res.backward == (0, 0)

    def test_step_regions(self):
        res = dyn.sim_f(shift2d_map(), step_region(3, -3), step_region(0, 0),
                        bound=6)
        assert res.is_equivalent
        assert res.forward[1] - res.forward[0] == 3
        assert res.backward[1] - res.backward[0] == 3

    def test_symmetry_and_transitivity_random(self):
        rng = random.Random(23)
        for _ in range(60):
            f = random_finite_system(rng, 5)
            e = random_subset(rng, f.space)
            e2 = random_subset(rng, f.space)
            e3 = random_subset(rng, f.space)
            r12 = dyn.sim_f(f, e, e2)
            r21 = dyn.sim_f(f, e2, e)
            assert r12.is_equivalent == r21.is_equivalent
            r23 = dyn.sim_f(f, e2, e3)
            if r12.is_equivalent and r23.is_equivalent:
                assert dyn.sim_f(f, e, e3).is_equivalent

    def test_interval_unknown(self):
        res = dyn.sim_f(doubling_map(), ORIGIN, UNIT, bound=8)
        assert res.status == "unknown"


class TestCompactifiability:
    def test_origin(self):
        assert dyn.is_compactifiable(doubling_map(), ORIGIN)

    def test_unit_fails_open_domain(self):
        checks = dict(dyn.weak_compactifiability_checks(doubling_map(), UNIT))
        assert checks["induced map proper"]
        assert not checks["induced domain open in E"]

    def test_finite_always(self):
        rng = random.Random(29)
        for _ in range(30):
            f = random_finite_system(rng, 6)
            assert dyn.is_compactifiable(f, random_subset(rng, f.space))


class TestInvariantPart:
    def test_small_example(self):
        f = fin.FinitePartialMap.of(SPACE, {"1": "2", "2": "2", "3": "1"})
        assert dyn.invariant_part_exact(f, subset("1", "2")) == subset("2")

    def test_identity_keeps_everything(self):
        assert dyn.invariant_part_exact(fin.identity_map(SPACE),
                                        subset("1", "3")) == subset("1", "3")

    def test_matches_brute_force(self):
        rng = random.Random(31)
        for _ in range(150):
            f = random_finite_system(rng, 5)
            e = random_subset(rng, f.space)
            assert dyn.invariant_part_exact(f, e).members == \
                brute_invariant_part(f, e).members

    def test_matches_brute_force_up_to_twelve_points(self):
        """The cycles of f inside E against the union of every invariant
        subset of E, with E up to the whole space of up to 12 points."""
        rng = random.Random(41)
        for _ in range(200):
            f = random_finite_system(rng, 12)
            for e in (random_subset(rng, f.space),
                      fin.FiniteSubset(f.space, (1 << len(f.space.points)) - 1)):
                assert dyn.invariant_part_exact(f, e) == \
                    brute_invariant_part(f, e)

    def test_result_is_invariant(self):
        rng = random.Random(37)
        for _ in range(80):
            f = random_finite_system(rng, 6)
            i = dyn.invariant_part_exact(f, random_subset(rng, f.space))
            assert f.image(i).members == i.members

    def test_doubling_closed_form(self):
        got = dyn.invariant_part_exact(doubling_map(), UNIT)
        assert isinstance(got, BoxSet)
        assert got == ORIGIN

    def test_contraction_closed_form(self):
        got = dyn.invariant_part_exact(contraction_map(), UNIT)
        assert got == ORIGIN

    def test_identity_interval(self):
        from conley_kernel.affine import PiecewiseAffineMap
        ident = PiecewiseAffineMap.identity(1)
        assert dyn.invariant_part_exact(ident, UNIT) == UNIT

    def test_translation_kills_bounded(self):
        from conley_kernel.affine import PiecewiseAffineMap
        trans = PiecewiseAffineMap.affine_1d(1, 1)
        assert dyn.invariant_part_exact(trans, UNIT).is_empty

    def test_clamp_fixed_point(self):
        got = dyn.invariant_part_exact(clamp_map(), box1(0, True, 2, True))
        assert got == ORIGIN

    def test_outer_contains_exact(self):
        f = doubling_map()
        outer = dyn.invariant_part_outer(f, UNIT, 4)
        assert ORIGIN.subset_of(outer)

    def test_shift_region_undecided(self):
        with pytest.raises(Undecided) as info:
            dyn.invariant_part_exact(shift2d_map(), step_region(1, 1), cap=8)
        assert info.value.outer is not None


def _piecewise_1d(core_slope, outer):
    """x -> core_slope * x on [-1, 1], the rules `outer` (slope, intercept)
    on (1, inf) and, mirrored, on (-inf, -1)."""
    from conley_kernel.affine import AffineRule, Piece, PiecewiseAffineMap
    m, q = outer
    return PiecewiseAffineMap.of(1, [
        Piece(box1("-inf", False, -1, False), (AffineRule.of(m, -q),)),
        Piece(UNIT, (AffineRule.of(core_slope, 0),)),
        Piece(box1(1, False, "inf", False), (AffineRule.of(m, q),)),
    ])


class TestInvariantPartEarlyExit:
    """invariant_part_exact stops at the first iterate that is bounded and
    lies in one piece without a slope -1 axis; the fixed-cap loop it
    replaced (kernel_oracles.fixed_cap_invariant_part) ran every step to
    the cap."""

    @pytest.fixture
    def steps(self, monkeypatch):
        from conley_kernel.affine import PiecewiseAffineMap
        counts = {"preimage": 0, "image": 0}
        preimage, image = PiecewiseAffineMap.preimage, PiecewiseAffineMap.image

        def counted_preimage(f, a):
            counts["preimage"] += 1
            return preimage(f, a)

        def counted_image(f, a):
            counts["image"] += 1
            return image(f, a)

        monkeypatch.setattr(PiecewiseAffineMap, "preimage", counted_preimage)
        monkeypatch.setattr(PiecewiseAffineMap, "image", counted_image)
        return counts

    def test_doubling_takes_no_step(self, steps):
        assert dyn.invariant_part_exact(doubling_map(), UNIT) == ORIGIN
        assert steps == {"preimage": 0, "image": 0}

    def test_exits_when_the_domain_fits_the_core(self, steps):
        # D_1 = [-2, 2] still meets the translating outer pieces,
        # D_2 = [-2/3, 2/3] lies in the expanding core
        f = _piecewise_1d(3, (1, 2))
        assert dyn.invariant_part_exact(f, box1(-4, True, 4, True)) == ORIGIN
        assert steps == {"preimage": 2, "image": 0}

    def test_contracting_core_exits_in_the_image_loop(self, steps):
        # D_1 = E, so the domains stabilize at once; f(E) = [-1/2, 1/2]
        f = _piecewise_1d(Fraction(1, 3), (Fraction(1, 6), Fraction(1, 6)))
        assert dyn.invariant_part_exact(f, box1(-2, True, 2, True)) == ORIGIN
        assert steps == {"preimage": 1, "image": 1}

    def test_reflection_axis_is_undecided_with_its_bound(self, steps):
        from conley_kernel.affine import AffineRule, PiecewiseAffineMap
        f = PiecewiseAffineMap.single((AffineRule.of(-1, 0),
                                       AffineRule.of(Fraction(1, 2), 0)))
        e = BoxSet.of(2, [(Interval.closed(-1, 1), Interval.closed(0, 1))])
        with pytest.raises(Undecided) as info:
            dyn.invariant_part_exact(f, e, cap=8)
        got = info.value
        assert "reflection" in got.reason
        assert got.bound == 8
        assert got.outer == BoxSet.of(2, [(Interval.closed(-1, 1),
                                           Interval.closed(0, Fraction(1, 256)))])
        assert steps == {"preimage": 1, "image": 8}

    def test_a_later_search_reuses_its_domains(self, steps):
        # D_1(E) and D_2(E) come from the map's memo, where a search
        # on E reads them without a further pull-back
        f, e = _piecewise_1d(3, (1, 2)), box1(-4, True, 4, True)
        dyn.invariant_part_exact(f, e)
        assert steps["preimage"] == 2
        got = [f.dom(e, n) for n in (1, 2)]
        assert steps["preimage"] == 2
        assert got == [box1(-2, True, 2, True),
                       box1(Fraction(-2, 3), True, Fraction(2, 3), True)]

    def test_folding_map_stops_at_the_box_budget(self, monkeypatch):
        # D_n of the folding map doubles its intervals about every step
        monkeypatch.setattr(dyn, "ITERATE_BOX_BUDGET", 50)
        f, e = _piecewise_1d(-2, (3, -5)), box1(-1, True, 4, True)
        first_over = next(n for n in range(1, 64)
                          if len(f.dom(e, n).boxes) > 50)
        with pytest.raises(Undecided) as info:
            dyn.invariant_part_exact(f, e)
        assert info.value.bound == first_over
        assert "50 boxes" in info.value.reason
        assert info.value.outer is None

    def test_equals_the_fixed_cap_loop(self):
        # the same set, or the same reason, bound and outer approximant
        rng = random.Random(13)
        for k in range(40):
            dimension = 1 + k % 2
            f = random_product_map(rng, dimension)
            e = random_core_set(rng, dimension) if k % 4 < 2 else \
                BoxSet.of(dimension, random_box_list(rng, dimension))
            try:
                got = dyn.invariant_part_exact(f, e)
            except Undecided as exc:
                got = (exc.reason, exc.bound, exc.outer)
            # a fresh copy of f, so that no set-map memo is shared
            fresh = af.PiecewiseAffineMap.of(dimension, f.pieces)
            assert got == fixed_cap_invariant_part(fresh, e), (f, e)


class TestOnePoint:
    def test_table_formula(self):
        f = fin.FinitePartialMap.of(SPACE, {"1": "2"})
        endo = dyn.one_point(f, subset("1", "2"))
        assert endo.table == {"1": "2", "2": "*", "*": "*"}

    def test_attractor(self):
        sp = fin.FiniteSpace.of(["s", "a"])
        f = fin.FinitePartialMap.of(sp, {"s": "s", "a": "s"})
        endo = dyn.one_point(f, fin.FiniteSubset.of(sp, ["s", "a"]))
        assert endo.table == {"s": "s", "a": "s", "*": "*"}
        assert isinstance(endo, BasedEndo)

    def test_rejects_noncompactifiable(self):
        with pytest.raises(ValueError):
            dyn.one_point(doubling_map(), UNIT)

    def test_symbolic_on_interval(self):
        sym = dyn.one_point(doubling_map(), ORIGIN)
        assert isinstance(sym, dyn.InducedMap)
        assert sym.domain == ORIGIN

    def test_symbolic_on_clamp_flow(self):
        unit = box1(0, True, 1, True)
        sym = dyn.one_point(clamp_flow(), unit)
        assert isinstance(sym, dyn.InducedMap)
        assert sym.subset == unit
        assert sym.domain == unit

    def test_clamp_flow_rejects_noncompactifiable(self):
        with pytest.raises(ValueError):
            dyn.one_point(clamp_flow(), box1(0, True, 1, False))
