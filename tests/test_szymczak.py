import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conley_kernel import finite as fin
from conley_kernel import szymczak as sz
from conley_kernel.suites import (
    brute_power_sequence, brute_sz_is_iso, enumerate_based_endos,
    enumerate_equivariant_maps, is_shift_witness, oracle_sz_equal,
)
from kernel_oracles import brute_shift_equivalence


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
PRIME_PERIOD = 6469693230      # the product of PRIMES


def prime_cycles(tail=False) -> sz.BasedEndo:
    """Disjoint cycles of the first ten primes, with a point t running
    into the 29-cycle when tail is set."""
    pts, table = ["*"], {"*": "*"}
    for length in PRIMES:
        cycle = [f"c{length}.{i}" for i in range(length)]
        pts += cycle
        table.update({x: cycle[(i + 1) % length] for i, x in enumerate(cycle)})
    if tail:
        pts.append("t")
        table["t"] = "c29.0"
    return sz.BasedEndo.of(pts, table)


IDENT2 = sz.BasedEndo.of(["*", "p"], {"*": "*", "p": "p"})
CYCLE2 = sz.BasedEndo.of(["*", "p", "q"], {"*": "*", "p": "q", "q": "p"})
COLLAPSE = sz.BasedEndo.of(["*", "a", "b"], {"*": "*", "a": "b", "b": "b"})
ONEPT = sz.BasedEndo.of(["*", "c"], {"*": "*", "c": "c"})


class TestConstructors:
    """Every rejection of the two constructors is a ValueError, and endos
    compare by space, targets and basepoint."""

    @pytest.mark.parametrize("points, table", [
        (["a", "b"], {"a": "a", "b": "a"}),
        (["*", "a", "a"], {"*": "*", "a": "a"}),
        (["*", "a", "b"], {"*": "*", "a": "b"}),
        (["*", "a"], {"*": "*", "a": "z"}),
        (["*", "a"], {"*": "a", "a": "a"}),
        (["*", "1"], {"*": "*", "1": 1}),
    ], ids=["basepoint-missing", "duplicate-points", "not-total",
            "value-outside", "basepoint-not-fixed", "non-string-value"])
    def test_based_endo_of_rejects(self, points, table):
        with pytest.raises(ValueError):
            sz.BasedEndo.of(points, table)

    @pytest.mark.parametrize("targets, base", [
        ((0, 1), 2), ((0,), 0), ((0, -1), 0), ((0, 2), 0), ((1, 1), 0),
    ], ids=["basepoint-missing", "short", "undefined", "out-of-range",
            "basepoint-not-fixed"])
    def test_based_endo_rejects(self, targets, base):
        with pytest.raises(ValueError):
            sz.BasedEndo(fin.FiniteSpace.of(["*", "a"]), targets, base)

    @pytest.mark.parametrize("source, target, table", [
        (CYCLE2, IDENT2, {"*": "*", "p": "p", "q": "*"}),
        (CYCLE2, ONEPT, {"*": "*", "p": "z", "q": "z"}),
        (CYCLE2, ONEPT, {"*": "*", "p": "c"}),
        (IDENT2, IDENT2, {"*": "p", "p": "p"}),
    ], ids=["not-equivariant", "value-outside", "not-total",
            "basepoint-not-to-basepoint"])
    def test_equivariant_map_of_rejects(self, source, target, table):
        with pytest.raises(ValueError):
            sz.EquivariantMap.of(source, target, table)

    @pytest.mark.parametrize("target, values", [
        (CYCLE2, (0, 1, 1)), (ONEPT, (0, 2, 2)), (ONEPT, (0, -1, -1)),
        (ONEPT, (0, 1)), (ONEPT, (1, 1, 1)),
    ], ids=["not-equivariant", "out-of-range", "negative", "short",
            "basepoint-not-to-basepoint"])
    def test_equivariant_map_rejects(self, target, values):
        with pytest.raises(ValueError):
            sz.EquivariantMap(CYCLE2, target, values)

    def test_endo_is_never_a_plain_map(self):
        plain = fin.FinitePartialMap(CYCLE2.space, CYCLE2.targets)
        assert plain.table == CYCLE2.table
        assert CYCLE2 != plain and plain != CYCLE2

    def test_equal_endos_are_equal_and_hash_equal(self):
        table = {"*": "*", "p": "q", "q": "p"}
        one = sz.BasedEndo.of(["*", "p", "q"], table)
        two = sz.BasedEndo.of(["*", "p", "q"], dict(table))
        assert one.space is not two.space
        assert one == two and hash(one) == hash(two)
        # the oracles' power-sequence cache is keyed by the endo
        assert brute_power_sequence(one) is brute_power_sequence(two)
        assert one != sz.BasedEndo.of(["*", "q", "p"], table)
        fixed = {"a": "a", "b": "b"}
        assert sz.BasedEndo.of(["a", "b"], fixed, base="a") != \
            sz.BasedEndo.of(["a", "b"], fixed, base="b")

    def test_names_are_views(self):
        e = sz.BasedEndo.of(["p", "*", "q"], {"*": "*", "p": "q", "q": "p"})
        assert (e.points, e.base, e.base_index) == (("p", "*", "q"), "*", 1)
        assert e.targets == (2, 1, 0)
        assert e.table == {"p": "q", "*": "*", "q": "p"} and e.apply("p") == "q"
        assert repr(e) == "Endo{p->q, *->*, q->p}"
        phi = sz.EquivariantMap.of(e, ONEPT, {"p": "c", "*": "*", "q": "c"})
        assert phi.values == (1, 0, 1)
        assert phi.table == {"p": "c", "*": "*", "q": "c"}
        assert repr(phi) == "Equiv{p->c, q->c}"


class TestSzEqual:
    def test_shift_invisible_on_idempotent(self):
        idm = sz.EquivariantMap.identity(IDENT2)
        assert sz.sz_equal(sz.SzMorphism(idm, 0), sz.SzMorphism(idm, 1))

    def test_shift_visible_on_cycle(self):
        idm = sz.EquivariantMap.identity(CYCLE2)
        assert not sz.sz_equal(sz.SzMorphism(idm, 0), sz.SzMorphism(idm, 1))

    def test_reflexive(self):
        m = sz.Q(sz.EquivariantMap.endo_as_self_map(CYCLE2))
        assert sz.sz_equal(m, m)

    def test_parallel_required(self):
        with pytest.raises(ValueError):
            sz.sz_equal(sz.identity_morphism(IDENT2), sz.identity_morphism(CYCLE2))

    def test_equivalence_relation_on_enumerated_morphisms(self):
        endos = [IDENT2, COLLAPSE]
        for f, g in itertools.product(endos, repeat=2):
            ms = [sz.SzMorphism(phi, k)
                  for phi in enumerate_equivariant_maps(f, g)
                  for k in range(3)]
            for a in ms:
                assert sz.sz_equal(a, a)
            for a, b in itertools.product(ms, repeat=2):
                assert sz.sz_equal(a, b) == sz.sz_equal(b, a)
            for a, b, c in itertools.product(ms, repeat=3):
                if sz.sz_equal(a, b) and sz.sz_equal(b, c):
                    assert sz.sz_equal(a, c)


class TestCompose:
    def test_identity_neutral(self):
        m = sz.Q(sz.EquivariantMap.endo_as_self_map(COLLAPSE))
        assert sz.sz_equal(sz.sz_compose(sz.identity_morphism(COLLAPSE), m), m)
        assert sz.sz_equal(sz.sz_compose(m, sz.identity_morphism(COLLAPSE)), m)

    def test_shifted_identity_cancels_endo(self):
        fh = sz.Q(sz.EquivariantMap.endo_as_self_map(COLLAPSE))
        shifted = sz.SzMorphism(sz.EquivariantMap.identity(COLLAPSE), 1)
        assert sz.sz_equal(sz.sz_compose(shifted, fh),
                           sz.identity_morphism(COLLAPSE))

    def test_constant_morphisms_compose(self):
        c1 = sz.EquivariantMap.of(CYCLE2, ONEPT, {"*": "*", "p": "*", "q": "*"})
        c2 = sz.EquivariantMap.of(ONEPT, IDENT2, {"*": "*", "c": "*"})
        comp = sz.sz_compose(sz.Q(c1), sz.Q(c2))
        assert all(comp.phi.table[x] == "*" for x in CYCLE2.points)

    def test_representative_independence(self):
        m = sz.Q(sz.EquivariantMap.endo_as_self_map(COLLAPSE))
        m_alt = sz.SzMorphism(m.phi, 2)  # same phi, higher shift
        other = sz.identity_morphism(COLLAPSE)
        left = sz.sz_compose(m, other)
        if sz.sz_equal(m, m_alt):
            assert sz.sz_equal(left, sz.sz_compose(m_alt, other))

    def test_q_respects_composition(self):
        phi = sz.EquivariantMap.of(COLLAPSE, ONEPT, {"*": "*", "a": "c", "b": "c"})
        psi = sz.EquivariantMap.of(ONEPT, IDENT2, {"*": "*", "c": "p"})
        assert sz.sz_equal(sz.Q(phi.then(psi)), sz.sz_compose(sz.Q(phi), sz.Q(psi)))

    def test_associativity_up_to_class_equality(self):
        for m1 in [sz.SzMorphism(phi, k)
                   for phi in enumerate_equivariant_maps(COLLAPSE, ONEPT)
                   for k in range(2)]:
            for m2 in [sz.SzMorphism(phi, k)
                       for phi in enumerate_equivariant_maps(ONEPT, IDENT2)
                       for k in range(2)]:
                for m3 in [sz.SzMorphism(phi, k)
                           for phi in enumerate_equivariant_maps(IDENT2, CYCLE2)
                           for k in range(2)]:
                    lhs = sz.sz_compose(sz.sz_compose(m1, m2), m3)
                    rhs = sz.sz_compose(m1, sz.sz_compose(m2, m3))
                    assert sz.sz_equal(lhs, rhs)


class TestEquivariantMapOracle:
    def test_one_cached_tuple_in_table_order(self):
        # the basepoint is second in both point orders; the tables run over
        # (phi(p), phi(q)) with the target points ranked v < * < u
        def pair():
            f = sz.BasedEndo.of(["p", "*", "q"], {"*": "*", "p": "q", "q": "q"})
            g = sz.BasedEndo.of(["v", "*", "u"], {"*": "*", "v": "v", "u": "v"})
            return f, g

        one, two = pair(), pair()
        assert one[0].space is not two[0].space
        maps = enumerate_equivariant_maps(*one)
        # brute_sz_is_iso asks for the same pair once per morphism
        assert enumerate_equivariant_maps(*two) is maps
        assert [(phi.table["p"], phi.table["q"]) for phi in maps] == \
            [("v", "v"), ("*", "*"), ("u", "v")]


class TestShiftEquivalence:
    def test_collapse_onto_fixed_point(self):
        phi = sz.EquivariantMap.of(COLLAPSE, ONEPT, {"*": "*", "a": "c", "b": "c"})
        wit = sz.is_shift_equivalence(phi)
        assert wit is not None and wit.exponent == 1
        assert wit.psi.table["c"] == "b"

    def test_cycle_does_not_collapse(self):
        phi = sz.EquivariantMap.of(CYCLE2, ONEPT, {"*": "*", "p": "c", "q": "c"})
        assert sz.is_shift_equivalence(phi) is None

    def test_identity_is_shift_equivalence(self):
        wit = sz.is_shift_equivalence(sz.EquivariantMap.identity(CYCLE2))
        assert wit is not None and wit.exponent == 0

    def test_endo_self_map_invertible_for_every_endo(self):
        for k in range(3):
            for e in enumerate_based_endos(k):
                fh = sz.EquivariantMap.endo_as_self_map(e)
                assert brute_sz_is_iso(sz.Q(fh)) is not None

    def test_iso_agrees_with_shift_equivalence(self):
        endos = [IDENT2, CYCLE2, COLLAPSE, ONEPT]
        for f, g in itertools.product(endos, repeat=2):
            for phi in enumerate_equivariant_maps(f, g):
                assert (sz.is_shift_equivalence(phi) is None) == \
                    (brute_sz_is_iso(sz.Q(phi)) is None)


@st.composite
def based_endo_pairs(draw, max_points=6):
    """(f, g) with at most max_points points each, basepoint anywhere in
    the point order; g is random, or f with transient points added."""
    def endo(pts, table):
        order = draw(st.permutations(pts))
        return sz.BasedEndo.of(order, table)

    pts = ["*"] + [f"x{i}" for i in range(draw(st.integers(0, max_points - 1)))]
    table = {"*": "*"} | {p: draw(st.sampled_from(pts)) for p in pts[1:]}
    f = endo(pts, table)
    if draw(st.booleans()):
        qts = ["*"] + [f"y{i}" for i in range(draw(st.integers(0, max_points - 1)))]
        g = endo(qts, {"*": "*"} | {q: draw(st.sampled_from(qts)) for q in qts[1:]})
    else:
        extra = draw(st.integers(0, max_points - len(pts)))
        qts = list(pts)
        for i in range(extra):
            table[f"t{i}"] = draw(st.sampled_from(qts))
            qts.append(f"t{i}")
        g = endo(qts, table)
    return (g, f) if draw(st.booleans()) else (f, g)


class TestEventualImageDecider:
    """The polynomial decider returns exactly the brute force's witness:
    the least exponent, and at it the first table in enumeration order."""

    def test_exhaustive_up_to_three_points(self):
        endos = [e for k in range(3) for e in enumerate_based_endos(k)]
        maps = [phi for f in endos for g in endos
                for phi in enumerate_equivariant_maps(f, g)]
        assert len(maps) == 295
        for phi in maps:
            assert sz.is_shift_equivalence(phi) == brute_shift_equivalence(phi), phi

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(based_endo_pairs(), st.integers(0, 10 ** 6))
    def test_random_up_to_six_points(self, pair, index):
        f, g = pair
        maps = list(enumerate_equivariant_maps(f, g))
        phi = maps[index % len(maps)]
        assert sz.is_shift_equivalence(phi) == brute_shift_equivalence(phi)

    def test_least_table_among_several_partners(self):
        # phi collapses a, b, c onto c'; at the least exponent 1, psi(u) may
        # be any point over c', and the first in f's point order is b
        f = sz.BasedEndo.of(["*", "b", "a", "c"],
                            {"*": "*", "a": "c", "b": "c", "c": "c"})
        g = sz.BasedEndo.of(["*", "u", "c'"], {"*": "*", "u": "c'", "c'": "c'"})
        phi = sz.EquivariantMap.of(f, g, {"*": "*", "a": "c'", "b": "c'",
                                          "c": "c'"})
        partners = [psi for psi in enumerate_equivariant_maps(g, f)
                    if is_shift_witness(phi, psi, 1)]
        assert [psi.table["u"] for psi in partners] == ["b", "a", "c"]
        wit = sz.is_shift_equivalence(phi)
        assert wit.exponent == 1
        assert wit.psi.table == {"*": "*", "u": "b", "c'": "c"}
        assert wit == brute_shift_equivalence(phi)

    def test_period_beyond_enumeration(self):
        # the power sequence has period 6,469,693,230, which the decider
        # never walks
        e = prime_cycles()
        assert e.power_bounds == (0, PRIME_PERIOD)
        wit = sz.is_shift_equivalence(sz.EquivariantMap.identity(e))
        assert wit.exponent == 0 and wit.psi == sz.EquivariantMap.identity(e)

    def test_not_bijective_on_eventual_images(self):
        # collapsing the 2-cycle onto a fixed point is onto but not
        # injective on the eventual images
        phi = sz.EquivariantMap.of(CYCLE2, ONEPT, {"*": "*", "p": "c", "q": "c"})
        assert sz.is_shift_equivalence(phi) is None


class TestPowerSequence:
    def test_powers_cover_preperiod_and_period(self):
        e = sz.BasedEndo.of(["*", "t", "p", "q"],
                            {"*": "*", "t": "p", "p": "q", "q": "p"})
        assert e.power_bounds == (1, 2)
        assert e.power_table(3) == e.power_table(1) != e.power_table(2)

    def test_power_table_reduces_past_the_preperiod(self):
        e = sz.BasedEndo.of(["*", "t", "p", "q"],
                            {"*": "*", "t": "p", "p": "q", "q": "p"})
        table = {x: x for x in e.points}
        for n in range(12):
            assert e.power_table(n) == table
            table = {x: e.apply(v) for x, v in table.items()}

    def test_power_bounds_are_the_first_repeat(self):
        for k in range(4):
            for e in enumerate_based_endos(k):
                seq = [{x: x for x in e.points}]
                while seq[-1] not in seq[:-1]:
                    seq.append({x: e.apply(v) for x, v in seq[-1].items()})
                p = seq.index(seq[-1])
                assert e.power_bounds == (p, len(seq) - 1 - p), e
                assert [e.power_table(n) for n in range(len(seq))] == seq

    def test_power_table_is_a_copy(self):
        e = CYCLE2
        e.power_table(1)["p"] = "*"
        assert e.power_table(1)["p"] == "q"


@st.composite
def based_endos(draw, max_points=8):
    """A based endo of at most max_points points, in a drawn point order."""
    pts = ["*"] + [f"x{i}" for i in range(draw(st.integers(0, max_points - 1)))]
    table = {"*": "*"} | {p: draw(st.sampled_from(pts)) for p in pts[1:]}
    return sz.BasedEndo.of(draw(st.permutations(pts)), table)


def _carried(f, g, table, x, t) -> dict | None:
    """A copy of the partial table of a map phi: f -> g with phi(x) = t
    set and carried along f by phi f = g phi; None if it meets a value
    set before that disagrees."""
    table = dict(table)
    while x not in table:
        table[x] = t
        x, t = f.apply(x), g.apply(t)
    return table if table[x] == t else None


@st.composite
def equivariant_maps(draw, f, g):
    """An equivariant map f -> g, its values drawn point by point in a
    drawn order and carried along f."""
    table = {f.base: g.base}
    for x in draw(st.permutations(f.points)):
        if x not in table:
            options = [c for c in (_carried(f, g, table, x, t) for t in g.points)
                       if c is not None]
            assume(options)
            table = draw(st.sampled_from(options))
    return sz.EquivariantMap.of(f, g, table)


@st.composite
def parallel_morphisms(draw, max_points=8, max_shift=8):
    f, g = draw(based_endos(max_points)), draw(based_endos(max_points))
    shift = st.integers(0, max_shift)
    return (sz.SzMorphism(draw(equivariant_maps(f, g)), draw(shift)),
            sz.SzMorphism(draw(equivariant_maps(f, g)), draw(shift)))


def iterated_tables(e, count):
    """The tables of f^0..f^(count-1), each stepped from the last."""
    seq = [{x: x for x in e.points}]
    while len(seq) < count:
        seq.append({x: e.apply(v) for x, v in seq[-1].items()})
    return seq


class TestOrbitStructure:
    """cycles, eventual_image and the power tables all come from one orbit
    walk; each is checked against the endo's own table."""

    SMALL = [e for k in range(4) for e in enumerate_based_endos(k)]

    @staticmethod
    def assert_cycles_partition_the_eventual_image(e):
        on_cycles = [x for c in e.cycles for x in c]
        assert sorted(on_cycles) == sorted(e.eventual_image), e
        for c in e.cycles:
            assert [e.apply(x) for x in c] == list(c[1:] + c[:1]), e
        # eventual_image keeps points order, and is what |X| steps reach
        ahead = iterated_tables(e, len(e.points) + 1)[-1]
        assert e.eventual_image == tuple(
            x for x in e.points if x in set(ahead.values())), e

    @staticmethod
    def assert_power_tables_iterate(e):
        p, q = e.power_bounds
        count = 3 * (p + q) + 3
        assert [e.power_table(n) for n in range(count)] == \
            iterated_tables(e, count), e

    def test_cycles_partition_the_eventual_image(self):
        for e in self.SMALL:
            self.assert_cycles_partition_the_eventual_image(e)

    def test_power_tables_iterate(self):
        for e in self.SMALL:
            self.assert_power_tables_iterate(e)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(based_endos())
    def test_random_up_to_eight_points(self, e):
        self.assert_cycles_partition_the_eventual_image(e)
        self.assert_power_tables_iterate(e)

    @pytest.mark.parametrize("tail", [False, True], ids=["cycles", "tail"])
    def test_tables_and_classes_past_a_large_period(self, tail):
        # no table or loop is sized by the period, 6,469,693,230
        e = prime_cycles(tail)
        p = 1 if tail else 0
        assert e.power_bounds == (p, PRIME_PERIOD)
        assert e.power_table(PRIME_PERIOD + 1) == e.power_table(1)
        assert e.power_table(PRIME_PERIOD + p) == e.power_table(p)
        idm = sz.EquivariantMap.identity(e)
        assert sz.sz_equal(sz.SzMorphism(idm, 0), sz.SzMorphism(idm, PRIME_PERIOD))
        assert not sz.sz_equal(sz.SzMorphism(idm, 0), sz.SzMorphism(idm, 1))
        back = sz.endo_shift_morphism(e, PRIME_PERIOD)
        assert sz.sz_equal(back, sz.identity_morphism(e))
        assert (back.phi == idm) == (not tail)


class TestSzEqualOracle:
    """The one comparison of sz_equal agrees with the oracle, which tries
    every n up to preperiod plus period of the stepped power sequence."""

    def test_exhaustive_up_to_three_points(self):
        # sources with up to 3 free points, targets with up to 2, both
        # shifts 0..3
        sources = [e for k in range(4) for e in enumerate_based_endos(k)]
        targets = [e for k in range(3) for e in enumerate_based_endos(k)]
        checked = 0
        for f, g in itertools.product(sources, targets):
            ms = [sz.SzMorphism(phi, k)
                  for phi in enumerate_equivariant_maps(f, g) for k in range(4)]
            for a, b in itertools.product(ms, repeat=2):
                assert sz.sz_equal(a, b) == oracle_sz_equal(a, b), (a, b)
                checked += 1
        assert checked == 204112

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(parallel_morphisms())
    def test_random_up_to_eight_points(self, pair):
        a, b = pair
        assert sz.sz_equal(a, b) == oracle_sz_equal(a, b)
        assert sz.sz_equal(b, a) == oracle_sz_equal(b, a)


class TestCanonicalInvariant:
    def test_attractor(self):
        e = sz.BasedEndo.of(["*", "s", "a"], {"*": "*", "s": "s", "a": "s"})
        assert sz.canonical_invariant(e) == (2, (1, 1))

    def test_cycle_with_basepoint(self):
        assert sz.canonical_invariant(CYCLE2) == (3, (1, 2))

    def test_everything_to_basepoint(self):
        e = sz.BasedEndo.of(["*", "x"], {"*": "*", "x": "*"})
        assert sz.canonical_invariant(e) == (1, (1,))

    def test_separates_shift_classes_on_small_endos(self):
        endos = [e for k in range(3) for e in enumerate_based_endos(k)]
        for f in endos:
            for g in endos:
                if sz.canonical_invariant(f) == sz.canonical_invariant(g):
                    continue
                for phi in enumerate_equivariant_maps(f, g):
                    assert sz.is_shift_equivalence(phi) is None

    def test_complete_on_small_endos(self):
        # equal invariants: some equivariant map is a shift equivalence
        endos = [e for k in range(4) for e in enumerate_based_endos(k)]
        for f in endos:
            for g in endos:
                if sz.canonical_invariant(f) == sz.canonical_invariant(g):
                    assert any(brute_shift_equivalence(phi) is not None
                               for phi in enumerate_equivariant_maps(f, g)), (f, g)
