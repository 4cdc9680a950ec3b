import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conley_kernel import finite as fin
from conley_kernel.suites import random_finite_system
from kernel_oracles import brute_preperiod_period


SPACE = fin.FiniteSpace.of(["1", "2", "3"])


def fmap(table):
    return fin.FinitePartialMap.of(SPACE, table)


def subset(*pts):
    return fin.FiniteSubset.of(SPACE, pts)


@st.composite
def finite_maps(draw):
    n = draw(st.integers(1, 5))
    space = fin.FiniteSpace.of(str(i) for i in range(1, n + 1))
    table = {}
    for p in space.points:
        tgt = draw(st.one_of(st.none(), st.sampled_from(space.points)))
        if tgt is not None:
            table[p] = tgt
    return fin.FinitePartialMap.of(space, table)


class TestCompose:
    def test_chain(self):
        f = fmap({"1": "2"})
        g = fmap({"2": "3"})
        assert fin.compose(g, f) == fmap({"1": "3"})

    def test_empty_composite(self):
        f = fmap({"1": "2"})
        g = fmap({"1": "1"})
        assert fin.compose(g, f) == fmap({})

    def test_self_composite(self):
        f = fmap({"1": "2", "2": "3", "3": "3"})
        assert fin.compose(f, f) == fmap({"1": "3", "2": "3", "3": "3"})

    def test_space_mismatch(self):
        other = fin.FinitePartialMap.of(fin.FiniteSpace.of(["a"]), {"a": "a"})
        with pytest.raises(ValueError):
            fin.compose(fmap({"1": "1"}), other)

    @settings(max_examples=60, deadline=None)
    @given(finite_maps())
    def test_associativity(self, f):
        rng = random.Random(0)
        g = fin.FinitePartialMap.of(f.space, {
            p: rng.choice(f.space.points) for p in f.space.points})
        h = fin.FinitePartialMap.of(f.space, {
            p: rng.choice(f.space.points) for p in f.space.points
            if rng.random() < 0.7})
        assert fin.compose(fin.compose(h, g), f) == \
            fin.compose(h, fin.compose(g, f))


class TestPower:
    def test_zero_power_total_identity(self):
        f = fmap({"1": "2"})
        assert fin.power(f, 0) == fin.identity_map(SPACE)

    def test_square(self):
        f = fmap({"1": "2", "2": "3", "3": "3"})
        assert fin.power(f, 2) == fmap({"1": "3", "2": "3", "3": "3"})

    def test_square_of_partial(self):
        assert fin.power(fmap({"1": "2"}), 2) == fmap({})

    @settings(max_examples=60, deadline=None)
    @given(finite_maps(), st.integers(0, 6), st.integers(0, 6))
    def test_additivity(self, f, m, n):
        assert fin.power(f, m + n) == fin.compose(fin.power(f, m), fin.power(f, n))

    def test_orbit_walk_matches_stepwise_composition(self):
        """f^n read off the orbit walk against n compositions, for every
        n < 60 and past p + q, on partial maps of up to 12 points."""
        rng = random.Random(59)
        for _ in range(300):
            f = random_finite_system(rng, 12)
            p, q = f.power_bounds
            stepwise = fin.identity_map(f.space)
            for n in range(max(60, p + q + 1)):
                got = fin.power(f, n)
                assert got == stepwise and got is not f, (f, n)
                stepwise = fin.compose(f, stepwise)


class TestPreimage:
    def test_two_steps(self):
        f = fmap({"1": "2", "2": "3", "3": "3"})
        assert f.preimage_n(subset("3"), 2) == subset("1", "2", "3")

    def test_zero_steps(self):
        f = fmap({"1": "2"})
        assert f.preimage_n(subset("1", "3"), 0) == subset("1", "3")

    def test_nothing_maps_back(self):
        f = fmap({"1": "2"})
        assert f.preimage_n(subset("1"), 1) == subset()

    @settings(max_examples=60, deadline=None)
    @given(finite_maps(), st.integers(0, 4), st.integers(0, 4))
    def test_additivity(self, f, m, n):
        e = fin.FiniteSubset.of(f.space, f.space.points[::2])
        assert f.preimage_n(e, m + n) == \
            f.preimage_n(f.preimage_n(e, n), m)


class TestEventualPeriodicity:
    def test_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(80):
            f = random_finite_system(rng, 6)
            assert f.power_bounds == brute_preperiod_period(f)

    def test_identity_has_period_one(self):
        assert fin.identity_map(SPACE).power_bounds == (0, 1)


# ---------------------------------------------------------------------------
# the index representation against a plain frozenset/dict oracle

def oracle_powers(points, table):
    """(preperiod, period) of f^0, f^1, ... with each power held as the
    tuple of its values (None: undefined), by the first repeat."""
    seen, power, n = {}, {p: p for p in points}, 0
    while True:
        key = tuple(power.get(p) for p in points)
        if key in seen:
            return seen[key], n - seen[key]
        seen[key] = n
        power = {x: table[y] for x, y in power.items() if y in table}
        n += 1


def oracle_compose(g, f):
    return {x: g[y] for x, y in f.items() if y in g}


class TestIndexRepresentation:
    SIZES = (0, 1, 63, 64, 65, 300)

    def cases(self, rng, n):
        """A space of n points, its tables (empty, total, partial) and
        subsets (empty, full, the last point, random)."""
        space = fin.FiniteSpace.of(f"p{i}" for i in range(n))
        pts = space.points
        tables = [{}]
        if n:
            tables.append({p: rng.choice(pts) for p in pts})
            tables += [{p: rng.choice(pts) for p in pts if rng.random() < 0.8}
                       for _ in range(2)]
        sets = [set(), set(pts), set(pts[-1:])]
        sets += [{p for p in pts if rng.random() < 0.5} for _ in range(3)]
        return space, tables, sets

    def test_operations_match_the_oracle(self):
        rng = random.Random(11)
        for n in self.SIZES:
            space, tables, sets = self.cases(rng, n)
            pts = space.points
            subsets = [fin.FiniteSubset.of(space, s) for s in sets]
            for s, a in zip(sets, subsets):
                assert a.members == frozenset(s)
                assert a.ordered() == tuple(p for p in pts if p in s)
                assert repr(a) == "{" + ", ".join(a.ordered()) + "}"
                for t, b in zip(sets, subsets):
                    assert a.intersect(b).members == s & t
                    assert a.subset_of(b) == (s <= t)
                    assert (a == b) == (s == t)
                    if s == t:
                        assert hash(a) == hash(b)
            for table in tables:
                f = fin.FinitePartialMap.of(space, table)
                assert f.table == table
                assert f.pairs == tuple((p, table[p]) for p in pts if p in table)
                assert f.domain.members == frozenset(table)
                for s, a in zip(sets, subsets):
                    assert f.image(a).members == {table[x] for x in s if x in table}
                    assert f.preimage(a).members == \
                        {x for x, y in table.items() if y in s}
                    assert f.restrict(a).table == \
                        {x: y for x, y in table.items() if x in s}
                for other in tables:
                    g = fin.FinitePartialMap.of(space, other)
                    assert fin.compose(g, f).table == oracle_compose(other, table)
                    assert (f == g) == (table == other)
                power = {p: p for p in pts}
                for k in range(4):
                    assert fin.power(f, k).table == power
                    power = oracle_compose(table, power)
                assert f.power_bounds == oracle_powers(pts, table)
                if n <= 65:
                    assert f.power_bounds == brute_preperiod_period(f)

    def test_equal_spaces_give_equal_sets_and_maps(self):
        for n in self.SIZES:
            pts = [f"p{i}" for i in range(n)]
            one, two = fin.FiniteSpace.of(pts), fin.FiniteSpace.of(pts)
            assert one is not two and one == two
            a, b = fin.FiniteSubset.of(one, pts[::3]), fin.FiniteSubset.of(two, pts[::3])
            assert a == b and hash(a) == hash(b) and len({a, b}) == 1
            table = {p: pts[0] for p in pts[1:]}
            f, g = fin.FinitePartialMap.of(one, table), fin.FinitePartialMap.of(two, table)
            assert f == g and hash(f) == hash(g)
            assert f.preimage(b) == g.preimage(a)
        three = fin.FiniteSpace.of(["q"])
        assert fin.FiniteSubset.of(three, []) != fin.FiniteSubset.of(SPACE, [])

    def test_error_messages(self):
        with pytest.raises(ValueError, match=r"^point identifiers must be unique$"):
            fin.FiniteSpace.of(["1", "2", "1"])
        for members in (["4"], [1], [["1"]]):
            with pytest.raises(ValueError, match=r"^subset contains unknown points$"):
                fin.FiniteSubset.of(SPACE, members)
        for table, entry in (({"1": "4"}, "1->4"), ({"4": "1"}, "4->1"),
                             ({"1": 2}, "1->2"), ({"1": ["2"]}, "1->['2']")):
            with pytest.raises(ValueError,
                               match=rf"^table entry {re.escape(entry)} leaves the space$"):
                fin.FinitePartialMap.of(SPACE, table)
        # a long or deep bad value is echoed cut
        for target in ("4" * 5000, [[[[[["2"]]]]]] * 100):
            with pytest.raises(ValueError, match=r"^table entry 1->.{1,60} "
                               r"leaves the space$"):
                fin.FinitePartialMap.of(SPACE, {"1": target})
        other = fin.FiniteSubset.of(fin.FiniteSpace.of(["a"]), ["a"])
        for op in (fmap({}).image, fmap({}).preimage, fmap({}).restrict,
                   fmap({}).invariant_part,
                   fmap({}).weak_compactifiability_checks):
            with pytest.raises(ValueError,
                               match=r"^carrier mismatch: subset lives on another space$"):
                op(other)
