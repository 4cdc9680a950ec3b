import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conley_kernel import dynamics as dyn
from conley_kernel import finite as fin
from conley_kernel.suites import brute_preperiod_period, random_finite_system


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


class TestPreimage:
    def test_two_steps(self):
        f = fmap({"1": "2", "2": "3", "3": "3"})
        assert dyn.preimage_n(f, subset("3"), 2) == subset("1", "2", "3")

    def test_zero_steps(self):
        f = fmap({"1": "2"})
        assert dyn.preimage_n(f, subset("1", "3"), 0) == subset("1", "3")

    def test_nothing_maps_back(self):
        f = fmap({"1": "2"})
        assert dyn.preimage_n(f, subset("1"), 1) == subset()

    @settings(max_examples=60, deadline=None)
    @given(finite_maps(), st.integers(0, 4), st.integers(0, 4))
    def test_additivity(self, f, m, n):
        e = fin.FiniteSubset.of(f.space, f.space.points[::2])
        assert dyn.preimage_n(f, e, m + n) == \
            dyn.preimage_n(f, dyn.preimage_n(f, e, n), m)


class TestEventualPeriodicity:
    def test_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(80):
            f = random_finite_system(rng, 6)
            assert fin.power_preperiod_period(f) == brute_preperiod_period(f)

    def test_identity_has_period_one(self):
        assert fin.power_preperiod_period(fin.identity_map(SPACE)) == (0, 1)
