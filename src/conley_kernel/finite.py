"""Finite discrete dynamical systems.

Point identifiers are opaque text tokens; the space orders them by input
order so every derived object serializes deterministically.  Finite weak
Hausdorff spaces are discrete, so the topology on this carrier is trivial:
closure and interior are the identity and every subset is compact.  A map
holds the memo of the powers f^t, D_n(E) and f^-n(A) that
:class:`conley_kernel.carriers.DiscreteTime` builds, in a field of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping


@dataclass(frozen=True)
class FiniteSpace:
    points: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise ValueError("point identifiers must be unique")

    @staticmethod
    def of(points: Iterable[str]) -> "FiniteSpace":
        return FiniteSpace(tuple(str(p) for p in points))

    @cached_property
    def index(self) -> dict:
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def point_set(self) -> frozenset:
        return frozenset(self.points)


@dataclass(frozen=True)
class FiniteSubset:
    space: FiniteSpace
    members: frozenset

    def __post_init__(self):
        if not self.members <= self.space.point_set:
            raise ValueError("subset contains unknown points")

    @staticmethod
    def of(space: FiniteSpace, members: Iterable[str]) -> "FiniteSubset":
        return FiniteSubset(space, frozenset(str(m) for m in members))

    def __hash__(self):
        # sets key the memos of maps; frozensets cache their hash
        return hash(self.members)

    def ordered(self) -> tuple[str, ...]:
        return tuple(p for p in self.space.points if p in self.members)

    def intersect(self, other: "FiniteSubset") -> "FiniteSubset":
        return FiniteSubset(self.space, self.members & other.members)

    def subset_of(self, other: "FiniteSubset") -> bool:
        return self.members <= other.members

    # topology (discrete, hence trivial)
    def closure(self) -> "FiniteSubset":
        return self

    def interior(self) -> "FiniteSubset":
        return self

    def is_closed(self) -> bool:
        return True

    def is_compact(self) -> bool:
        return True

    def is_open_in(self, ambient: "FiniteSubset") -> bool:
        if not self.subset_of(ambient):
            raise ValueError("is_open_in requires a subset")
        return True

    def is_locally_compact(self) -> bool:
        return True

    def __repr__(self):
        return "{" + ", ".join(self.ordered()) + "}"


@dataclass(frozen=True)
class FinitePartialMap:
    space: FiniteSpace
    pairs: tuple[tuple[str, str], ...]   # (x, f(x)) sorted in space order
    _iterates: dict = field(default_factory=dict, init=False, compare=False,
                            hash=False, repr=False)

    def __post_init__(self):
        pts = self.space.point_set
        for x, fx in self.pairs:
            if x not in pts or fx not in pts:
                raise ValueError(f"table entry {x}->{fx} leaves the space")
        if len({x for x, _ in self.pairs}) != len(self.pairs):
            raise ValueError("duplicate domain point")

    @staticmethod
    def of(space: FiniteSpace, table: Mapping[str, str]) -> "FinitePartialMap":
        order = space.index
        pairs = tuple(sorted(((str(x), str(y)) for x, y in table.items()),
                             key=lambda p: order[p[0]]))
        return FinitePartialMap(space, pairs)

    @cached_property
    def table(self) -> dict:
        return dict(self.pairs)

    @property
    def domain(self) -> FiniteSubset:
        return FiniteSubset(self.space, frozenset(x for x, _ in self.pairs))

    def apply(self, x: str) -> str | None:
        return self.table.get(x)

    def check_set(self, e: FiniteSubset):
        if e.space != self.space:
            raise ValueError("carrier mismatch: subset lives on another space")

    def image(self, e: FiniteSubset) -> FiniteSubset:
        self.check_set(e)
        return FiniteSubset(self.space, frozenset(
            fx for x, fx in self.pairs if x in e.members))

    def preimage(self, e: FiniteSubset) -> FiniteSubset:
        """One step: f^-1(e)."""
        self.check_set(e)
        return FiniteSubset(self.space, frozenset(
            x for x, fx in self.pairs if fx in e.members))

    def restrict(self, s: FiniteSubset) -> "FinitePartialMap":
        self.check_set(s)
        return FinitePartialMap.of(
            self.space, {x: fx for x, fx in self.pairs if x in s.members})

    def maps_equal(self, other: "FinitePartialMap") -> bool:
        return self == other

    def is_proper_on(self, d: FiniteSubset, y: FiniteSubset) -> bool:
        """Every partial map of a discrete space is proper."""
        if not d.subset_of(self.domain):
            raise ValueError("d must be contained in Dom f")
        if not self.image(d).subset_of(y):
            raise ValueError("f(d) must be contained in y")
        return True

    def __repr__(self):
        body = ", ".join(f"{x}->{y}" for x, y in self.pairs)
        return "{" + body + "}"


def identity_map(space: FiniteSpace) -> FinitePartialMap:
    return FinitePartialMap.of(space, {p: p for p in space.points})


def compose(g: FinitePartialMap, f: FinitePartialMap) -> FinitePartialMap:
    """g after f; Dom(gf) = f^{-1}(Dom g)."""
    if f.space != g.space:
        raise ValueError("space mismatch")
    table = {x: g.table[fx] for x, fx in f.pairs if fx in g.table}
    return FinitePartialMap.of(f.space, table)


def power(f: FinitePartialMap, n: int) -> FinitePartialMap:
    if n < 0:
        raise ValueError("negative power")
    if n == 0:
        return identity_map(f.space)
    out = f
    for _ in range(n - 1):
        out = compose(f, out)
    return out


def power_preperiod_period(f: FinitePartialMap) -> tuple[int, int]:
    return preperiod_period(f.space.points, f.table)


def preperiod_period(points, table) -> tuple[int, int]:
    """Least (p, q) with f^p = f^(p+q), q >= 1, for the partial map
    ``table`` on ``points``, read off the orbit structure.

    f^n(x) = f^(n+q)(x) holds iff the orbit of x has left Dom f by step n
    (it does so after k steps: f^k(x) is undefined) or has run into a cycle
    of length c dividing q.  So p is the largest such k or run-in length t
    over all points, and q the lcm of the cycle lengths."""
    steps: dict[str, int] = {}     # x -> its k, or its t (0 on a cycle)
    lengths = []
    for x in points:
        path, at = [], {}
        while x not in steps:
            if x in at:            # the path closed a new cycle
                cycle = path[at[x]:]
                lengths.append(len(cycle))
                steps.update((y, 0) for y in cycle)
                del path[at[x]:]
            elif x not in table:
                steps[x] = 1
            else:
                at[x] = len(path)
                path.append(x)
                x = table[x]
        n = steps[x]
        for y in reversed(path):
            n += 1
            steps[y] = n
    return max(steps.values(), default=0), math.lcm(*lengths)

