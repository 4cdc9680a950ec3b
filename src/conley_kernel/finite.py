"""Finite discrete dynamical systems.

Point identifiers are opaque text tokens; the space orders them by input
order so every derived object serializes deterministically.  Finite weak
Hausdorff spaces are discrete, so the topology on this carrier is trivial:
closure and interior are the identity and every subset is compact.

Everything is held on point indices, the positions in ``space.points``: a
subset is an int mask (bit i for point i), a partial map the tuple of its
target indices (-1 where undefined).  Images and one-step preimages OR
per-point masks over the set bits of a mask at C level (``_flags`` spells
the mask as 0/1 bytes for ``itertools.compress``), with no Python loop per
point.  Names (``members``, ``ordered()``, ``pairs``, ``table``) are views
derived for output and oracles.  This is the one finite-map
representation: the based endos of :mod:`conley_kernel.szymczak` are total
maps with a basepoint index, and read the orbit walk a map caches.

f is eventually periodic, and one walk of every orbit (tails and cycles)
records how: f^n of every finite map, based endos included, is f^p (the
preperiod p is at most |X|) turned n - p places along the cycles, so
:func:`power`, a map's ``time_map``, composes nothing and keeps no map, and
the invariant part of E is the cycles inside E.  A map is its own time
domain (times in N, searches with a derived complete bound): its base
:class:`conley_kernel.carriers.DiscreteTime` builds and holds its D_n(E)
and f^-n(A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import compress
from operator import or_
from typing import Iterable, Mapping

from .carriers import DiscreteTime
from .errors import echo

_BYTE_BITS = bytes.maketrans(b"01", b"\0\1")


def _flags(mask: int) -> bytes:
    """Byte i is bit i of mask: the selectors of ``compress``."""
    return bin(mask)[:1:-1].encode().translate(_BYTE_BITS)


@dataclass(frozen=True)
class FiniteSpace:
    """The points, in input order.  :meth:`of`, the checked constructor,
    checks that they are unique; the plain constructor checks nothing, and
    besides :meth:`of` only the document builder calls it, with the points
    of a space that :meth:`of` made."""

    points: tuple[str, ...]

    @staticmethod
    def of(points: Iterable[str]) -> "FiniteSpace":
        space = FiniteSpace(tuple(points))
        if len(space.index) != len(space.points):
            raise ValueError("point identifiers must be unique")
        return space

    @cached_property
    def index(self) -> dict:
        return {p: i for i, p in enumerate(self.points)}


@dataclass(frozen=True)
class FiniteSubset:
    space: FiniteSpace
    mask: int

    @staticmethod
    def of(space: FiniteSpace, members: Iterable[str]) -> "FiniteSubset":
        index, mask = space.index, 0
        try:
            for m in members:
                mask |= 1 << index[m]
        except (KeyError, TypeError):      # unknown or unhashable
            raise ValueError("subset contains unknown points") from None
        return FiniteSubset(space, mask)

    def __hash__(self):
        # sets key the memos of maps
        return hash(self.mask)

    @property
    def members(self) -> frozenset:
        return frozenset(self.ordered())

    def ordered(self) -> tuple[str, ...]:
        return tuple(compress(self.space.points, _flags(self.mask)))

    def intersect(self, other: "FiniteSubset") -> "FiniteSubset":
        return FiniteSubset(self.space, self.mask & other.mask)

    def subset_of(self, other: "FiniteSubset") -> bool:
        return not self.mask & ~other.mask

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
class FinitePartialMap(DiscreteTime):
    space: FiniteSpace
    targets: tuple[int, ...]   # index of f(x) per point index x, -1 undefined
    _iterates: dict = field(default_factory=dict, init=False, compare=False,
                            hash=False, repr=False)

    carrier_name = "finite"
    default_bound = None        # a search derives its own complete bound

    @staticmethod
    def of(space: FiniteSpace, table: Mapping[str, str]) -> "FinitePartialMap":
        index, targets = space.index, [-1] * len(space.points)
        try:
            for x, fx in table.items():
                targets[index[x]] = index[fx]
        except (KeyError, TypeError):      # unknown or unhashable
            raise ValueError(f"table entry {echo(x)}->{echo(fx)} leaves "
                             "the space") from None
        return FinitePartialMap(space, tuple(targets))

    @cached_property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        """(x, f(x)) in space order."""
        pts = self.space.points
        return tuple((pts[x], pts[t])
                     for x, t in enumerate(self.targets) if t >= 0)

    @cached_property
    def table(self) -> dict:
        return dict(self.pairs)

    @cached_property
    def domain(self) -> FiniteSubset:
        return FiniteSubset(self.space, sum(
            1 << x for x, t in enumerate(self.targets) if t >= 0))

    @cached_property
    def _target_bits(self) -> tuple[int, ...]:
        """The mask of {f(x)} per point x, 0 where f is undefined."""
        return tuple(1 << t if t >= 0 else 0 for t in self.targets)

    @cached_property
    def _preimage_bits(self) -> list[int]:
        """The mask of f^-1({y}) per point y."""
        pre = [0] * len(self.targets)
        for x, t in enumerate(self.targets):
            if t >= 0:
                pre[t] |= 1 << x
        return pre

    @cached_property
    def _orbits(self) -> tuple[list[int], list[tuple[int, ...]]]:
        """The orbit structure (steps, cycles) of f, from one walk of every
        orbit: steps[x] is the number of steps after which the orbit of x
        leaves Dom f (f^k(x) is undefined) or runs into a cycle (0 on a
        cycle), and cycles lists each cycle once, in f order from where a
        walk closed it."""
        targets, n = self.targets, len(self.targets)
        steps = [-1] * n      # -1 unknown
        walk = [-1] * n       # x -> the start of the walk that passed x
        cycles = []
        for s in range(n):
            path, x = [], s
            while x >= 0 and steps[x] < 0 and walk[x] != s:
                walk[x] = s
                path.append(x)
                x = targets[x]
            if x < 0:             # f(path[-1]) is undefined
                k = 0
            elif steps[x] >= 0:
                k = steps[x]
            else:                 # the path closed a new cycle at x
                i = path.index(x)
                cycles.append(tuple(path[i:]))
                for y in path[i:]:
                    steps[y] = 0
                del path[i:]
                k = 0
            for y in reversed(path):
                k += 1
                steps[y] = k
        return steps, cycles

    @cached_property
    def _cycle_masks(self) -> tuple[int, ...]:
        """The mask of each cycle of f."""
        return tuple(sum(1 << x for x in c) for c in self._orbits[1])

    @cached_property
    def power_bounds(self) -> tuple[int, int]:
        """Least (p, q) with f^p = f^(p+q), q >= 1, from the orbit structure.

        f^n(x) = f^(n+q)(x) holds iff the orbit of x has left Dom f by step
        n or has run into a cycle of length c dividing q.  So p is the
        largest step count, and q the lcm of the cycle lengths."""
        steps, cycles = self._orbits
        return max(steps, default=0), math.lcm(*map(len, cycles))

    @cached_property
    def _tables(self) -> dict:
        """The memo of :meth:`_power`, keyed by the reduced exponent, with
        f^0..f^p built by steps: p is at most |X|."""
        step = (self.targets + (-1,)).__getitem__  # undefined stays undefined
        tables = {0: tuple(range(len(self.targets)))}
        for k in range(1, self.power_bounds[0] + 1):
            tables[k] = tuple(map(step, tables[k - 1]))
        return tables

    def _power(self, n: int) -> tuple[int, ...]:
        """The shared targets of f^n, with n > p reduced to p + (n - p) mod q.

        f^p maps each point off Dom f or onto a cycle, which f turns, so
        f^n is f^p moved n - p places along the cycle each point lands on
        (-1 stays -1): no table is built per unit of the period q."""
        if n == 1:              # f^1 needs no orbit walk
            return self.targets
        p, q = self.power_bounds
        if n > p:
            n = p + (n - p) % q
        tables = self._tables
        if n not in tables:
            d, moved = n - p, list(self.targets + (-1,))
            for c in self._orbits[1]:
                for i, y in enumerate(c):
                    moved[y] = c[(i + d) % len(c)]
            tables[n] = tuple(map(moved.__getitem__, tables[p]))
        return tables[n]

    def apply(self, x: str) -> str | None:
        return self.table.get(x)

    def check_set(self, e: FiniteSubset):
        if e.space is not self.space and e.space != self.space:
            raise ValueError("carrier mismatch: subset lives on another space")

    def image(self, e: FiniteSubset) -> FiniteSubset:
        self.check_set(e)
        return FiniteSubset(self.space, reduce(
            or_, compress(self._target_bits, _flags(e.mask)), 0))

    def preimage(self, e: FiniteSubset) -> FiniteSubset:
        """One step: f^-1(e)."""
        self.check_set(e)
        return FiniteSubset(self.space, reduce(
            or_, compress(self._preimage_bits, _flags(e.mask)), 0))

    def dom_step(self, e: FiniteSubset, d: FiniteSubset) -> FiniteSubset:
        """E n f^-1(D), the step D_n(E) -> D_{n+1}(E): two mask operations,
        cheaper than restricting f to E."""
        return e.intersect(self.preimage(d))

    def restrict(self, s: FiniteSubset) -> "FinitePartialMap":
        self.check_set(s)
        keep = _flags(s.mask).ljust(len(self.targets), b"\0")
        return FinitePartialMap(self.space, tuple(
            t if k else -1 for t, k in zip(self.targets, keep)))

    def maps_equal(self, other: "FinitePartialMap") -> bool:
        return self == other

    def is_proper_on(self, d: FiniteSubset, y: FiniteSubset) -> bool:
        """Every partial map of a discrete space is proper."""
        if not d.subset_of(self.domain):
            raise ValueError("d must be contained in Dom f")
        if not self.image(d).subset_of(y):
            raise ValueError("f(d) must be contained in y")
        return True

    def time_map(self, t):
        return power(self, t)

    def after(self, f):
        return compose(self, f)

    def __repr__(self):
        body = ", ".join(f"{x}->{y}" for x, y in self.pairs)
        return "{" + body + "}"


def identity_map(space: FiniteSpace) -> FinitePartialMap:
    return FinitePartialMap(space, tuple(range(len(space.points))))


def compose(g: FinitePartialMap, f: FinitePartialMap) -> FinitePartialMap:
    """g after f; Dom(gf) = f^{-1}(Dom g)."""
    if f.space != g.space:
        raise ValueError("space mismatch")
    # index -1 of the extended tuple keeps an undefined f(x) undefined
    return FinitePartialMap(
        f.space, tuple(map((g.targets + (-1,)).__getitem__, f.targets)))


def power(f: FinitePartialMap, n: int) -> FinitePartialMap:
    """f^n read off the orbit walk of f, as a new map (never f itself)."""
    if n < 0:
        raise ValueError("negative power")
    return FinitePartialMap(f.space, f._power(n))
