"""Independent answers for the benchmark's correctness checks.

Nothing here imports the kernel.  Finite systems are checked with plain
Python sets and eventual-periodicity bounds derived from orbit shapes;
interval maps and semiflows with the benchmark's own exact evaluation of
affine rules and of max(x - v*t, L) / min(x + v*t, U) on rational rasters.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction as Q
from itertools import product

INF = float("inf")


class Mismatch(Exception):
    """The kernel's output disagrees with the independent answer."""


def expect(ok: bool, message: str):
    if not ok:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# finite systems

class FiniteOracle:
    """A finite partial self-map, given as a plain dict."""

    def __init__(self, points, table):
        self.points = list(points)
        self.f = dict(table)
        self._pre = {}
        for x, y in self.f.items():
            self._pre.setdefault(y, set()).add(x)

    def preimage(self, e: set) -> set:
        out = set()
        for y in e:
            out |= self._pre.get(y, set())
        return out

    def pre(self, e: set, n: int) -> set:
        """f^-n(e): points whose n-th iterate is defined and lies in e."""
        out = set(e)
        for _ in range(n):
            out = self.preimage(out)
        return out

    def dom(self, e: set, n: int) -> set:
        """D_n(e): points x with x, f x, ..., f^n x all defined and in e."""
        d = set(e)
        for _ in range(n):
            d = set(e) & self.preimage(d)
        return d

    def stab(self, e: set) -> int:
        """Least n with D_{n+1}(e) = D_n(e)."""
        n, d = 0, set(e)
        while True:
            d2 = set(e) & self.preimage(d)
            if d2 == d:
                return n
            d, n = d2, n + 1

    def power_bounds(self) -> tuple[int, int]:
        """(p, q) with f^n = f^(n+q) for n >= p, from the orbit shapes:
        an orbit that dies after k steps needs p >= k; one entering a cycle
        of length L after a tail t needs p >= t and L | q."""
        p, q = 0, 1
        for x in self.points:
            seen = {}
            y, n = x, 0
            while y is not None and y not in seen:
                seen[y] = n
                y = self.f.get(y)
                n += 1
            if y is None:
                p = max(p, n)
            else:
                p = max(p, seen[y])
                q = math.lcm(q, n - seen[y])
        return p, q

    def cycles_in(self, e: set) -> list[list]:
        """The f-cycles lying entirely in e."""
        out, done = [], set()
        for x in sorted(e):
            if x in done:
                continue
            cyc, y = [x], self.f.get(x)
            while y is not None and y in e and y != x and len(cyc) <= len(e):
                cyc.append(y)
                y = self.f.get(y)
            if y == x:
                out.append(cyc)
                done.update(cyc)
        return out

    def invariant_part(self, e: set) -> set:
        return {x for c in self.cycles_in(e) for x in c}

    def is_isolating(self, e: set, s: set) -> bool:
        return set(e) <= set(self.f) and self.invariant_part(e) == set(s)

    def cycle_type(self, e: set) -> tuple:
        """(eventual image size, sorted cycle lengths) of the one-point
        endo of e: the cycles in e plus the fixed basepoint."""
        lengths = sorted([len(c) for c in self.cycles_in(e)] + [1])
        return sum(lengths), tuple(lengths)

    # -- admissibility ------------------------------------------------------

    def cond1(self, e, e2, a, b) -> bool:
        return self.dom(e, b) <= self.pre(e2, a)

    def cond2(self, e, e2, delta, gamma) -> bool:
        return self.dom(e2, gamma) <= self.pre(e, delta)

    def is_admissible(self, e, e2, t) -> bool:
        a, b, c = t
        return 0 <= a <= b <= c and self.cond1(e, e2, a, b) and \
            self.cond2(e, e2, b - a, c - a)

    def search_bound(self, e, e2) -> int:
        """Past max(p, s_E, s_E') + q both f^-n and D_n repeat, so a and
        b - a of some admissible triple, if any, lie below this bound."""
        p, q = self.power_bounds()
        return max(p, self.stab(e), self.stab(e2)) + q

    def find_triple(self, e, e2):
        """An admissible triple by definition, or None when none exists."""
        bound = self.search_bound(e, e2)
        s2 = self.stab(e2)
        for a in range(bound):
            for delta in range(bound):
                gamma = max(delta, s2)
                if self.cond1(e, e2, a, a + delta) and \
                        self.cond2(e, e2, delta, gamma):
                    return (a, a + delta, a + gamma)
        return None

    def absorbs(self, e, e2) -> bool:
        """Some (a, b), a <= b, with D_b(e) <= f^-a(e2)."""
        bound = self.search_bound(e, e2)
        s = self.stab(e)
        return any(self.cond1(e, e2, a, max(a, s)) for a in range(bound))

    # -- shift equivalence by the eventual-image bijection rule --------------

    def one_point(self, e: set, base: str) -> dict:
        g = {x: (self.f[x] if x in self.f and self.f[x] in e else base)
             for x in e}
        g[base] = base
        return g

    @staticmethod
    def eventual_image(g: dict) -> set:
        img = set(g)
        for _ in range(len(g)):
            img = {g[x] for x in img}
        return img

    def connecting_is_shift_equivalence(self, e, e2):
        """None when e, e2 have no admissible triple; else whether the
        connecting map maps the eventual image of the one-point endo of e
        bijectively onto that of e2."""
        t = self.find_triple(e, e2)
        if t is None:
            return None
        a, b, c = t
        base = "*"
        while base in self.points:
            base += "*"
        dom = self.dom(e, b) & self.pre(self.dom(e2, c - a), a)
        phi = {}
        for x in e:
            if x in dom:
                y = x
                for _ in range(c):
                    y = self.f[y]
                phi[x] = y
            else:
                phi[x] = base
        phi[base] = base
        src = self.eventual_image(self.one_point(e, base))
        tgt = self.eventual_image(self.one_point(e2, base))
        image = [phi[x] for x in src]
        return len(set(image)) == len(image) and set(image) == tgt


# ---------------------------------------------------------------------------
# exact sets of boxes in the document format

def cut(tok):
    if tok == "inf":
        return INF
    if tok == "-inf":
        return -INF
    return Q(tok)


def iv_json(lo, lc, hi, hc) -> list:
    def s(v):
        if v == INF:
            return "inf"
        if v == -INF:
            return "-inf"
        return str(v)
    return [s(lo), lc, s(hi), hc]


def iv_from_json(t) -> tuple:
    lo, lc, hi, hc = t
    return (cut(lo), lc, cut(hi), hc)


def iv_contains(iv, x) -> bool:
    lo, lc, hi, hc = iv
    return (lo < x or (lc and lo == x)) and (x < hi or (hc and x == hi))


class BoxUnion:
    """A finite union of boxes, each a tuple of (lo, lo_closed, hi, hi_closed)."""

    def __init__(self, boxes):
        self.boxes = [tuple(b) for b in boxes]

    @staticmethod
    def from_json(data) -> "BoxUnion":
        return BoxUnion(tuple(iv_from_json(iv) for iv in box) for box in data)

    def to_json(self) -> list:
        return [[iv_json(*iv) for iv in b] for b in self.boxes]

    def contains(self, pt) -> bool:
        return any(all(iv_contains(iv, x) for iv, x in zip(b, pt))
                   for b in self.boxes)


def closed_box(center, radius) -> tuple:
    return tuple((c - r, True, c + r, True) for c, r in zip(center, radius))


def point_box(pt) -> tuple:
    return tuple((c, True, c, True) for c in pt)


def same_box(got: BoxUnion, want: tuple) -> bool:
    return len(got.boxes) == 1 and got.boxes[0] == tuple(want)


def raster(region, steps: int):
    """Rational grid over a bounded box: steps cells per axis, cell corners
    and cell centres."""
    axes = []
    for lo, _, hi, _ in region:
        h = (hi - lo) / steps
        axes.append([lo + h * k / 2 for k in range(2 * steps + 1)])
    return [tuple(p) for p in product(*axes)]


def hull(*sets: BoxUnion, pad=Q(1, 2)) -> tuple:
    boxes = [b for s in sets for b in s.boxes]
    dim = len(boxes[0])
    return tuple((min(b[k][0] for b in boxes) - pad, True,
                  max(b[k][2] for b in boxes) + pad, True) for k in range(dim))


# ---------------------------------------------------------------------------
# piecewise-affine product maps

class AxisMap:
    """A continuous piecewise-affine map of the line: rules[i] acts on
    [breaks[i-1], breaks[i]), the outer pieces being unbounded."""

    def __init__(self, breaks, rules):
        self.breaks = list(breaks)
        self.rules = [(Q(m), Q(c)) for m, c in rules]

    def __call__(self, x):
        m, c = self.rules[bisect_right(self.breaks, x)]
        return m * x + c


class ProductMap:
    def __init__(self, axes):
        self.axes = list(axes)

    def __call__(self, pt):
        return tuple(ax(x) for ax, x in zip(self.axes, pt))

    def iterate(self, pt, n):
        for _ in range(n):
            pt = self(pt)
        return pt

    def in_dom(self, e: BoxUnion, pt, n) -> bool:
        for k in range(n + 1):
            if not e.contains(pt):
                return False
            if k < n:
                pt = self(pt)
        return True

    def in_pre(self, e: BoxUnion, pt, n) -> bool:
        return e.contains(self.iterate(pt, n))


class ProductFlow:
    """Per-axis rules: ("floor", v, L) is max(x - v t, L), ("ceil", v, U) is
    min(x + v t, U), ("translation", v, None) is x - v t."""

    def __init__(self, axes):
        self.axes = [(k, Q(v), None if c is None else Q(c)) for k, v, c in axes]

    def at(self, t, pt):
        out = []
        for (kind, v, c), x in zip(self.axes, pt):
            if kind == "floor":
                out.append(max(x - v * t, c))
            elif kind == "ceil":
                out.append(min(x + v * t, c))
            else:
                out.append(x - v * t)
        return tuple(out)

    def in_dom(self, e: BoxUnion, pt, t) -> bool:
        """Orbit segment over [0, t] inside e.  Every coordinate is monotone
        in time, so for a single box the two ends decide."""
        if len(e.boxes) != 1:
            raise ValueError("swept-domain oracle needs a single box")
        return e.contains(pt) and e.contains(self.at(t, pt))

    def in_pre(self, e: BoxUnion, pt, t) -> bool:
        return e.contains(self.at(t, pt))


def check_triple(system, e: BoxUnion, e2: BoxUnion, t, points):
    """Both absorption inclusions of an admissible triple, pointwise."""
    a, b, c = (Q(x) for x in t)
    expect(0 <= a <= b <= c, f"triple {t} is not ordered")
    for x in points:
        if system.in_dom(e, x, _n(b)) and not system.in_pre(e2, x, _n(a)):
            raise Mismatch(f"triple {t}: D_b(E) not in f^-a(E') at {x}")
        if system.in_dom(e2, x, _n(c - a)) and not system.in_pre(e, x, _n(b - a)):
            raise Mismatch(f"triple {t}: D_(c-a)(E') not in f^-(b-a)(E) at {x}")


def check_witness(system, e: BoxUnion, e2: BoxUnion, w, points):
    """D_b(e) inside f^-a(e2) for the witness (a, b)."""
    a, b = (Q(x) for x in w)
    expect(0 <= a <= b, f"witness {w} is not ordered")
    for x in points:
        if system.in_dom(e, x, _n(b)) and not system.in_pre(e2, x, _n(a)):
            raise Mismatch(f"witness {w}: D_b not in f^-a at {x}")


def check_constructed(system, got: BoxUnion, k: BoxUnion, u: BoxUnion, t, points):
    """The constructed set is D_b(K) n f^-a(D_(c-a)(U)) at every raster point."""
    a, b, c = (Q(x) for x in t)
    for x in points:
        want = system.in_dom(k, x, _n(b)) and \
            _in_dom_after(system, u, x, _n(a), _n(c - a))
        expect(got.contains(x) == want,
               f"constructed set disagrees with its triple {t} at {x}")


def _in_dom_after(system, e, x, a, n):
    if isinstance(system, ProductMap):
        return system.in_dom(e, system.iterate(x, a), n)
    return system.in_dom(e, system.at(a, x), n)


def _n(q):
    """Discrete times are naturals; keep rational times for flows."""
    return int(q) if q.denominator == 1 else q


def box_image(f: ProductMap, box) -> tuple:
    """Image of a closed box inside one affine cell."""
    out = []
    for ax, (lo, _, hi, _) in zip(f.axes, box):
        y1, y2 = ax(lo), ax(hi)
        out.append((min(y1, y2), True, max(y1, y2), True))
    return tuple(out)


def box_inside(a, b) -> bool:
    return all(bl <= al and ah <= bh for (al, _, ah, _), (bl, _, bh, _) in zip(a, b))


def boxes_meet(a, b) -> bool:
    return all(max(al, bl) <= min(ah, bh)
               for (al, _, ah, _), (bl, _, bh, _) in zip(a, b))


def induced_domain_open(f: ProductMap, components) -> bool:
    """For separated closed boxes inside one affine cell, E n f^-1(E) is open
    in E exactly when each component maps into one component or misses E:
    a component is connected and its share of the domain is closed in it."""
    for c in components:
        img = box_image(f, c)
        if not (any(box_inside(img, d) for d in components) or
                not any(boxes_meet(img, d) for d in components)):
            return False
    return True
