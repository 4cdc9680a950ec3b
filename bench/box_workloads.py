"""The interval-carrier workloads: interval-1d and box-nd.

Every document is built so that its verdicts are known: a product of 1-D
piecewise-affine maps whose core cell holds one affine fixed point z with
slopes of modulus != 1 (expanding, contracting or, in n-D, a saddle), or a
product semiflow of clamped axes with rest point at the clamps (or a 1-D
translation, with no rest point).  Neighbourhoods of z stay inside the core
cell, where the invariant part is {z}.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q
from itertools import product

from common import Request, Workload
from oracles import (
    AxisMap, BoxUnion, INF, ProductFlow, ProductMap, check_constructed,
    check_triple, check_witness, closed_box, expect, hull, induced_domain_open,
    iv_json, point_box, raster, same_box,
)

OUTER_SLOPES = [Q(3, 2), Q(2), Q(5, 2), Q(3)]


class Family:
    """A generated document with what is known about it."""

    def __init__(self, kind, system, sets, dim):
        self.kind = kind          # "map" | "flow"
        self.system = system      # oracles.ProductMap | oracles.ProductFlow
        self.sets = sets          # label -> oracles.BoxUnion
        self.dim = dim
        self.proper, self.open = {}, {}   # label -> known predicate values
        self.index = {}           # label -> known index-neighbourhood verdict
        self.invariant = {}       # label -> BoxUnion of the invariant part
        self.seed_set = None      # (K, U) that index --search starts from
        self.constructed_ok = None  # box -> is it an index neighbourhood
        self.doc = None

    def points(self, *labels):
        region = hull(*(self.sets[k] for k in labels if self.sets[k].boxes))
        steps = {1: 64, 2: 12, 3: 5}[self.dim]
        return raster(region, steps)


# ---------------------------------------------------------------------------
# piecewise-affine product maps

def axis_map(rng, z, big_r, slope, n_pieces):
    """n_pieces affine pieces; the core piece [z - R, z + R) is
    x -> z + slope (x - z); the outer pieces are steep and increasing.
    With one piece the core rule acts on the whole line."""
    if n_pieces == 1:
        return AxisMap([], [(slope, z - slope * z)])
    n_left = (n_pieces - 1) // 2
    n_right = n_pieces - 1 - n_left
    breaks = [z - big_r, z + big_r]
    rules = [(slope, z - slope * z)]
    x, y = z - big_r, z - slope * big_r
    for i in range(n_left):
        m = rng.choice(OUTER_SLOPES)
        rules.insert(0, (m, y - m * x))
        if i < n_left - 1:
            x -= Q(rng.randint(2, 6), 4)
            y = m * x + rules[0][1]
            breaks.insert(0, x)
    x, y = z + big_r, z + slope * big_r
    for i in range(n_right):
        m = rng.choice(OUTER_SLOPES)
        rules.append((m, y - m * x))
        if i < n_right - 1:
            x += Q(rng.randint(2, 6), 4)
            y = m * x + rules[-1][1]
            breaks.append(x)
    return AxisMap(breaks, rules)


def axis_pieces(ax: AxisMap):
    """(interval as JSON, rule) per piece of an axis map."""
    cuts = [-INF] + ax.breaks + [INF]
    return [(iv_json(lo, lo != -INF, hi, False), rule)
            for lo, hi, rule in zip(cuts, cuts[1:], ax.rules)]


def map_document(axes, sets) -> dict:
    pieces = []
    for combo in product(*(axis_pieces(ax) for ax in axes)):
        pieces.append({"domain": [[iv for iv, _ in combo]],
                       "rules": [{"slope": str(m), "intercept": str(c)}
                                 for _, (m, c) in combo]})
    return {"kind": "interval_map",
            "system": {"dimension": len(axes), "pieces": pieces},
            "sets": {k: v.to_json() for k, v in sets.items()}}


def separated_boxes(rng, core, center, half, grid, m):
    """The closed box core and m - 1 closed boxes in cells of a grid over
    center +- half, in cells whose indices are all even and away from core,
    so that any two boxes are disjoint."""
    dim = len(center)
    cell = [2 * h / grid for h in half]
    boxes = []
    for c in product(range(0, grid, 2), repeat=dim):
        margin = Q(rng.randint(1, 3), 10)
        box = tuple((z - h + w * (i + margin), True, z - h + w * (i + 1 - margin), True)
                    for z, h, w, i in zip(center, half, cell, c))
        if not all(lo <= chi and clo <= hi
                   for (lo, _, hi, _), (clo, _, chi, _) in zip(box, core)):
            boxes.append(box)
    return [core] + rng.sample(boxes, m - 1)


def map_family(shape, place, dim, slopes, n_pieces, m_boxes, grid) -> Family:
    """shape fixes the piece layout, sizes and relative centres of a slot,
    place (seeded) translates it and picks the boxes of M."""
    offset = Q(place.randint(-64, 64), 4)
    z = [offset + shape.randint(-4, 4) for _ in range(dim)]
    big_r = [Q(shape.randint(8, 16), 4) for _ in range(dim)]
    axes = [axis_map(shape, zi, ri, s, k)
            for zi, ri, s, k in zip(z, big_r, slopes, n_pieces)]
    r = [ri / 2 for ri in big_r]
    expanding = [abs(s) > 1 for s in slopes]

    def index_box(scale):
        return tuple((zi - ri * scale, not e, zi + ri * scale, not e)
                     for zi, ri, e in zip(z, r, expanding))

    comps = separated_boxes(place, closed_box(z, [ri / 2 for ri in r]), z,
                            [ri * Q(3, 2) for ri in r], grid, m_boxes)
    sets = {"S": BoxUnion([point_box(z)]),
            "N": BoxUnion([closed_box(z, r)]),
            "H": BoxUnion([closed_box(z, [ri / 2 for ri in r])]),
            "J": BoxUnion([index_box(1)]),
            "JH": BoxUnion([index_box(Q(1, 2))]),
            "M": BoxUnion(comps)}
    fam = Family("map", ProductMap(axes), sets, dim)
    fam.doc = map_document(axes, sets)
    f = fam.system
    fam.proper = {"N": True, "J": True, "M": True}
    fam.open = {"N": not any(expanding), "J": True,
                "M": induced_domain_open(f, comps)}
    fam.index = dict(fam.open)
    point = BoxUnion([point_box(z)])
    fam.invariant = {"N": point, "M": point}
    fam.seed_set = (sets["N"], BoxUnion([tuple(
        (zi - ri, False, zi + ri, False) for zi, ri in zip(z, r))]))
    fam.constructed_ok = lambda box: _map_index_box(f, z, expanding, box)
    return fam


def _map_index_box(f, z, expanding, box) -> bool:
    """A product box is an index neighbourhood of z in the core cell when
    expanding axes are open and symmetric about z and contracting axes are
    closed and mapped into themselves."""
    for ax, zi, e, (lo, lc, hi, hc) in zip(f.axes, z, expanding, box):
        if not lo < zi < hi:
            return False
        if e and (lc or hc or zi - lo != hi - zi):
            return False
        if not e and not (lc and hc and lo <= min(ax(lo), ax(hi))
                          and max(ax(lo), ax(hi)) <= hi):
            return False
    return True


# ---------------------------------------------------------------------------
# product semiflows

def flow_family(shape, place, kinds, m_boxes) -> Family:
    """shape fixes the velocities, sizes and relative clamps of a slot,
    place (seeded) translates it and places the boxes of M."""
    dim = len(kinds)
    axes, rest, near, far = [], [], [], []
    offset = Q(place.randint(-64, 64), 4)
    for kind in kinds:
        v = shape.choice([Q(1), Q(2), Q(1, 2), Q(3, 2)])
        c = offset + shape.randint(-4, 4)
        r = Q(shape.randint(4, 10), 4) * max(v, 1)
        axes.append((kind, v, c))
        if kind == "floor":
            rest.append(c); near.append(c); far.append(c + r)
        elif kind == "ceil":
            rest.append(c); near.append(c); far.append(c - r)
        else:
            near.append(c); far.append(c + r)
    flow = ProductFlow([(k, v, None if k == "translation" else c)
                        for k, (_, v, c) in zip(kinds, axes)])

    def box(scale, open_far_axis0=False, interior=False):
        out = []
        for k, (a, b) in enumerate(zip(near, far)):
            b = a + (b - a) * scale
            far_closed = not (interior or (open_far_axis0 and k == 0))
            lo, hi = min(a, b), max(a, b)
            out.append((lo, far_closed if a > b else True,
                        hi, far_closed if a < b else True))
        return tuple(out)

    translation = kinds == ("translation",)
    sets = {"S": BoxUnion([] if translation else [point_box(rest)]),
            "N": BoxUnion([box(1)]), "H": BoxUnion([box(Q(1, 2))]),
            "Nh": BoxUnion([box(1, open_far_axis0=True)])}
    comps = None
    if m_boxes and not translation:
        comps = _flow_components(place, axes, near, far, m_boxes)
        sets["M"] = BoxUnion(comps)
    fam = Family("flow", flow, sets, dim)
    fam.doc = {"kind": "semiflow",
               "system": {"dimension": dim, "axes": [
                   {"kind": k, "velocity": str(v)} |
                   ({} if k == "translation" else {"clamp": str(c)})
                   for k, (_, v, c) in zip(kinds, axes)]},
               "sets": {k: v.to_json() for k, v in sets.items()}}
    if translation:
        # orbits leave every bounded set; [a, b] with b - a >= v/2 has a
        # swept domain that is closed, not open, at the probe time 1/2
        fam.proper = {"N": True}
        fam.open = {"N": False}
        fam.invariant = {"N": BoxUnion([])}
    else:
        fam.proper = {"N": True, "Nh": False}
        fam.open = {"N": True, "Nh": True}
        if comps and dim == 1:
            # components above the rest point are at least v/2 long, so the
            # swept domain at the probe time 1/2 is closed, not open, in M
            fam.proper["M"], fam.open["M"] = True, False
        point = BoxUnion([point_box(rest)])
        fam.invariant = {"N": point, "M": point}
        fam.seed_set = (sets["N"], BoxUnion([box(1, interior=True)]))
        fam.constructed_ok = lambda b: _flow_index_box(near, far, b)
    fam.index = {k: fam.proper[k] and fam.open[k] for k in fam.proper}
    return fam


def _flow_components(rng, axes, near, far, m):
    """The closed corner box on the rest point, and m - 1 boxes further out
    along the flow, each at least v/2 long on every axis and separated."""
    out = [tuple((min(a, a + (b - a) / 4), True, max(a, a + (b - a) / 4), True)
                 for a, b in zip(near, far))]
    for j in range(1, m):
        box = []
        for (kind, v, _), a, b in zip(axes, near, far):
            sign = 1 if b > a else -1
            start = abs(b - a) / 2 + j * (v + 2) + Q(rng.randint(0, 3), 4)
            length = v / 2 + Q(rng.randint(0, 4), 8)
            lo, hi = a + sign * start, a + sign * (start + length)
            box.append((min(lo, hi), True, max(lo, hi), True))
        out.append(tuple(box))
    return out


def _flow_index_box(near, far, box) -> bool:
    """Closed boxes on the rest point are forward invariant, hence index
    neighbourhoods of it."""
    for a, b, (lo, lc, hi, hc) in zip(near, far, box):
        if not (lc and hc and lo < hi and (lo == a if b > a else hi == a)):
            return False
    return True


# ---------------------------------------------------------------------------
# requests

def family_requests(w: Workload, name: str, fam: Family, plan: str):
    """The commands of the plan, run on one document, with known answers.

    Plan words: check, inv-<set>, iso-<set>, idx-<set>, sim, adm, szeq,
    search, shift.  sim, adm and szeq relate N and H."""
    path = w.path(name)
    for word in plan.split():
        verb, _, lab = word.partition("-")
        if verb == "check":
            labels = [k for k in ("N", "J", "Nh", "M") if k in fam.proper]
            argv = ["check", path] + [x for k in labels for x in ("--set", k)]
            check = _check_table(fam, labels)
        elif verb == "inv":
            argv = ["invariant-part", path, "--set", lab]
            check = _invariant(fam.invariant[lab])
        elif verb in ("iso", "idx"):
            argv = ["isolating" if verb == "iso" else "index-nbhd", path,
                    "--set", "S", "--nbhd", lab]
            check = _certificate(verb == "iso" or fam.index[lab])
        elif verb in ("sim", "adm"):
            argv = ["sim" if verb == "sim" else "admissible", path,
                    "--from", "N", "--set", "H"]
            check = (_sim if verb == "sim" else _admissible)(fam)
        elif verb == "szeq":
            argv = ["szymczak-equal", path, "--from", "N", "--set", "H"]
            check = _sz_equal(fam)
        elif verb == "search":
            argv = ["index", path, "--set", "S", "--nbhd", "N", "--search", "8"]
            check = _constructed(fam)
        elif verb == "shift":
            a, b = ("J", "JH") if fam.kind == "map" else ("N", "H")
            argv = ["shift-equiv", path, "--from", a, "--set", b]
            check = _shift_yes
        else:
            raise ValueError(f"unknown plan word {word!r}")
        w.add(Request(f"{word}:{name}", argv, check=check))


PREDICATES = {"map": ("induced map proper", "induced domain open in E",
                      "E locally compact"),
              "flow": ("induced semiflow finite-time proper",
                       "induced semiflow openly defined", "E locally compact")}


def _check_table(fam, labels):
    def check(code, out):
        expect(code == 0, f"check exit {code}")
        for lab in labels:
            row = out["table"][lab]
            want = [fam.proper[lab], fam.open[lab], True]
            got = [row[k] for k in PREDICATES[fam.kind]]
            expect(got == want, f"{lab}: predicates {row}, expected {want}")
            expect(row["compactifiable"] == all(want), f"{lab}: {row}")
    return check


def _invariant(want: BoxUnion):
    def check(code, out):
        expect(code == 0 and out["status"] == "exact", f"exit {code}")
        got = BoxUnion.from_json(out["invariant_part"])
        ok = not got.boxes if not want.boxes else same_box(got, want.boxes[0])
        expect(ok, f"invariant part {out['invariant_part']}, expected "
                   f"{want.to_json()}")
    return check


def _certificate(yes: bool):
    def check(code, out):
        want = ("certified", 0) if yes else ("failure", 1)
        expect((out["status"], code) == want,
               f"{out['status']} exit {code}, expected {want}")
    return check


def _sim(fam):
    n, h = fam.sets["N"], fam.sets["H"]

    def check(code, out):
        # N and H isolate the same set, so they are equivalent
        expect((out["status"], code) == ("equivalent", 0),
               f"sim {out['status']} exit {code}")
        pts = fam.points("N", "H")
        check_witness(fam.system, n, h, out["forward"], pts)
        check_witness(fam.system, h, n, out["backward"], pts)
    return check


def _admissible(fam):
    def check(code, out):
        expect((out["status"], code) == ("found", 0),
               f"admissible {out['status']} exit {code}")
        check_triple(fam.system, fam.sets["N"], fam.sets["H"], out["triple"],
                     fam.points("N", "H"))
    return check


def _sz_equal(fam):
    def check(code, out):
        expect(code == 0 and out["equal"] is True, f"szymczak-equal exit {code}")
        for t in out["triples"]:
            check_triple(fam.system, fam.sets["N"], fam.sets["H"], t,
                         fam.points("N", "H"))
    return check


def _constructed(fam):
    k, u = fam.seed_set

    def check(code, out):
        expect(code == 0 and out["report"]["ok"], f"index exit {code}")
        got = BoxUnion.from_json(out["constructed"]["subset"])
        expect(len(got.boxes) == 1 and fam.constructed_ok(got.boxes[0]),
               f"constructed {out['constructed']['subset']} is not an index "
               f"neighbourhood")
        check_constructed(fam.system, got, k, u, out["constructed"]["triple"],
                          fam.points("N"))
    return check


def _shift_yes(code, out):
    expect((out["status"], code) == ("yes", 0),
           f"shift-equiv {out['status']} exit {code}")


# ---------------------------------------------------------------------------
# workloads

# (slope of the core piece, affine pieces, boxes in M, plan).  Invariant
# parts on M run where |slope| is 3 or 1/3: then one step maps every box of
# M beyond 3/2 r or into the core box of radius r/2, so the work does not
# hinge on how the seed placed the boxes.
INTERVAL_MAPS = [
    (Q(3), 6, 8, "check inv-M idx-J sim adm shift"),
    (Q(1, 3), 10, 16, "check iso-M idx-M sim adm szeq search"),
    (Q(-2), 14, 6, "check inv-N idx-J szeq search shift"),
    (Q(-1, 3), 18, 12, "check inv-M idx-M sim adm")]
INTERVAL_FLOWS = [
    (("floor",), 16,
     "check inv-N inv-M iso-M idx-N idx-Nh idx-M sim adm szeq search shift"),
    (("ceil",), 32, "check inv-M iso-M idx-Nh idx-M sim szeq search shift"),
    (("translation",), 0, "check inv-N iso-N idx-N sim adm szeq")]


def build_interval_1d(seed: int, w: Workload) -> Workload:
    w.name = "interval-1d"
    for slot, (slope, pieces, m, plan) in enumerate(INTERVAL_MAPS):
        shape, place = _rngs("interval-1d", seed, f"map{slot}")
        fam = map_family(shape, place, 1, [slope], [pieces], m, 4 * m + 9)
        _add(w, f"map{slot}", fam, plan)
    for slot, (kinds, m, plan) in enumerate(INTERVAL_FLOWS):
        shape, place = _rngs("interval-1d", seed, f"flow{slot}")
        _add(w, f"flow{slot}", flow_family(shape, place, kinds, m), plan)
    return w


# (core slopes per axis, pieces per axis, boxes in M, plan).  Beyond the
# one-step domain of check, iterated domains and images of several boxes
# under n-D maps cost from 0.1 s to 10 s depending on where the seed put the
# boxes, so M enters n-D maps through check only; shift-equiv and the
# pairwise searches take seconds in 3-D, so they run in 2-D.
BOX_MAPS = [
    ((Q(3), Q(1, 3)), (3, 3), 4, "check inv-N idx-J sim adm szeq search"),
    ((Q(1, 2), Q(-1, 2)), (3, 1), 6, "check inv-N idx-N sim adm search"),
    ((Q(2), Q(-2)), (3, 1), 4, "check inv-N idx-J szeq search shift"),
    ((Q(3), Q(1, 3), Q(-1, 3)), (3, 1, 1), 4, "check inv-N idx-J search"),
    ((Q(1, 2), Q(2, 3), Q(1, 3)), (3, 1, 1), 8, "check inv-N idx-N")]
BOX_FLOWS = [
    (("floor", "floor"), 8, "check inv-M iso-M idx-N idx-Nh sim adm szeq search"),
    (("floor", "ceil"), 16, "check iso-M idx-Nh sim szeq search shift"),
    (("floor", "ceil", "floor"), 6, "check inv-N idx-N adm")]


def build_box_nd(seed: int, w: Workload) -> Workload:
    w.name = "box-nd"
    for slot, (slopes, pieces, m, plan) in enumerate(BOX_MAPS):
        shape, place = _rngs("box-nd", seed, f"map{slot}")
        fam = map_family(shape, place, len(slopes), list(slopes), list(pieces),
                         m, 9 if len(slopes) == 2 else 5)
        _add(w, f"map{slot}", fam, plan, rotate=True)
    for slot, (kinds, m, plan) in enumerate(BOX_FLOWS):
        shape, place = _rngs("box-nd", seed, f"flow{slot}")
        _add(w, f"flow{slot}", flow_family(shape, place, kinds, m), plan,
             rotate=True)
    return w


def _rngs(workload, seed, slot):
    """The slot's fixed shape generator and its seeded placement generator.
    Keeping the shape fixed keeps the work of a slot nearly the same across
    seeds, so runs with different seeds can be compared."""
    return (random.Random(f"{workload}:shape:{slot}"),
            random.Random(f"{workload}:{seed}:{slot}"))


def _add(w, name, fam, plan, rotate=False):
    w.add_doc(name, fam.doc)
    first = len(w.requests)
    family_requests(w, name, fam, plan)
    if rotate:
        _metamorphic(w, name, fam, w.requests[first:])


def permute_document(doc: dict) -> dict:
    """Rotate the axes of a document: axis k becomes axis k - 1."""
    rot = lambda xs: list(xs[1:]) + [xs[0]]  # noqa: E731
    out = {"kind": doc["kind"], "sets": {k: [rot(b) for b in v]
                                         for k, v in doc["sets"].items()}}
    system = dict(doc["system"])
    if doc["kind"] == "interval_map":
        system["pieces"] = [{"domain": [rot(b) for b in p["domain"]],
                             "rules": rot(p["rules"])} for p in system["pieces"]]
    else:
        system["axes"] = rot(system["axes"])
    out["system"] = system
    return out


def _metamorphic(w, name, fam, originals):
    """The verdict requests again on the axis-rotated document; each must
    give the original's exit code and verdict."""
    pname = name + "-rot"
    w.add_doc(pname, permute_document(fam.doc))
    for req in originals:
        if req.name.startswith("idx-"):
            argv = [w.path(pname) if a == w.path(name) else a for a in req.argv]
            w.add(Request(req.name.replace(name, pname, 1), argv,
                          check=req.check, same_as=req.name))
