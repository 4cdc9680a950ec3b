"""Acceptance gate: every exit criterion at its stated (exact) tolerance.

Each test prints one pass/fail line and enforces its runtime budget.  All
comparisons inside the checks are exact (set equality via symmetric
difference, table equality on the finite carrier); the only bounded pieces
are the witness searches, whose bounds are pinned here.
"""

import time
import tokenize
from pathlib import Path

from conley_kernel import conley as co
from conley_kernel import suites

SRC = Path(__file__).resolve().parent.parent / "src" / "conley_kernel"


def _report(number, label, started, limit, passed, details=()):
    elapsed = time.time() - started
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number} [{status}] {label} ({elapsed:.1f}s / {limit}s)")
    for line in details:
        print(f"    {line}")
    assert passed, f"criterion {number} failed"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_01_composition_laws():
    started = time.time()
    res = suites.suite_thm_composition(trials=500, seed=7)
    _report(1, "four connecting-map identities, 500 finite systems + "
               "curated interval families", started, 60, res.passed, res.lines)


def test_criterion_02_properness_propagation():
    started = time.time()
    res = suites.suite_thm_properness(trials=300, seed=19)
    _report(2, "cross maps of weakly compactifiable pairs are proper and "
               "openly defined", started, 60, res.passed, res.lines)


def test_criterion_03_szymczak_oracle():
    started = time.time()
    res = suites.suite_szymczak_oracle(max_points=3)
    _report(3, "shift equivalence iff Q-image invertible, exhaustive over "
               "based endos with <= 4 points", started, 300, res.passed,
            res.lines)


def test_criterion_04_invariant_part_oracle():
    started = time.time()
    res = suites.suite_invariant_part_oracle(trials=60, seed=23)
    _report(4, "invariant part agrees with brute-force largest invariant "
               "subset", started, 120, res.passed, res.lines)


def _worked_model(number, model, label):
    """One model's lines of the worked-models suite, as one criterion."""
    started = time.time()
    res = suites.suite_worked_models()
    lines = [line for line in res.lines if f"{model}: " in line]
    passed = bool(lines) and not any(
        line.startswith("COUNTEREXAMPLE") for line in lines)
    _report(number, label, started, 5, passed, lines)


def test_criterion_05_doubling_model():
    _worked_model(5, "doubling", "doubling-map model reproduced")


def test_criterion_06_shift_model():
    _worked_model(6, "shift", "planar shift model reproduced")


def test_criterion_07_connected_simple_system():
    started = time.time()
    res = suites.suite_simple_system()
    passed = res.passed
    details = list(res.lines)
    # composite-equals-power-class witnesses must be present on every morphism
    import conley_kernel.finite as fin
    space = fin.FiniteSpace.of(["s", "a"])
    f = fin.FinitePartialMap.of(space, {"s": "s", "a": "s"})
    rep = co.verify_simple_system(
        f, fin.FiniteSubset.of(space, ["s"]),
        [fin.FiniteSubset.of(space, ["s"]), fin.FiniteSubset.of(space, ["s", "a"])])
    for m in rep.morphisms:
        has_witness = any("power class" in c.name and c.ok for c in m.checks)
        passed &= m.invertible and has_witness
    details.append("every connecting morphism invertible with "
                   "composite-equals-power-class witness")
    _report(7, "connected simple system over >= 2 index neighbourhoods",
            started, 10, passed, details)


def test_criterion_08_continuous_discriminator():
    started = time.time()
    res = suites.suite_cont_discriminator()
    _report(8, "clamped-flow index neighbourhood accepted/rejected with "
               "invariant-part agreement", started, 10, res.passed, res.lines)


def test_criterion_09_continuous_composition_laws():
    started = time.time()
    res = suites.suite_cont_laws()
    _report(9, "continuous connecting-map identities on clamped and "
               "translation fixtures", started, 30, res.passed, res.lines)


def test_criterion_10_exactness_hygiene():
    started = time.time()
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        with open(path, "rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == tokenize.NUMBER:
                    text = tok.string.lower()
                    if "." in text or ("e" in text and not text.startswith("0x")) \
                            or text.endswith("j"):
                        offenders.append(f"{path.name}:{tok.start[0]} "
                                         f"float literal {tok.string}")
                elif tok.type == tokenize.NAME and tok.string == "float":
                    offenders.append(f"{path.name}:{tok.start[0]} "
                                     f"use of float")
    _report(10, "kernel sources contain no floating-point computation",
            started, 30, not offenders, offenders)
