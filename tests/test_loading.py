"""The kernel loads per carrier: a process loads the modules of the
document kinds it reads, and the package loads none of them."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conley_kernel
from conley_kernel import cli
from conley_kernel import conley as co
from conley_kernel import dynamics as dyn
from conley_kernel import semiflow as sf

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
BOX_MODULES = {"boxes", "affine", "semiflow"}
FINITE_MODULES = {"finite", "szymczak"}

# run cli.main on argv, then print the kernel modules loaded, one JSON line
PROBE = ("import json, sys\n"
         "from conley_kernel.cli import main\n"
         "code = main(sys.argv[1:])\n"
         "print(json.dumps([code, sorted(m.split('.', 1)[1] for m in sys.modules"
         " if m.startswith('conley_kernel.'))]))\n")


def fresh(*args):
    """Standard output of a fresh interpreter on the checkout's src/."""
    done = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120, cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0 and done.stderr == "", done.stderr
    return done.stdout


@pytest.mark.parametrize("argv, unloaded", [
    (["shift-equiv", "fixtures/attractor.json", "--from", "core", "--set",
      "all"], BOX_MODULES),
    (["index", "fixtures/doubling.json", "--set", "S", "--nbhd", "unit",
      "--search", "8"], FINITE_MODULES),
    (["index-nbhd", "fixtures/clamp_flow.json", "--set", "S", "--nbhd",
      "unit"], FINITE_MODULES),
], ids=["finite", "interval", "semiflow"])
def test_a_process_loads_only_its_document_kind(capsys, monkeypatch, argv,
                                                unloaded):
    """The reply of a fresh process equals the in-process reply, and the
    process has loaded no module of the other document kinds."""
    *reply, last = fresh("-c", PROBE, *argv).splitlines(keepends=True)
    code, loaded = json.loads(last)
    monkeypatch.chdir(ROOT)
    assert (code, "".join(reply)) == (cli.main(argv), capsys.readouterr().out)
    assert code == 0 and not unloaded & set(loaded)
    assert {"cli", "documents", "dynamics"} <= set(loaded)


def test_the_package_loads_no_kernel_module():
    probe = ("import sys, conley_kernel; print(sorted(m for m in sys.modules "
             "if m.startswith('conley_kernel.')))")
    assert fresh("-c", probe) == "[]\n"


# the names the package exported when it imported them eagerly
PUBLIC = {"boxes": ("BoxSet", "Cut", "Interval", "NEG_INF", "POS_INF", "rat"),
          "affine": ("AffineRule", "Piece", "PiecewiseAffineMap"),
          "finite": ("FinitePartialMap", "FiniteSpace", "FiniteSubset")}


def test_every_public_name_resolves():
    assert conley_kernel.__all__ == ["__version__", *(
        name for names in PUBLIC.values() for name in names)]
    for home, names in PUBLIC.items():
        module = importlib.import_module(f"conley_kernel.{home}")
        for name in names:
            assert getattr(conley_kernel, name) is getattr(module, name)
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        conley_kernel.nothing


def test_each_system_owns_its_invariant_part():
    """Each system type computes its own invariant part and compactifiability
    checks, and dynamics reads no carrier: it imports no kernel module but
    errors and names no carrier, and carriers.py is gone."""
    import ast
    from conley_kernel.affine import PiecewiseAffineMap
    from conley_kernel.finite import FinitePartialMap
    for t in (FinitePartialMap, PiecewiseAffineMap, sf.ExactSemiflow):
        assert "invariant_part" in vars(t), t
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("conley_kernel.carriers")
    for name in ("invariant_part_exact", "weak_compactifiability_checks",
                 "one_point"):
        assert not hasattr(dyn, name), name
    assert not hasattr(sf, "invariant_part_F")
    nodes = list(ast.walk(ast.parse(inspect.getsource(dyn))))
    assert not any(isinstance(node, ast.Attribute) and
                   node.attr == "carrier_name" for node in nodes)
    assert {node.module for node in nodes
            if isinstance(node, ast.ImportFrom) and node.level} == {"errors"}


def test_the_one_undecided_class_is_caught_everywhere():
    assert cli.Undecided is dyn.Undecided is co.Undecided is sf.Undecided


# what a system answers about its time domain, with the same parameters on
# every system type
TIME_DOMAIN = ("dom", "preimage_n", "time_map", "interior_of",
               "search_context", "invariant_part", "check_invariant",
               "weak_compactifiability_checks")


def test_every_system_answers_the_time_domain_interface():
    from conley_kernel.affine import PiecewiseAffineMap
    from conley_kernel.finite import FinitePartialMap
    from conley_kernel.szymczak import BasedEndo
    systems = {FinitePartialMap: ("finite", None),
               BasedEndo: ("finite", None),
               PiecewiseAffineMap: ("interval", 64),
               sf.ExactSemiflow: ("semiflow", 8)}
    for name in TIME_DOMAIN:
        parameters = {str(list(inspect.signature(getattr(t, name))
                               .parameters.values())) for t in systems}
        assert len(parameters) == 1, (name, parameters)
    for t, (carrier_name, default_bound) in systems.items():
        assert (t.carrier_name, t.default_bound) == (carrier_name,
                                                     default_bound)
    # g o f of realized maps: a semiflow's are piecewise affine
    assert inspect.signature(FinitePartialMap.after).parameters == \
        inspect.signature(PiecewiseAffineMap.after).parameters


def test_one_context_class_serves_every_system():
    """Every system's search_context builds dynamics._SearchContext over
    the times and with the bound that the system supplies; only the finite
    map searched without a bound is complete."""
    from conley_kernel.documents import parse_document
    # the derived bound of s -> s <- a on (all, core) is 2(p + q) + s1 + s2
    # + 2 with p = q = 1 and s1 = s2 = 0
    cases = [("attractor.json", "all", "core", None, True, 6),
             ("attractor.json", "all", "core", 8, False, 8),
             ("doubling.json", "unit", "origin", None, False, 64),
             ("clamp_flow.json", "unit", "half", None, False, 8)]
    for name, source, target, bound, complete, used in cases:
        doc = parse_document(json.loads((ROOT / "fixtures" / name).read_text()))
        f, e, e2 = doc.system, doc.sets[source], doc.sets[target]
        ctx = f.search_context(e, e2, bound)
        assert type(ctx) is dyn._SearchContext, name
        assert (ctx.complete, ctx.bound) == (complete, used), name
        times = sf._candidate_times(f, [e, e2], ctx.bound) \
            if isinstance(f, sf.ExactSemiflow) else range(used + 1)
        assert ctx.times == times, name
